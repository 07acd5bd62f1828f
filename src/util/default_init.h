// DefaultInitAllocator: std::allocator with one change — the value-less
// construct() default-initializes instead of value-initializing. For the
// scalar element types of table storage, vector::resize(n) and vector(n)
// then leave the new cells unwritten, so an operator that overwrites every
// cell in a parallel pass does not first pay a serial zero fill (a memset
// that also takes every page fault on one thread). Construction with a
// value (push_back, resize(n, v), assign, copies) is unchanged.
//
// Cells sized this way hold unspecified values until written; a caller
// that needs zeros asks for them (Column::Resize does).
//
// In AddressSanitizer builds the value-less construct() fills each new
// cell with a fixed non-zero byte pattern (kDefaultInitFill), so a read
// of a cell that nobody wrote shows up in tests as a wrong value rather
// than as a silent zero. A compile-time test aid, not a mode.
//
// PoolAllocator: std::allocator for requests below kPoolBlockBytes (2 MiB),
// the process-wide BlockPool (util/block_pool.h) for larger ones, so a
// large array released by one build comes back to the next with its pages
// already faulted in. PooledVector combines it with DefaultInitAllocator;
// the graph layer's large arrays (arenas, node tables, bulk-build arc
// buffers, AlgoView CSR arrays) use it, table storage does not
// (DESIGN.md §20).
#ifndef RINGO_UTIL_DEFAULT_INIT_H_
#define RINGO_UTIL_DEFAULT_INIT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/block_pool.h"

namespace ringo {

// Byte written into freshly sized cells under AddressSanitizer.
inline constexpr unsigned char kDefaultInitFill = 0xA5;

template <typename T, typename A = std::allocator<T>>
class DefaultInitAllocator : public A {
  using Traits = std::allocator_traits<A>;

 public:
  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<U, typename Traits::template rebind_alloc<U>>;
  };

  using A::A;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
#if defined(__SANITIZE_ADDRESS__)
    if constexpr (std::is_trivially_copyable_v<U>) {
      std::memset(static_cast<void*>(p), kDefaultInitFill, sizeof(U));
    }
#endif
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    Traits::construct(static_cast<A&>(*this), p, std::forward<Args>(args)...);
  }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

// Stateless and always equal, so moving a vector between owners stays a
// pointer swap.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
    const size_t bytes = n * sizeof(T);
    if (bytes < kPoolBlockBytes) return std::allocator<T>().allocate(n);
    return static_cast<T*>(BlockPool::Global().Take(bytes));
  }
  void deallocate(T* p, size_t n) noexcept {
    const size_t bytes = n * sizeof(T);
    if (bytes < kPoolBlockBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      BlockPool::Global().Release(p, bytes);
    }
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PooledVector = std::vector<T, DefaultInitAllocator<T, PoolAllocator<T>>>;

// Appends src's cells to dst with std::copy, a memmove for trivially
// copyable T. For any allocator but std::allocator, libstdc++'s vector
// copy and range insert construct element by element instead, at about
// half memmove's speed on large arrays.
template <typename T>
void AppendCopy(DefaultInitVector<T>& dst, const DefaultInitVector<T>& src) {
  const size_t old = dst.size();
  dst.resize(old + src.size());
  std::copy(src.begin(), src.end(), dst.begin() + old);
}

}  // namespace ringo

#endif  // RINGO_UTIL_DEFAULT_INIT_H_
