// SnapshotCache: the concurrency protocol behind the graph's cached
// analytics snapshot (DESIGN.md §12).
//
// The cache slot holds one type-erased immutable snapshot and the mutation
// stamp it was built at. Any number of reader threads may call Acquire()
// concurrently with one writer mutating the graph; the protocol guarantees
//   * readers always observe a consistent (view, stamp) pair — both fields
//     change together under the cache mutex, never torn;
//   * refreshes are single-flight: when the cached snapshot is stale, the
//     first thread to notice becomes the sole builder and everyone else
//     blocks on the condition variable until the fresh snapshot is
//     published. A thundering herd of N cold readers therefore triggers
//     exactly one build; the other N-1 come back as cache hits.
//
// The builder must do the actual (re)build while holding the owning
// graph's structure lock in shared mode (see ReadLockStructure on the
// graph classes), so the stamp it reads cannot move mid-build and the
// journal/adjacency state it consumes is not concurrently mutated. The
// cache mutex itself is *not* held during the build — hits stay cheap.
//
// The slot is type-erased (shared_ptr<const void>) so the graph layer
// stays independent of the algo layer, exactly like the raw pointer+stamp
// pair it replaces.
#ifndef RINGO_GRAPH_SNAPSHOT_CACHE_H_
#define RINGO_GRAPH_SNAPSHOT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace ringo {

class SnapshotCache {
 public:
  SnapshotCache() = default;
  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  // Outcome of Acquire(): either a fresh snapshot (builder == false) or a
  // claim on the single build flight (builder == true, view/stamp describe
  // the stale predecessor — view is nullptr on a cold cache).
  struct Claim {
    std::shared_ptr<const void> view;
    uint64_t stamp = 0;
    bool builder = false;
  };

  // Returns the cached snapshot if it matches the graph's current stamp,
  // else blocks behind an in-flight build and re-checks, else claims the
  // build flight for this caller. `stamp_fn` re-reads the graph's current
  // mutation stamp (an atomic load) on every wakeup, so a waiter that finds
  // the published snapshot already stale again becomes the next builder.
  // A builder MUST later call exactly one of Publish() or AbortBuild().
  template <typename StampFn>
  Claim Acquire(const StampFn& stamp_fn) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (view_ != nullptr && stamp_ == stamp_fn()) {
        return Claim{view_, stamp_, /*builder=*/false};
      }
      if (!building_) {
        building_ = true;
        return Claim{view_, stamp_, /*builder=*/true};
      }
      cv_.wait(lk);
    }
  }

  // Publishes the snapshot the builder produced (built while holding the
  // graph's structure lock at `stamp`) and wakes every waiter.
  void Publish(std::shared_ptr<const void> view, uint64_t stamp) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      view_ = std::move(view);
      stamp_ = stamp;
      building_ = false;
    }
    cv_.notify_all();
  }

  // Releases the build flight without publishing (builder unwound on an
  // error path); waiters re-run the Acquire loop and one becomes the next
  // builder.
  void AbortBuild() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      building_ = false;
    }
    cv_.notify_all();
  }

  // RAII companion for the builder side of Acquire(): aborts the flight on
  // scope exit unless Publish() ran.
  class BuildScope {
   public:
    explicit BuildScope(SnapshotCache* cache) : cache_(cache) {}
    ~BuildScope() {
      if (cache_ != nullptr) cache_->AbortBuild();
    }
    BuildScope(const BuildScope&) = delete;
    BuildScope& operator=(const BuildScope&) = delete;
    void Publish(std::shared_ptr<const void> view, uint64_t stamp) {
      cache_->Publish(std::move(view), stamp);
      cache_ = nullptr;
    }

   private:
    SnapshotCache* cache_;
  };

  // Drops the cached snapshot, so the next Acquire builds from scratch.
  // For graph assignment and moves: the graph's contents change wholesale
  // while its stamp need not, and stamps are per graph — another graph's
  // contents can carry a stamp this cache already holds. Like assignment,
  // it requires that no build is in flight.
  void Reset() {
    std::lock_guard<std::mutex> lk(mu_);
    view_.reset();
    stamp_ = 0;
  }

  // Test/introspection peek at the cached pair (consistent, may be stale).
  std::pair<std::shared_ptr<const void>, uint64_t> Peek() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {view_, stamp_};
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<const void> view_;
  uint64_t stamp_ = 0;
  bool building_ = false;
};

}  // namespace ringo

#endif  // RINGO_GRAPH_SNAPSHOT_CACHE_H_
