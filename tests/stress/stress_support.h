// Shared scaffolding for the deterministic concurrency stress suite.
//
// Every stress test runs the same seeded workload at several thread counts
// and asserts the results are *identical* — the parallel core is designed
// to be thread-count-invariant (deterministic sorts, blocked reductions,
// partitioned writers). The suite is the sanitizer gate: it is what
// `ctest -L stress` runs under -DRINGO_SANITIZE=thread.
#ifndef RINGO_TESTS_STRESS_STRESS_SUPPORT_H_
#define RINGO_TESTS_STRESS_STRESS_SUPPORT_H_

#include <algorithm>
#include <thread>
#include <vector>

#include "util/parallel.h"
#include "util/radix_sort.h"

namespace ringo {
namespace testing {

// Thread counts exercised by every stress test: sequential baseline, the
// smallest truly concurrent team, and the machine's full width (plus 4 so
// single-core CI machines still oversubscribe and interleave).
inline std::vector<int> StressThreadCounts() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  std::vector<int> counts = {1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// RAII thread-count override; restores the previous cap on destruction so
// tests in one binary do not leak their setting into each other.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : prev_(NumThreads()) { SetNumThreads(n); }
  ~ScopedNumThreads() { SetNumThreads(prev_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int prev_;
};

// RAII toggle for the radix kill switch.
class ScopedRadix {
 public:
  explicit ScopedRadix(bool on) : prev_(radix::Enabled()) {
    radix::SetEnabled(on);
  }
  ~ScopedRadix() { radix::SetEnabled(prev_); }
  ScopedRadix(const ScopedRadix&) = delete;
  ScopedRadix& operator=(const ScopedRadix&) = delete;

 private:
  bool prev_;
};

}  // namespace testing
}  // namespace ringo

#endif  // RINGO_TESTS_STRESS_STRESS_SUPPORT_H_
