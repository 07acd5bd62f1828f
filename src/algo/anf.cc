#include "algo/anf.h"

#include <algorithm>
#include <cmath>

#include "algo/algo_view.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Flajolet–Martin magic constant: E[2^R] = card / phi.
constexpr double kPhi = 0.77351;

// Position of the lowest zero bit.
int LowestZeroBit(uint64_t mask) {
  for (int b = 0; b < 64; ++b) {
    if ((mask & (uint64_t{1} << b)) == 0) return b;
  }
  return 64;
}

// FM-sketch propagation over the pinned snapshot's neighbor runs; a self
// entry is harmless (OR with the node's own sketch is idempotent), so the
// runs need no filtering. Sketch seeding consumes the Rng in dense-index
// order, and the cardinality estimate uses the blocked deterministic sum —
// the old `omp reduction` combined partials in a team-size-dependent
// order, so estimates drifted in the last ulps as the thread count changed
// (the "ANF seed stability" bug).
AnfResult AnfKernel(const AlgoView& view, int64_t max_h, int64_t k,
                    uint64_t seed) {
  const int64_t n = view.NumNodes();
  AnfResult out;

  // k sketches per node; each node seeds one geometric bit per sketch.
  std::vector<uint64_t> cur(n * k, 0);
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t r = 0; r < k; ++r) {
      int bit = 0;
      while (bit < 62 && rng.Bernoulli(0.5)) ++bit;
      cur[i * k + r] = uint64_t{1} << bit;
    }
  }

  auto estimate_total = [&](const std::vector<uint64_t>& sketches) {
    return DeterministicBlockSum(0, n, [&](int64_t i) {
      double rsum = 0;
      for (int64_t r = 0; r < k; ++r) {
        rsum += LowestZeroBit(sketches[i * k + r]);
      }
      return std::pow(2.0, rsum / static_cast<double>(k)) / kPhi;
    });
  };

  out.neighborhood.reserve(max_h + 1);
  out.neighborhood.push_back(estimate_total(cur));
  std::vector<uint64_t> next(n * k);
  for (int64_t h = 1; h <= max_h; ++h) {
    ParallelForDynamic(0, n, [&](int64_t i) {
      for (int64_t r = 0; r < k; ++r) {
        uint64_t m = cur[i * k + r];
        for (const int64_t j : view.Out(i)) m |= cur[j * k + r];
        next[i * k + r] = m;
      }
    });
    cur.swap(next);
    out.neighborhood.push_back(estimate_total(cur));
  }

  // Effective diameter: 90% of the final plateau, linearly interpolated.
  const double target = 0.9 * out.neighborhood.back();
  out.effective_diameter = static_cast<double>(max_h);
  for (int64_t h = 0; h <= max_h; ++h) {
    if (out.neighborhood[h] >= target) {
      if (h == 0) {
        out.effective_diameter = 0;
      } else {
        const double prev = out.neighborhood[h - 1];
        const double need = target - prev;
        const double gain = out.neighborhood[h] - prev;
        out.effective_diameter =
            static_cast<double>(h - 1) + (gain > 0 ? need / gain : 1.0);
      }
      break;
    }
  }
  return out;
}

}  // namespace

Result<AnfResult> ApproxNeighborhoodFunction(const UndirectedGraph& g,
                                             int64_t max_h, int64_t k,
                                             uint64_t seed) {
  if (max_h < 0 || k < 1 || k > 4096) {
    return Status::InvalidArgument("ANF needs max_h >= 0 and k in [1, 4096]");
  }
  const int64_t n = g.NumNodes();
  if (n == 0) {
    AnfResult out;
    out.neighborhood.assign(max_h + 1, 0.0);
    return out;
  }
  trace::Span span("Algo/Anf");
  span.AddAttr("nodes", n);
  span.AddAttr("edges", g.NumEdges());
  span.AddAttr("max_h", max_h);
  span.AddAttr("sketches", k);
  return AnfKernel(*AlgoView::Of(g), max_h, k, seed);
}

}  // namespace ringo
