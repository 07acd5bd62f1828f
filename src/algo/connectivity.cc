#include "algo/connectivity.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Lock-free union-find over dense indices whose roots are component minima
// (DESIGN.md §19). Link hooks the larger of two roots under the smaller
// with a CAS, so a parent never exceeds its child and the root of every
// set is its smallest index; Find halves the path by CAS. Parents are
// indices only, so relaxed order suffices, and every phase ends at a
// ParallelFor join.
class MinRootForest {
 public:
  explicit MinRootForest(int64_t n) : parent_(n) {
    ParallelFor(0, n, [&](int64_t i) {
      parent_[i].store(i, std::memory_order_relaxed);
    });
  }

  int64_t Find(int64_t x) {
    while (true) {
      int64_t p = parent_[x].load(std::memory_order_relaxed);
      const int64_t gp = parent_[p].load(std::memory_order_relaxed);
      if (p == gp) return p;
      parent_[x].compare_exchange_weak(p, gp, std::memory_order_relaxed);
      x = gp;
    }
  }

  void Link(int64_t u, int64_t v) {
    int64_t a = Find(u), b = Find(v);
    while (a != b) {
      const int64_t high = std::max(a, b), low = std::min(a, b);
      int64_t expected = high;
      if (parent_[high].compare_exchange_strong(expected, low,
                                                std::memory_order_relaxed)) {
        return;
      }
      a = Find(high);  // `high` was hooked meanwhile; retry from its root.
      b = Find(low);
    }
  }

 private:
  std::vector<std::atomic<int64_t>> parent_;
};

// Afforest (Sutton, Ben-Nun & Barak, IPDPS 2018): link every node to its
// first two out-neighbours, take the most frequent root of a fixed sample
// as the large component, and finish only the nodes outside it — the rest
// of their out-runs, plus their whole in-runs on a directed view, which
// catch arcs from the large component into an outside node. An arc with
// both ends in the large component adds nothing, so skipping its nodes is
// safe however the links interleave. Labels number the roots in ascending
// index order, an exclusive prefix sum of root flags; roots are minima, so
// that is Relabel's first-occurrence numbering.
ComponentLabels ComponentsOf(const AlgoView& view) {
  constexpr int64_t kSampledNeighbours = 2;
  constexpr int64_t kSamples = 1024;
  const int64_t n = view.NumNodes();
  MinRootForest forest(n);
  // One neighbour per round, as Afforest does: the second round's links
  // start from the trees the first one settled, which measured faster at
  // 4 threads than linking both neighbours in one pass.
  for (int64_t r = 0; r < kSampledNeighbours; ++r) {
    ParallelFor(0, n, [&](int64_t u) {
      const NbrSpan out = view.Out(u);
      if (r < static_cast<int64_t>(out.size())) forest.Link(u, out[r]);
    });
  }

  // The most frequent root among evenly spaced nodes (ties: the smallest).
  std::vector<int64_t> sample(std::min(n, kSamples));
  const int64_t s = static_cast<int64_t>(sample.size());
  for (int64_t i = 0; i < s; ++i) sample[i] = forest.Find(i * n / s);
  std::sort(sample.begin(), sample.end());
  int64_t large = -1, best = 0;
  for (int64_t i = 0, j = 0; i < s; i = j) {
    while (j < s && sample[j] == sample[i]) ++j;
    if (j - i > best) {
      best = j - i;
      large = sample[i];
    }
  }

  const bool directed = view.directed();
  ParallelForDynamic(0, n, [&](int64_t u) {
    if (forest.Find(u) == large) return;
    const NbrSpan out = view.Out(u);
    for (size_t r = kSampledNeighbours; r < out.size(); ++r) {
      forest.Link(u, out[r]);
    }
    if (directed) {
      for (const int64_t v : view.In(u)) forest.Link(u, v);
    }
  });

  std::vector<int64_t> root(n), rank(n);
  ParallelFor(0, n, [&](int64_t i) {
    root[i] = forest.Find(i);
    rank[i] = root[i] == i;
  });
  ExclusivePrefixSum(rank);
  ComponentLabels labels(n);
  ParallelFor(0, n, [&](int64_t i) {
    labels[i] = {view.IdOf(i), rank[root[i]]};
  });
  return labels;
}

// Renumbers per-index labels densely by first occurrence (index order =
// ascending node id, so component 0 holds the smallest id).
ComponentLabels Relabel(const NodeIndex& ni, std::vector<int64_t>& raw) {
  const int64_t n = ni.size();
  FlatHashMap<int64_t, int64_t> dense;
  std::vector<int64_t> labels(n);
  for (int64_t i = 0; i < n; ++i) {
    labels[i] = *dense.Insert(raw[i], dense.size()).first;
  }
  return ni.Zip(labels);
}

}  // namespace

ComponentLabels WeaklyConnectedComponents(const DirectedGraph& g) {
  trace::Span span("Algo/WeaklyConnectedComponents");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  return ComponentsOf(*AlgoView::Of(g));
}

ComponentLabels ConnectedComponents(const UndirectedGraph& g) {
  trace::Span span("Algo/ConnectedComponents");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  return ComponentsOf(*AlgoView::Of(g));
}

ComponentLabels StronglyConnectedComponents(const DirectedGraph& g) {
  trace::Span span("Algo/StronglyConnectedComponents");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const int64_t n = view->NumNodes();
  // Tarjan walks the view's out-arc spans directly (dense indices).
  const AlgoView& out = *view;

  // Iterative Tarjan. An explicit frame stack replaces recursion so graphs
  // with multi-million-node chains don't blow the C++ stack.
  constexpr int64_t kUnvisited = -1;
  std::vector<int64_t> low(n, kUnvisited), disc(n, kUnvisited);
  std::vector<int64_t> scc(n, kUnvisited);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<int64_t> stack;           // Tarjan's node stack.
  std::vector<std::pair<int64_t, size_t>> frames;  // (node, next-child).
  int64_t timer = 0, components = 0;
  // Adjacency of the frame currently on top, refreshed when the top
  // changes: on a compressed base this decodes each frame's run once per
  // top-change instead of once per child access.
  NbrSpan run;
  int64_t run_node = -1;

  for (int64_t root = 0; root < n; ++root) {
    if (disc[root] != kUnvisited) continue;
    frames.emplace_back(root, 0);
    while (!frames.empty()) {
      auto& [u, child] = frames.back();
      if (u != run_node) {
        run = out.Out(u);
        run_node = u;
      }
      if (child == 0) {
        disc[u] = low[u] = timer++;
        stack.push_back(u);
        on_stack[u] = 1;
      }
      if (child < run.size()) {
        const int64_t v = run[child++];
        if (disc[v] == kUnvisited) {
          frames.emplace_back(v, 0);
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], disc[v]);
        }
      } else {
        if (low[u] == disc[u]) {
          while (true) {
            const int64_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc[w] = components;
            if (w == u) break;
          }
          ++components;
        }
        const int64_t done = u;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().first] =
              std::min(low[frames.back().first], low[done]);
        }
      }
    }
  }
  return Relabel(view->node_index(), scc);
}

std::vector<int64_t> ComponentSizes(const ComponentLabels& labels) {
  int64_t max_label = -1;
  for (const auto& [id, c] : labels) max_label = std::max(max_label, c);
  std::vector<int64_t> sizes(max_label + 1, 0);
  for (const auto& [id, c] : labels) ++sizes[c];
  return sizes;
}

std::vector<NodeId> LargestComponent(const ComponentLabels& labels) {
  const std::vector<int64_t> sizes = ComponentSizes(labels);
  if (sizes.empty()) return {};
  const int64_t best =
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin();
  std::vector<NodeId> out;
  out.reserve(sizes[best]);
  for (const auto& [id, c] : labels) {
    if (c == best) out.push_back(id);
  }
  return out;
}

bool IsWeaklyConnected(const DirectedGraph& g) {
  if (g.NumNodes() == 0) return true;
  const std::vector<int64_t> sizes =
      ComponentSizes(WeaklyConnectedComponents(g));
  return sizes.size() == 1;
}

bool IsConnected(const UndirectedGraph& g) {
  if (g.NumNodes() == 0) return true;
  return ComponentSizes(ConnectedComponents(g)).size() == 1;
}

}  // namespace ringo
