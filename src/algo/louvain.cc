#include "algo/louvain.h"

#include <algorithm>
#include <numeric>

#include "algo/algo_view.h"
#include "algo/community.h"
#include "algo/node_index.h"
#include "graph/graph_defs.h"
#include "storage/flat_hash_map.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Weighted working graph for one Louvain level. Self-loops carry the
// intra-community weight of the collapsed communities; by convention a
// self-loop of weight w contributes 2w to its node's weighted degree.
struct LevelGraph {
  std::vector<std::vector<std::pair<int64_t, double>>> adj;  // (nbr, w).
  std::vector<double> self_weight;
  std::vector<double> k;  // Weighted degree (self-loops doubled).
  double total_weight = 0;  // m = sum of edge weights (each edge once).

  int64_t size() const { return static_cast<int64_t>(adj.size()); }
};

// One level of local moving; fills `comm` (dense community per node) and
// returns the modularity gain achieved.
double LocalMove(const LevelGraph& lg, const LouvainConfig& config,
                 uint64_t level_seed, std::vector<int64_t>* comm) {
  const int64_t n = lg.size();
  comm->resize(n);
  std::iota(comm->begin(), comm->end(), 0);
  std::vector<double> sum_tot(lg.k);  // Total weighted degree per community.

  std::vector<int64_t> visit(n);
  std::iota(visit.begin(), visit.end(), 0);
  Rng rng(level_seed);

  const double m2 = 2.0 * lg.total_weight;
  if (m2 <= 0) return 0;

  double total_gain = 0;
  FlatHashMap<int64_t, double> weight_to;  // Community → edge weight from i.
  for (int pass = 0; pass < config.max_passes_per_level; ++pass) {
    // Shuffle the visiting order.
    for (int64_t i = n - 1; i > 0; --i) {
      std::swap(visit[i], visit[rng.UniformInt(0, i)]);
    }
    double pass_gain = 0;
    for (int64_t i : visit) {
      const int64_t old_c = (*comm)[i];
      weight_to.Clear();
      for (const auto& [j, w] : lg.adj[i]) {
        if (j != i) weight_to.GetOrInsert((*comm)[j]) += w;
      }
      // Remove i from its community.
      sum_tot[old_c] -= lg.k[i];
      const double w_old = [&] {
        const double* w = weight_to.Find(old_c);
        return w == nullptr ? 0.0 : *w;
      }();

      // Best target community by modularity gain
      //   ΔQ(c) ∝ w_i→c − sum_tot[c] · k_i / 2m.
      int64_t best_c = old_c;
      double best_gain = w_old - sum_tot[old_c] * lg.k[i] / m2;
      weight_to.ForEach([&](const int64_t& c, const double& w) {
        if (c == old_c) return;
        const double gain = w - sum_tot[c] * lg.k[i] / m2;
        if (gain > best_gain + 1e-12 ||
            (gain > best_gain - 1e-12 && c < best_c)) {
          best_gain = gain;
          best_c = c;
        }
      });

      sum_tot[best_c] += lg.k[i];
      (*comm)[i] = best_c;
      if (best_c != old_c) {
        pass_gain += 2.0 * (best_gain -
                            (w_old - sum_tot[old_c] * lg.k[i] / m2)) /
                     m2;
      }
    }
    total_gain += pass_gain;
    if (pass_gain < config.min_gain) break;
  }
  return total_gain;
}

// Collapses communities into a smaller weighted graph; `comm` is
// renumbered densely and returned as the node→super-node map.
LevelGraph Aggregate(const LevelGraph& lg, std::vector<int64_t>* comm) {
  // Dense renumbering.
  FlatHashMap<int64_t, int64_t> dense;
  for (int64_t i = 0; i < lg.size(); ++i) {
    (*comm)[i] = *dense.Insert((*comm)[i], dense.size()).first;
  }
  const int64_t nc = dense.size();

  LevelGraph out;
  out.adj.resize(nc);
  out.self_weight.assign(nc, 0);
  out.k.assign(nc, 0);
  out.total_weight = lg.total_weight;

  // Sum edge weights between community pairs.
  FlatHashMap<Edge, double, PairHash> agg;
  for (int64_t i = 0; i < lg.size(); ++i) {
    const int64_t ci = (*comm)[i];
    for (const auto& [j, w] : lg.adj[i]) {
      if (j == i) {
        out.self_weight[ci] += w;  // Self-loop weight carries over once.
        continue;
      }
      const int64_t cj = (*comm)[j];
      if (ci == cj) {
        // An intra-community edge is visited from both endpoints; half the
        // weight per visit keeps the collapsed self-loop weight equal to
        // the total intra weight.
        out.self_weight[ci] += w / 2.0;
      } else if (ci < cj) {
        // Each inter-community edge is also visited twice; accumulating
        // only from the (ci < cj) side counts it exactly once.
        agg.GetOrInsert({ci, cj}) += w;
      }
    }
  }
  agg.ForEach([&](const Edge& e, const double& w) {
    out.adj[e.first].push_back({e.second, w});
    out.adj[e.second].push_back({e.first, w});
  });
  for (int64_t c = 0; c < nc; ++c) {
    if (out.self_weight[c] > 0) {
      out.adj[c].push_back({c, out.self_weight[c]});
    }
    double k = 2.0 * out.self_weight[c];
    for (const auto& [j, w] : out.adj[c]) {
      if (j != c) k += w;
    }
    out.k[c] = k;
  }
  return out;
}

// Level-0 graph with unit weights, built from the pinned snapshot's
// ascending neighbor runs (dense indices, no per-edge hash probe).
void BuildLevel0(const AlgoView& view, LevelGraph* lg) {
  const int64_t n = view.NumNodes();
  lg->adj.resize(n);
  lg->self_weight.assign(n, 0);
  lg->k.assign(n, 0);
  for (int64_t i = 0; i < n; ++i) {
    for (const int64_t j : view.Out(i)) {
      if (j == i) {
        lg->adj[i].push_back({i, 1.0});
        lg->self_weight[i] += 1.0;
        lg->k[i] += 2.0;
        lg->total_weight += 1.0;
      } else {
        lg->adj[i].push_back({j, 1.0});
        lg->k[i] += 1.0;
        if (i < j) lg->total_weight += 1.0;
      }
    }
  }
}

}  // namespace

Result<LouvainResult> Louvain(const UndirectedGraph& g,
                              const LouvainConfig& config) {
  if (config.max_levels < 1 || config.max_passes_per_level < 1) {
    return Status::InvalidArgument("Louvain needs >= 1 level and pass");
  }
  const int64_t n = g.NumNodes();
  LouvainResult result;
  if (n == 0) return result;
  trace::Span span("Algo/Louvain");
  span.AddAttr("nodes", n);
  span.AddAttr("edges", g.NumEdges());

  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const NodeIndex& ni = view->node_index();  // Pinned by `view`.
  LevelGraph lg;
  BuildLevel0(*view, &lg);

  // node → current community through all levels.
  std::vector<int64_t> node_comm(n);
  std::iota(node_comm.begin(), node_comm.end(), 0);

  for (int level = 0; level < config.max_levels; ++level) {
    std::vector<int64_t> comm;
    const double gain =
        LocalMove(lg, config, config.seed + 7919 * level, &comm);
    // Map original nodes through this level's assignment (comm is dense
    // after Aggregate, so apply it after renumbering inside Aggregate).
    const int64_t before = lg.size();
    lg = Aggregate(lg, &comm);
    for (int64_t i = 0; i < n; ++i) {
      node_comm[i] = comm[node_comm[i]];
    }
    ++result.levels;
    if (gain < config.min_gain || lg.size() == before) break;
  }

  // Final labels, renumbered by first occurrence in index order.
  FlatHashMap<int64_t, int64_t> dense;
  result.communities.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = *dense.Insert(node_comm[i], dense.size()).first;
    result.communities.emplace_back(ni.IdOf(i), c);
  }
  result.modularity = Modularity(g, result.communities);
  return result;
}

}  // namespace ringo
