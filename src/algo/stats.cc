#include "algo/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "algo/connectivity.h"
#include "storage/flat_hash_map.h"

namespace ringo {

namespace {

DegreeHistogram HistogramOf(const std::vector<int64_t>& degrees) {
  FlatHashMap<int64_t, int64_t> counts;
  for (int64_t d : degrees) ++counts.GetOrInsert(d);
  DegreeHistogram hist;
  hist.reserve(counts.size());
  counts.ForEach([&](const int64_t& d, const int64_t& c) {
    hist.emplace_back(d, c);
  });
  std::sort(hist.begin(), hist.end());
  return hist;
}

}  // namespace

DegreeHistogram OutDegreeHistogram(const DirectedGraph& g) {
  std::vector<int64_t> deg;
  deg.reserve(g.NumNodes());
  g.ForEachNode([&](NodeId, const DirectedGraph::NodeView& nd) {
    deg.push_back(static_cast<int64_t>(nd.out.size()));
  });
  return HistogramOf(deg);
}

DegreeHistogram InDegreeHistogram(const DirectedGraph& g) {
  std::vector<int64_t> deg;
  deg.reserve(g.NumNodes());
  g.ForEachNode([&](NodeId, const DirectedGraph::NodeView& nd) {
    deg.push_back(static_cast<int64_t>(nd.in.size()));
  });
  return HistogramOf(deg);
}

DegreeHistogram DegreeHistogram_(const UndirectedGraph& g) {
  std::vector<int64_t> deg;
  deg.reserve(g.NumNodes());
  g.ForEachNode([&](NodeId, const UndirectedGraph::NodeView& nd) {
    deg.push_back(static_cast<int64_t>(nd.nbrs.size()));
  });
  return HistogramOf(deg);
}

double Reciprocity(const DirectedGraph& g) {
  int64_t non_loop = 0, reciprocated = 0;
  g.ForEachEdge([&](NodeId u, NodeId v) {
    if (u == v) return;
    ++non_loop;
    if (g.HasEdge(v, u)) ++reciprocated;
  });
  return non_loop > 0
             ? static_cast<double>(reciprocated) / static_cast<double>(non_loop)
             : 0.0;
}

double DegreeAssortativity(const UndirectedGraph& g) {
  // Pearson correlation over edge endpoint (remaining) degrees; each
  // undirected edge contributes both orientations, the standard convention.
  double sum_x = 0, sum_y = 0, sum_xy = 0, sum_x2 = 0, sum_y2 = 0;
  int64_t m2 = 0;
  g.ForEachEdge([&](NodeId u, NodeId v) {
    if (u == v) return;
    const double du = static_cast<double>(g.Degree(u));
    const double dv = static_cast<double>(g.Degree(v));
    // Both orientations.
    sum_x += du + dv;
    sum_y += dv + du;
    sum_xy += 2 * du * dv;
    sum_x2 += du * du + dv * dv;
    sum_y2 += dv * dv + du * du;
    m2 += 2;
  });
  if (m2 == 0) return 0.0;
  const double n = static_cast<double>(m2);
  const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
  const double var_x = sum_x2 / n - (sum_x / n) * (sum_x / n);
  const double var_y = sum_y2 / n - (sum_y / n) * (sum_y / n);
  const double denom = std::sqrt(var_x * var_y);
  return denom > 1e-15 ? cov / denom : 0.0;
}

double Density(const DirectedGraph& g) {
  const double n = static_cast<double>(g.NumNodes());
  if (n < 2) return 0.0;
  return static_cast<double>(g.NumEdges() - CountSelfLoops(g)) / (n * (n - 1));
}

double Density(const UndirectedGraph& g) {
  const double n = static_cast<double>(g.NumNodes());
  if (n < 2) return 0.0;
  return 2.0 * static_cast<double>(g.NumEdges() - CountSelfLoops(g)) /
         (n * (n - 1));
}

int64_t CountSelfLoops(const DirectedGraph& g) {
  int64_t loops = 0;
  g.ForEachNode([&](NodeId u, const DirectedGraph::NodeView& nd) {
    loops += std::binary_search(nd.out.begin(), nd.out.end(), u) ? 1 : 0;
  });
  return loops;
}

int64_t CountSelfLoops(const UndirectedGraph& g) {
  int64_t loops = 0;
  g.ForEachNode([&](NodeId u, const UndirectedGraph::NodeView& nd) {
    loops += std::binary_search(nd.nbrs.begin(), nd.nbrs.end(), u) ? 1 : 0;
  });
  return loops;
}

GraphSummary Summarize(const DirectedGraph& g) {
  GraphSummary s;
  s.nodes = g.NumNodes();
  s.edges = g.NumEdges();
  s.self_loops = CountSelfLoops(g);
  g.ForEachNode([&](NodeId, const DirectedGraph::NodeView& nd) {
    const int64_t out = static_cast<int64_t>(nd.out.size());
    const int64_t in = static_cast<int64_t>(nd.in.size());
    s.max_out_degree = std::max(s.max_out_degree, out);
    s.max_in_degree = std::max(s.max_in_degree, in);
    if (out + in == 0) ++s.zero_deg_nodes;
  });
  s.avg_degree = s.nodes > 0
                     ? static_cast<double>(s.edges) / static_cast<double>(s.nodes)
                     : 0.0;
  s.density = Density(g);
  s.reciprocity = Reciprocity(g);
  if (s.nodes > 0) {
    const auto wcc_sizes = ComponentSizes(WeaklyConnectedComponents(g));
    s.wcc_count = static_cast<int64_t>(wcc_sizes.size());
    s.max_wcc_size = *std::max_element(wcc_sizes.begin(), wcc_sizes.end());
    const auto scc_sizes = ComponentSizes(StronglyConnectedComponents(g));
    s.scc_count = static_cast<int64_t>(scc_sizes.size());
    s.max_scc_size = *std::max_element(scc_sizes.begin(), scc_sizes.end());
  }
  return s;
}

std::string SummaryToString(const GraphSummary& s) {
  std::ostringstream os;
  os << "nodes:            " << s.nodes << "\n"
     << "edges:            " << s.edges << "\n"
     << "self loops:       " << s.self_loops << "\n"
     << "isolated nodes:   " << s.zero_deg_nodes << "\n"
     << "avg out-degree:   " << s.avg_degree << "\n"
     << "max out-degree:   " << s.max_out_degree << "\n"
     << "max in-degree:    " << s.max_in_degree << "\n"
     << "density:          " << s.density << "\n"
     << "reciprocity:      " << s.reciprocity << "\n"
     << "WCCs:             " << s.wcc_count << " (largest " << s.max_wcc_size
     << ")\n"
     << "SCCs:             " << s.scc_count << " (largest " << s.max_scc_size
     << ")\n";
  return os.str();
}

}  // namespace ringo
