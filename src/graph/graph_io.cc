#include "graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <vector>

#include "util/parallel.h"
#include "util/string_util.h"

namespace ringo {

namespace {

constexpr char kMagic[8] = {'R', 'N', 'G', 'O', 'G', 'R', 'F', '1'};

template <typename T>
void WritePod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveEdgeList(const DirectedGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << "# Directed graph saved by Ringo\n";
  out << "# Nodes: " << g.NumNodes() << " Edges: " << g.NumEdges() << "\n";
  // Isolated (degree-0) nodes appear on no edge line, so the plain
  // edge-list format would drop them on reload. They are written as
  // "# Node: <id>" marker lines: Ringo's loader parses them back while
  // SNAP-style readers skip them as comments. Nodes with at least one
  // incident edge are recovered from the edge lines themselves.
  const std::vector<NodeId> ids = g.SortedNodeIds();
  for (NodeId u : ids) {
    const auto nd = g.GetNode(u);
    if (nd->out.empty() && nd->in.empty()) {
      out << "# Node: " << u << '\n';
    }
  }
  out << "# SrcNId\tDstNId\n";
  for (NodeId u : ids) {
    const auto nd = g.GetNode(u);
    for (NodeId v : nd->out) {
      out << u << '\t' << v << '\n';
    }
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

Result<DirectedGraph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  DirectedGraph g;
  std::string line;
  int64_t lineno = 0;
  constexpr std::string_view kNodeMarker = "# Node:";
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# Node: <id>" markers carry isolated nodes; other '#' lines are
      // comments (backward compatible with files that lack the section).
      if (StartsWith(line, kNodeMarker)) {
        const auto fields =
            SplitWhitespace(std::string_view(line).substr(kNodeMarker.size()));
        if (fields.size() != 1) {
          return Status::Corruption("line " + std::to_string(lineno) +
                                    ": expected '# Node: <id>'");
        }
        const auto id = ParseInt64(fields[0]);
        if (!id.ok()) {
          return Status::Corruption("line " + std::to_string(lineno) +
                                    ": bad node id '" + std::string(fields[0]) +
                                    "'");
        }
        g.AddNode(id.value());
      }
      continue;
    }
    // Edge lines tokenize on any run of spaces/tabs, like SNAP datasets.
    const auto fields = SplitWhitespace(line);
    if (fields.size() != 2) {
      return Status::Corruption("line " + std::to_string(lineno) +
                                ": expected 'src dst', got " +
                                std::to_string(fields.size()) + " fields");
    }
    const auto src = ParseInt64(fields[0]);
    const auto dst = ParseInt64(fields[1]);
    if (!src.ok() || !dst.ok()) {
      return Status::Corruption("line " + std::to_string(lineno) +
                                ": cannot parse edge '" + line + "'");
    }
    g.AddEdge(src.value(), dst.value());
  }
  return g;
}

Status SaveGraphBinary(const DirectedGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, g.NumNodes());
  WritePod(out, g.NumEdges());
  for (NodeId u : g.SortedNodeIds()) {
    const auto nd = g.GetNode(u);
    WritePod(out, u);
    WritePod(out, static_cast<int64_t>(nd->out.size()));
    out.write(reinterpret_cast<const char*>(nd->out.data()),
              static_cast<std::streamsize>(nd->out.size() * sizeof(NodeId)));
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

Result<DirectedGraph> LoadGraphBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  const int64_t file_bytes = static_cast<int64_t>(in.tellg());
  in.seekg(0);
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(magic), kMagic)) {
    return Status::IOError("'" + path + "' is not a Ringo binary graph");
  }
  int64_t num_nodes = 0, num_edges = 0;
  if (!ReadPod(in, &num_nodes) || !ReadPod(in, &num_edges) || num_nodes < 0 ||
      num_edges < 0) {
    return Status::IOError("corrupt header in '" + path + "'");
  }
  // Every node block is an id and a degree plus one word per out-edge, so
  // counts the rest of the file cannot hold are corrupt. Checked before
  // anything is sized by them; each degree is then bounded by the edges
  // still unread.
  constexpr int64_t kWord = sizeof(int64_t);
  const int64_t left = file_bytes - static_cast<int64_t>(sizeof(kMagic)) -
                       2 * kWord;
  if (num_nodes > left / (2 * kWord) ||
      num_edges > (left - 2 * kWord * num_nodes) / kWord) {
    return Status::IOError("header of '" + path +
                           "' claims more than the file holds");
  }

  SortedRuns<2> runs;
  std::vector<NodeId>& ids = runs.nodes;
  PooledVector<NodeId>& out_arcs = runs.arcs[0];
  PooledVector<int64_t>& out_begin = runs.begin[0];
  ids.resize(num_nodes);
  out_arcs.resize(num_edges);
  out_begin.resize(num_nodes + 1);
  int64_t pos = 0;
  for (int64_t i = 0; i < num_nodes; ++i) {
    int64_t deg = 0;
    if (!ReadPod(in, &ids[i]) || !ReadPod(in, &deg) || deg < 0 ||
        deg > num_edges - pos) {
      return Status::IOError("corrupt node block in '" + path + "'");
    }
    // Blocks come in strictly ascending id order, as SaveGraphBinary
    // writes them; this also rules out duplicate ids.
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return Status::IOError("node ids out of order or repeated in '" +
                             path + "'");
    }
    NodeId* run = out_arcs.data() + pos;
    in.read(reinterpret_cast<char*>(run),
            static_cast<std::streamsize>(deg * kWord));
    if (!in) {
      return Status::IOError("truncated adjacency in '" + path + "'");
    }
    // Strictly ascending: a repeated neighbour would be a parallel edge.
    if (std::adjacent_find(run, run + deg, std::greater_equal<NodeId>()) !=
        run + deg) {
      return Status::IOError("unsorted or repeated adjacency in '" + path +
                             "'");
    }
    out_begin[i] = pos;
    pos += deg;
  }
  out_begin[num_nodes] = pos;
  if (pos != num_edges) {
    return Status::IOError("edge count mismatch in '" + path + "'");
  }

  // In-runs: a counting transpose by target. Sources are visited in
  // ascending order, so every in-run comes out ascending.
  PooledVector<int64_t> target(num_edges);
  ParallelFor(0, num_edges, [&](int64_t j) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), out_arcs[j]);
    target[j] = it != ids.end() && *it == out_arcs[j] ? it - ids.begin() : -1;
  });
  std::vector<int64_t> in_count(num_nodes + 1, 0);
  for (int64_t j = 0; j < num_edges; ++j) {
    if (target[j] < 0) {
      return Status::IOError("edge to unknown node in '" + path + "'");
    }
    ++in_count[target[j]];
  }
  ExclusivePrefixSum(in_count);
  runs.begin[1].assign(in_count.begin(), in_count.end());
  runs.arcs[1].resize(num_edges);
  for (int64_t i = 0; i < num_nodes; ++i) {
    for (int64_t j = out_begin[i]; j < out_begin[i + 1]; ++j) {
      runs.arcs[1][in_count[target[j]]++] = ids[i];
    }
  }
  return DirectedGraph(std::move(runs));
}

}  // namespace ringo
