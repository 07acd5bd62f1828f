// Graph persistence: the SNAP-style text edge-list format the benchmark
// datasets ship in (one "src<TAB>dst" line per edge, '#' comments), plus a
// compact binary snapshot format for fast reloads in interactive sessions
// (§4.2's demo pre-loads datasets this way).
#ifndef RINGO_GRAPH_GRAPH_IO_H_
#define RINGO_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/directed_graph.h"
#include "util/result.h"

namespace ringo {

// Text edge list, SNAP-compatible with one extension. Format:
//   * edge lines "src dst" tokenized on any run of spaces/tabs;
//   * lines starting with '#' and blank lines are comments — except
//     "# Node: <id>" marker lines, which carry isolated (degree-0) nodes
//     so the text round-trip preserves them. SaveEdgeList writes one
//     marker per isolated node; LoadEdgeList parses them back and still
//     accepts files without the section (plain SNAP downloads).
// LoadEdgeList returns Status::Corruption with the 1-based line number
// for malformed edge or marker lines (wrong field count, unparsable ids)
// instead of skipping them.
Status SaveEdgeList(const DirectedGraph& g, const std::string& path);
Result<DirectedGraph> LoadEdgeList(const std::string& path);

// Binary snapshot: magic + node/edge counts + per-node id and sorted
// out-adjacency, nodes in ascending id order. Restores the exact structure
// including isolated nodes. The format is little-endian and versioned.
// Loading returns IOError for foreign or truncated files, for node or edge
// counts (header or block) larger than the rest of the file can hold —
// checked before anything is sized by them — for node blocks out of
// ascending id order (so also duplicate ids), for runs that are not
// strictly ascending (a repeated neighbour would be a parallel edge), and
// for edges to unknown nodes. The loader writes the runs straight into the
// graph's arenas (graph/adjacency_core.h).
Status SaveGraphBinary(const DirectedGraph& g, const std::string& path);
Result<DirectedGraph> LoadGraphBinary(const std::string& path);

}  // namespace ringo

#endif  // RINGO_GRAPH_GRAPH_IO_H_
