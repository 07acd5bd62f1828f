#include "algo/random_walk.h"

#include <algorithm>

#include "storage/flat_hash_map.h"
#include "util/rng.h"

namespace ringo {

Result<std::vector<NodeId>> RandomWalk(const DirectedGraph& g, NodeId start,
                                       int64_t length, uint64_t seed) {
  if (!g.HasNode(start)) {
    return Status::NotFound("walk start node " + std::to_string(start) +
                            " is not in the graph");
  }
  Rng rng(seed);
  std::vector<NodeId> walk{start};
  NodeId cur = start;
  for (int64_t i = 0; i < length; ++i) {
    const std::span<const NodeId> out = g.GetNode(cur)->out;
    if (out.empty()) break;
    cur = out[rng.UniformInt(0, static_cast<int64_t>(out.size()) - 1)];
    walk.push_back(cur);
  }
  return walk;
}

Result<NodeValues> RandomWalkScores(const DirectedGraph& g, NodeId seed_node,
                                    int64_t walks, double damping,
                                    uint64_t seed) {
  if (!g.HasNode(seed_node)) {
    return Status::NotFound("seed node " + std::to_string(seed_node) +
                            " is not in the graph");
  }
  if (!(damping >= 0.0 && damping < 1.0)) {
    return Status::InvalidArgument("damping must be in [0, 1)");
  }
  if (walks < 1) {
    return Status::InvalidArgument("need at least one walk");
  }
  Rng rng(seed);
  FlatHashMap<NodeId, int64_t> visits;
  int64_t total = 0;
  for (int64_t k = 0; k < walks; ++k) {
    NodeId cur = seed_node;
    while (true) {
      ++visits.GetOrInsert(cur);
      ++total;
      if (!rng.Bernoulli(damping)) break;  // Teleport back to the seed.
      const std::span<const NodeId> out = g.GetNode(cur)->out;
      if (out.empty()) break;  // Dangling: restart.
      cur = out[rng.UniformInt(0, static_cast<int64_t>(out.size()) - 1)];
    }
  }
  NodeValues scores;
  scores.reserve(visits.size());
  visits.ForEach([&](NodeId id, const int64_t& c) {
    scores.emplace_back(id, static_cast<double>(c) / static_cast<double>(total));
  });
  std::sort(scores.begin(), scores.end());
  return scores;
}

}  // namespace ringo
