#include "algo/cascade.h"

#include <algorithm>

#include "storage/flat_hash_map.h"
#include "util/rng.h"

namespace ringo {

namespace {

Status ValidateSeeds(const DirectedGraph& g, const std::vector<NodeId>& seeds) {
  if (seeds.empty()) {
    return Status::InvalidArgument("need at least one seed node");
  }
  for (NodeId s : seeds) {
    if (!g.HasNode(s)) {
      return Status::NotFound("seed node " + std::to_string(s) +
                              " is not in the graph");
    }
  }
  return Status::OK();
}

Status ValidateProbability(double p, const char* name) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(std::string(name) + " must be in [0, 1]");
  }
  return Status::OK();
}

}  // namespace

Result<CascadeResult> IndependentCascade(const DirectedGraph& g,
                                         const std::vector<NodeId>& seeds,
                                         double default_p, uint64_t seed,
                                         const EdgeWeights* weights) {
  RINGO_RETURN_NOT_OK(ValidateSeeds(g, seeds));
  RINGO_RETURN_NOT_OK(ValidateProbability(default_p, "activation probability"));

  Rng rng(seed);
  FlatHashMap<NodeId, int64_t> round_of;
  std::vector<NodeId> frontier;
  for (NodeId s : seeds) {
    if (round_of.Insert(s, 0).second) frontier.push_back(s);
  }

  CascadeResult out;
  int64_t round = 0;
  while (!frontier.empty()) {
    ++round;
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      const auto node = g.GetNode(u);
      for (NodeId v : node->out) {
        if (round_of.Contains(v)) continue;
        double p = default_p;
        if (weights != nullptr) {
          p = std::clamp(weights->Get(u, v, default_p), 0.0, 1.0);
        }
        if (rng.Bernoulli(p)) {
          round_of.Insert(v, round);
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  out.rounds = round - 1;
  out.activation_round.reserve(round_of.size());
  round_of.ForEach([&](NodeId id, const int64_t& r) {
    out.activation_round.emplace_back(id, r);
  });
  std::sort(out.activation_round.begin(), out.activation_round.end());
  return out;
}

Result<double> EstimateInfluence(const DirectedGraph& g,
                                 const std::vector<NodeId>& seeds,
                                 double default_p, int64_t trials,
                                 uint64_t seed) {
  if (trials < 1) {
    return Status::InvalidArgument("need at least one trial");
  }
  RINGO_RETURN_NOT_OK(ValidateSeeds(g, seeds));
  RINGO_RETURN_NOT_OK(ValidateProbability(default_p, "activation probability"));
  double total = 0;
  for (int64_t t = 0; t < trials; ++t) {
    RINGO_ASSIGN_OR_RETURN(
        const CascadeResult r,
        IndependentCascade(g, seeds, default_p, seed + 0x9E3779B9ULL * t));
    total += static_cast<double>(r.TotalActivated());
  }
  return total / static_cast<double>(trials);
}

Result<std::vector<NodeId>> GreedySeedSelection(
    const DirectedGraph& g, const std::vector<NodeId>& candidates, int64_t k,
    double default_p, int64_t trials, uint64_t seed) {
  if (k < 1 || k > static_cast<int64_t>(candidates.size())) {
    return Status::InvalidArgument("k must be in [1, |candidates|]");
  }
  std::vector<NodeId> chosen;
  FlatHashSet<NodeId> used;
  for (int64_t pick = 0; pick < k; ++pick) {
    NodeId best = -1;
    double best_gain = -1;
    for (NodeId c : candidates) {
      if (used.Contains(c)) continue;
      std::vector<NodeId> trial_seeds = chosen;
      trial_seeds.push_back(c);
      // Same RNG stream per pick keeps the comparison fair across
      // candidates (common random numbers).
      RINGO_ASSIGN_OR_RETURN(
          const double influence,
          EstimateInfluence(g, trial_seeds, default_p, trials,
                            seed + 1315423911ULL * pick));
      if (influence > best_gain) {
        best_gain = influence;
        best = c;
      }
    }
    chosen.push_back(best);
    used.Insert(best);
  }
  return chosen;
}

Result<SirResult> SirSimulation(const DirectedGraph& g,
                                const std::vector<NodeId>& seeds, double beta,
                                double gamma, uint64_t seed,
                                int64_t max_steps) {
  RINGO_RETURN_NOT_OK(ValidateSeeds(g, seeds));
  RINGO_RETURN_NOT_OK(ValidateProbability(beta, "beta"));
  RINGO_RETURN_NOT_OK(ValidateProbability(gamma, "gamma"));
  if (gamma <= 0.0) {
    return Status::InvalidArgument(
        "gamma must be > 0 or the epidemic may never terminate");
  }

  Rng rng(seed);
  enum : int64_t { kSusceptible = 0, kInfected = 1, kRecovered = 2 };
  FlatHashMap<NodeId, int64_t> state;
  std::vector<NodeId> infected;
  for (NodeId s : seeds) {
    if (state.Insert(s, kInfected).second) infected.push_back(s);
  }

  SirResult out;
  out.total_infected = static_cast<int64_t>(infected.size());
  out.peak_infected = out.total_infected;
  while (!infected.empty() && out.steps < max_steps) {
    ++out.steps;
    std::vector<NodeId> still_infected;
    std::vector<NodeId> fresh;
    for (NodeId u : infected) {
      const auto node = g.GetNode(u);
      for (NodeId v : node->out) {
        int64_t& sv = state.GetOrInsert(v);  // Absent == susceptible.
        if (sv == kSusceptible && rng.Bernoulli(beta)) {
          sv = kInfected;
          fresh.push_back(v);
          ++out.total_infected;
        }
      }
      if (rng.Bernoulli(gamma)) {
        *state.Find(u) = kRecovered;
      } else {
        still_infected.push_back(u);
      }
    }
    infected = std::move(still_infected);
    infected.insert(infected.end(), fresh.begin(), fresh.end());
    out.peak_infected =
        std::max(out.peak_infected, static_cast<int64_t>(infected.size()));
  }

  // Emit the per-node outcome over all graph nodes.
  out.ever_infected.reserve(g.NumNodes());
  g.ForEachNode([&](NodeId id, const DirectedGraph::NodeView&) {
    const int64_t* s = state.Find(id);
    out.ever_infected.emplace_back(
        id, (s != nullptr && *s != kSusceptible) ? 1 : 0);
  });
  std::sort(out.ever_infected.begin(), out.ever_infected.end());
  return out;
}

}  // namespace ringo
