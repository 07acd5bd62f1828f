#include "algo/triad_census.h"

#include <algorithm>

#include "algo/node_index.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace ringo {

const char* TriadTypeName(TriadType t) {
  switch (t) {
    case TriadType::k003: return "003";
    case TriadType::k012: return "012";
    case TriadType::k102: return "102";
    case TriadType::k021D: return "021D";
    case TriadType::k021U: return "021U";
    case TriadType::k021C: return "021C";
    case TriadType::k111D: return "111D";
    case TriadType::k111U: return "111U";
    case TriadType::k030T: return "030T";
    case TriadType::k030C: return "030C";
    case TriadType::k201: return "201";
    case TriadType::k120D: return "120D";
    case TriadType::k120U: return "120U";
    case TriadType::k120C: return "120C";
    case TriadType::k210: return "210";
    case TriadType::k300: return "300";
  }
  return "?";
}

TriadType ClassifyTriadCode(int code) {
  const bool uv = code & 1, vu = code & 2, uw = code & 4, wu = code & 8,
             vw = code & 16, wv = code & 32;
  // Dyad states: 0 = null, 1 = asymmetric, 2 = mutual.
  auto dyad = [](bool a, bool b) { return (a && b) ? 2 : (a || b) ? 1 : 0; };
  const int d_uv = dyad(uv, vu), d_uw = dyad(uw, wu), d_vw = dyad(vw, wv);
  int mutual = 0, asym = 0;
  for (int d : {d_uv, d_uw, d_vw}) {
    if (d == 2) ++mutual;
    if (d == 1) ++asym;
  }

  // Per-node out/in degrees restricted to the triple.
  const int out_u = uv + uw, out_v = vu + vw, out_w = wu + wv;
  const int in_u = vu + wu, in_v = uv + wv, in_w = uw + vw;

  switch (mutual * 10 + asym) {
    case 0: return TriadType::k003;
    case 1: return TriadType::k012;
    case 10: return TriadType::k102;
    case 2: {  // 021: two asymmetric arcs.
      // Same tail → D (diverging), same head → U (converging), else chain.
      if (out_u == 2 || out_v == 2 || out_w == 2) return TriadType::k021D;
      if (in_u == 2 || in_v == 2 || in_w == 2) return TriadType::k021U;
      return TriadType::k021C;
    }
    case 11: {  // 111: one mutual dyad + one arc.
      // The third node (outside the dyad) either sends the arc into the
      // dyad (D) or receives it (U).
      int third;  // 0=u,1=v,2=w — the node not in the mutual dyad.
      if (d_uv == 2) third = 2;
      else if (d_uw == 2) third = 1;
      else third = 0;
      const int third_out = third == 0 ? out_u : third == 1 ? out_v : out_w;
      return third_out == 1 ? TriadType::k111D : TriadType::k111U;
    }
    case 3: {  // 030: three asymmetric arcs.
      // Cyclic iff every node has out-degree exactly 1.
      return (out_u == 1 && out_v == 1 && out_w == 1) ? TriadType::k030C
                                                      : TriadType::k030T;
    }
    case 20: return TriadType::k201;
    case 12: {  // 120: one mutual dyad + two arcs.
      int third;
      if (d_uv == 2) third = 2;
      else if (d_uw == 2) third = 1;
      else third = 0;
      const int third_out = third == 0 ? out_u : third == 1 ? out_v : out_w;
      if (third_out == 2) return TriadType::k120D;  // c→a, c→b.
      if (third_out == 0) return TriadType::k120U;  // a→c, b→c.
      return TriadType::k120C;
    }
    case 21: return TriadType::k210;
    case 30: return TriadType::k300;
  }
  RINGO_LOG(Fatal) << "unreachable triad code " << code;
  return TriadType::k003;
}

std::array<int64_t, kNumTriadTypes> TriadCensus(const DirectedGraph& g) {
  std::array<int64_t, kNumTriadTypes> census{};
  const NodeIndex ni = NodeIndex::FromGraph(g);
  const int64_t n = ni.size();
  RINGO_CHECK_LE(n, 3000000) << "TriadCensus: C(n,3) would overflow";
  if (n < 3) return census;

  // Dense out-sets and linked-neighbor sets (any direction), sorted,
  // self-loops dropped.
  std::vector<std::vector<int64_t>> out(n), nbr(n);
  ParallelForDynamic(0, n, [&](int64_t i) {
    const auto nd = g.GetNode(ni.IdOf(i));
    for (NodeId v : nd->out) {
      const int64_t j = ni.IndexOf(v);
      if (j != i) out[i].push_back(j);
    }
    std::sort(out[i].begin(), out[i].end());
    nbr[i].reserve(nd->out.size() + nd->in.size());
    for (NodeId v : nd->out) {
      const int64_t j = ni.IndexOf(v);
      if (j != i) nbr[i].push_back(j);
    }
    for (NodeId v : nd->in) {
      const int64_t j = ni.IndexOf(v);
      if (j != i) nbr[i].push_back(j);
    }
    std::sort(nbr[i].begin(), nbr[i].end());
    nbr[i].erase(std::unique(nbr[i].begin(), nbr[i].end()), nbr[i].end());
  });

  auto has_arc = [&](int64_t a, int64_t b) {
    return std::binary_search(out[a].begin(), out[a].end(), b);
  };
  auto linked = [&](int64_t a, int64_t b) {
    return std::binary_search(nbr[a].begin(), nbr[a].end(), b);
  };
  auto code_of = [&](int64_t u, int64_t v, int64_t w) {
    return (has_arc(u, v) ? 1 : 0) | (has_arc(v, u) ? 2 : 0) |
           (has_arc(u, w) ? 4 : 0) | (has_arc(w, u) ? 8 : 0) |
           (has_arc(v, w) ? 16 : 0) | (has_arc(w, v) ? 32 : 0);
  };

  // Batagelj–Mrvar: every triple with >= 1 linked pair is counted exactly
  // once, from its lexicographically first linked pair.
  const int threads = NumThreads();
  std::vector<std::array<int64_t, kNumTriadTypes>> partial(
      threads, std::array<int64_t, kNumTriadTypes>{});
#pragma omp parallel num_threads(threads)
  {
    const int t = omp_get_thread_num();
    std::vector<int64_t> s;  // N(u) ∪ N(v) \ {u, v}.
#pragma omp for schedule(dynamic, 64)
    for (int64_t u = 0; u < n; ++u) {
      for (int64_t v : nbr[u]) {
        if (u >= v) continue;
        s.clear();
        std::set_union(nbr[u].begin(), nbr[u].end(), nbr[v].begin(),
                       nbr[v].end(), std::back_inserter(s));
        int64_t s_size = 0;
        for (int64_t w : s) {
          if (w == u || w == v) continue;
          ++s_size;
          if (v < w || (u < w && w < v && !linked(u, w))) {
            ++partial[t][static_cast<int>(ClassifyTriadCode(code_of(u, v, w)))];
          }
        }
        // Triples whose third node is isolated from {u, v}.
        const TriadType dyad_type =
            (has_arc(u, v) && has_arc(v, u)) ? TriadType::k102
                                             : TriadType::k012;
        partial[t][static_cast<int>(dyad_type)] += n - s_size - 2;
      }
    }
  }
  for (int t = 0; t < threads; ++t) {
    for (int k = 0; k < kNumTriadTypes; ++k) census[k] += partial[t][k];
  }

  // Everything else is the empty triad.
  const int64_t total = n * (n - 1) * (n - 2) / 6;
  int64_t nonempty = 0;
  for (int k = 1; k < kNumTriadTypes; ++k) nonempty += census[k];
  census[static_cast<int>(TriadType::k003)] = total - nonempty;
  return census;
}

}  // namespace ringo
