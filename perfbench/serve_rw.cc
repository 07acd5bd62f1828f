#include "serve_rw.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "algo/algo_view.h"
#include "core/conversion.h"
#include "gen/graph_gen.h"
#include "layer_sweep.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using ringo::serve::Query;
using ringo::serve::QueryKind;
using ringo::serve::QueryResult;

namespace {

void SleepUntil(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

const char* RunSpanName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBfs: return "serve.run.bfs";
    case QueryKind::kPageRank: return "serve.run.pagerank";
    case QueryKind::kTableTopK: return "serve.run.topk";
    case QueryKind::kScript: return "query.run";
    default: return "serve.run.other";
  }
}

// Records one query as a unit op: the generator's send lag, the engine's
// queue wait and its run time, laid end to end from the due time. The
// future gives no completion time of its own, so the op and its children
// come from the engine's timings and tile it exactly: the op is derived,
// and the attribution check covers only the ops the benchmark times
// itself (the writer's updates here). Queries overlap, so each goes on
// the first trace lane free at its due time.
void TraceQuery(int64_t due_ns, int64_t send_ns, const QueryResult& r,
                std::vector<int64_t>* lane_end) {
  if (!tracer::Enabled()) return;
  const int64_t op = tracer::NewId();
  const int64_t queue_end = send_ns + static_cast<int64_t>(r.queue_ms * 1e6);
  const int64_t run_end = queue_end + static_cast<int64_t>(r.run_ms * 1e6);
  size_t lane = 0;
  while (lane < lane_end->size() && (*lane_end)[lane] > due_ns) ++lane;
  if (lane == lane_end->size()) lane_end->push_back(0);
  (*lane_end)[lane] = run_end;
  const int tid = 1000 + static_cast<int>(lane);
  auto record = [&](const char* name, int64_t start, int64_t end, int64_t id,
                    int64_t parent) {
    tracer::Record({name, start, end, id, parent, op, tid, /*derived=*/true});
  };
  record("op.query", due_ns, run_end, op, 0);
  if (send_ns > due_ns) record("bench.send_lag", due_ns, send_ns, tracer::NewId(), op);
  record("serve.queue", send_ns, queue_end, tracer::NewId(), op);
  record(RunSpanName(r.kind), queue_end, run_end, tracer::NewId(), op);
}

}  // namespace

ServeBench::ServeBench(const ServeInputs& in) : in_(in) {
  ringo::DirectedGraph& g = *in_.graph;
  ringo::Rng rng(in_.seed * 0x9E3779B97F4A7C15ull + 0x5E);

  // One batch of currently-absent edges between existing nodes, 1% of E:
  // inserting and deleting it alternates the graph between two states
  // without creating nodes.
  const std::vector<ringo::NodeId> ids = g.SortedNodeIds();
  const size_t want = std::max<size_t>(1, g.NumEdges() / 100);
  std::set<ringo::Edge> chosen;
  while (chosen.size() < want) {
    const ringo::NodeId u = ids[rng.UniformInt(0, int64_t(ids.size()) - 1)];
    const ringo::NodeId v = ids[rng.UniformInt(0, int64_t(ids.size()) - 1)];
    if (u != v && !g.HasEdge(u, v)) chosen.insert({u, v});
  }
  batch_.assign(chosen.begin(), chosen.end());

  // The mix: BFS from 32 sources, PageRank at 5 iterations, a table top-k
  // and a script. Sources have out-degree >= 8, so each BFS reaches the
  // giant component and the mix's cost does not hinge on which ids the
  // seed drew. Kinds differ several-fold in run time; with 40% BFS the
  // median falls inside the PageRank cluster rather than in a gap.
  for (const ringo::NodeId s : SampleSources(g, 32, in_.seed, /*min_out=*/8)) {
    Query q;
    q.kind = QueryKind::kBfs;
    q.source = s;
    queries_.push_back(q);
    weights_.push_back(0.4 / 32);
  }
  Query pagerank;
  pagerank.kind = QueryKind::kPageRank;
  pagerank.iters = 5;
  queries_.push_back(pagerank);
  weights_.push_back(0.2);
  Query topk;
  topk.kind = QueryKind::kTableTopK;
  topk.column = in_.topk_col;
  topk.k = 100;
  queries_.push_back(topk);
  weights_.push_back(0.2);
  Query script;
  script.kind = QueryKind::kScript;
  script.script = in_.script;
  queries_.push_back(script);
  weights_.push_back(0.2);

  // Reference answers, one query at a time, in both states.
  ringo::serve::Engine engine({.workers = 1});
  ringo::serve::Session session("reference", in_.graph, in_.table);
  for (int state = 0; state < 2; ++state) {
    for (const Query& q : queries_) {
      const QueryResult r = engine.Submit(session, q).get();
      if (!r.status.ok()) {
        std::fprintf(stderr, "perfbench: reference %s query failed: %s\n",
                     ringo::serve::QueryKindName(q.kind),
                     r.status.ToString().c_str());
        std::exit(1);
      }
      ref_[state].push_back({r.rows, r.checksum});
    }
    if (state == 0) g.ApplyEdgeBatch(batch_, {});
  }
  g.ApplyEdgeBatch({}, batch_);
}

ServeReport ServeBench::Run(const ServeConfig& cfg) {
  ServeReport rep;
  rep.batch_edges = batch_edges();
  ringo::DirectedGraph& g = *in_.graph;
  ringo::serve::Engine engine({.workers = cfg.workers});
  ringo::serve::Session session("bench", in_.graph, in_.table);

  // Stamp -> graph state, written by the writer, read after it stops.
  std::mutex stamps_mu;
  std::unordered_map<uint64_t, int> stamp_state{{g.MutationStamp(), 0}};

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int state = 0;
    const int64_t period = static_cast<int64_t>(1e9 / cfg.writer_hz);
    const int64_t t0 = NowNs();
    for (int64_t k = 1; !stop.load(std::memory_order_acquire); ++k) {
      SleepUntil(t0 + k * period);
      if (stop.load(std::memory_order_acquire)) break;
      {
        OpSpan op("op.update");
        double apply_ms = 0, refresh_ms = 0;
        {
          Span s("graph.ApplyEdgeBatch");
          if (state == 0) {
            g.ApplyEdgeBatch(batch_, {});
          } else {
            g.ApplyEdgeBatch({}, batch_);
          }
          apply_ms = s.ElapsedMs();
        }
        state ^= 1;
        {
          std::lock_guard<std::mutex> lk(stamps_mu);
          stamp_state[g.MutationStamp()] = state;
        }
        {
          Span s("algo.AlgoView::Of");
          ringo::AlgoView::Of(g);
          refresh_ms = s.ElapsedMs();
        }
        rep.apply_ms.push_back(apply_ms);
        rep.refresh_ms.push_back(refresh_ms);
        rep.update_ms.push_back(op.ElapsedMs());
      }
      // Resident memory while serving, at every tenth update.
      if (k % 10 == 0) rep.rss_mb.push_back(CurrentRssMb());
    }
    if (state == 1) g.ApplyEdgeBatch({}, batch_);  // Leave the graph as found.
  });

  struct Sent {
    size_t q;
    int64_t due_ns, send_ns;
    QueryResult r;
    int64_t done_ns = 0;  // Closed loop only: when the reply arrived.
  };
  std::vector<Sent> done;
  std::mutex done_mu;
  auto pick = [&](ringo::Rng& rng) {
    double roll = rng.UniformReal();
    for (size_t i = 0; i < weights_.size(); ++i) {
      if (roll < weights_[i]) return i;
      roll -= weights_[i];
    }
    return weights_.size() - 1;
  };

  // Open loop: one generator on a fixed schedule, independent of replies.
  {
    ringo::Rng rng(in_.seed ^ 0x0BE11);
    const double interval_ns = 1e9 / cfg.rate_qps;
    const int64_t total = static_cast<int64_t>(cfg.rate_qps * cfg.open_seconds);
    std::vector<std::pair<Sent, std::future<QueryResult>>> inflight;
    inflight.reserve(total);
    const int windows = std::max(1, static_cast<int>(cfg.open_seconds / 2));
    const double window_ns = cfg.open_seconds * 1e9 / windows;
    rep.latency_ms.resize(windows);
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < total; ++i) {
      const int64_t due = t0 + static_cast<int64_t>(interval_ns * double(i));
      SleepUntil(due);
      const size_t q = pick(rng);
      rep.queue_depth_max = std::max(rep.queue_depth_max, engine.QueueDepth());
      const int64_t send = NowNs();
      rep.send_late_ms.push_back(NsToMs(send - due));
      inflight.emplace_back(Sent{q, due, send, {}}, engine.Submit(session, queries_[q]));
    }
    for (auto& [s, fut] : inflight) {
      s.r = fut.get();
      // Failed queries are counted in CountServeOutcomes, not timed.
      if (s.r.status.ok()) {
        const size_t w = std::min(rep.latency_ms.size() - 1,
                                  static_cast<size_t>((s.due_ns - t0) / window_ns));        rep.latency_ms[w].push_back(NsToMs(s.send_ns - s.due_ns) + s.r.latency_ms);
      }
      done.push_back(std::move(s));
    }
  }

  // Closed loop: `clients` callers, each waiting for its reply. Capacity
  // is the median over whole windows of the replies that arrived in each.
  {
    const int windows = std::max(1, static_cast<int>(cfg.closed_seconds));
    const double window_ns = cfg.closed_seconds * 1e9 / windows;
    const int64_t t0 = NowNs();
    const int64_t end = t0 + static_cast<int64_t>(cfg.closed_seconds * 1e9);
    std::vector<std::thread> clients;
    for (int c = 0; c < cfg.clients; ++c) {
      clients.emplace_back([&, c] {
        ringo::Rng rng(in_.seed * 31 + static_cast<uint64_t>(c) + 1);
        std::vector<Sent> local;
        while (NowNs() < end) {
          const size_t q = pick(rng);
          const int64_t send = NowNs();
          local.push_back({q, send, send, engine.Submit(session, queries_[q]).get()});
          local.back().done_ns = NowNs();
        }
        std::lock_guard<std::mutex> lk(done_mu);
        for (Sent& s : local) done.push_back(std::move(s));
      });
    }
    for (std::thread& t : clients) t.join();
    std::vector<double> per_window(windows, 0.0);
    for (const Sent& s : done) {
      if (s.done_ns >= t0 && s.done_ns < end && s.r.status.ok()) {
        const size_t w = std::min(per_window.size() - 1,
                                  static_cast<size_t>((s.done_ns - t0) / window_ns));
        per_window[w] += 1e9 / window_ns;
      }
    }
    rep.capacity_qps = Median(per_window);
  }

  stop.store(true, std::memory_order_release);
  writer.join();
  engine.Shutdown();
  rep.updates = static_cast<int64_t>(rep.update_ms.size());

  std::vector<int64_t> lane_end;
  for (const Sent& s : done) {
    ++rep.attempted;
    const QueryResult& r = s.r;
    if (r.status.IsOverloaded()) {
      ++rep.shed;
      continue;
    }
    if (r.status.IsDeadlineExceeded()) {
      ++rep.deadline_miss;
      continue;
    }
    if (!r.status.ok()) {
      ++rep.errors;
      continue;
    }
    TraceQuery(s.due_ns, s.send_ns, r, &lane_end);
    rep.queue_ms.push_back(r.queue_ms);
    rep.run_ms[r.kind].push_back(r.run_ms);
    const auto st = stamp_state.find(r.snapshot_stamp);
    const Answer& want = ref_[st == stamp_state.end() ? 0 : st->second][s.q];
    if (st == stamp_state.end() || r.rows != want.rows ||
        r.checksum != want.checksum) {
      ++rep.wrong;
      if (rep.wrong <= 5) {
        std::fprintf(stderr,
                     "perfbench: wrong %s answer at stamp %llu: rows %lld "
                     "checksum %.17g, want rows %lld checksum %.17g\n",
                     ringo::serve::QueryKindName(r.kind),
                     static_cast<unsigned long long>(r.snapshot_stamp),
                     static_cast<long long>(r.rows), r.checksum,
                     static_cast<long long>(want.rows), want.checksum);
      }
    }
  }
  return rep;
}

void AddServeLayerMetrics(const ServeReport& r, Report* report) {
  auto run = [&](QueryKind k) {
    const auto it = r.run_ms.find(k);
    return it == r.run_ms.end() ? 0.0 : Median(it->second);
  };
  report->Add("serve.queue_ms.p50", Percentile(r.queue_ms, 50), "ms");
  report->Add("serve.queue_ms.p99", Percentile(r.queue_ms, 99), "ms");
  report->Add("serve.queue_depth_max", double(r.queue_depth_max), "count");
  report->Add("serve.shed", double(r.shed), "count");
  report->Add("serve.deadline_miss", double(r.deadline_miss), "count");
  report->Add("serve.run_ms.bfs", run(QueryKind::kBfs), "ms");
  report->Add("serve.run_ms.pagerank", run(QueryKind::kPageRank), "ms");
  report->Add("serve.run_ms.topk", run(QueryKind::kTableTopK), "ms");
  report->Add("query.run_ms", run(QueryKind::kScript), "ms");
  report->Add("graph.apply_batch_ms.p50", Percentile(r.apply_ms, 50), "ms");
  report->Add("graph.apply_batch_ms.p99", Percentile(r.apply_ms, 99), "ms");
  report->Add("graph.batch_edges", double(r.batch_edges), "edges");
  report->Add("graph.update_ms.p99", Percentile(r.update_ms, 99), "ms");
  report->Add("algo.view_refresh_ms.p50", Percentile(r.refresh_ms, 50), "ms");
  report->Add("algo.view_refresh_ms.p99", Percentile(r.refresh_ms, 99), "ms");
  report->Add("bench.generator_late_ms", Percentile(r.send_late_ms, 99), "ms");
}

void CountServeOutcomes(const ServeReport& r, Report* report) {
  report->Count(r.attempted + r.updates, r.shed + r.deadline_miss + r.errors);
  for (int64_t i = 0; i < r.wrong; ++i) report->Wrong("serve_rw answer");
}

const char* const kEdgeTableScript =
    "s = select(t, \"src < 4096\")\n"
    "g = group_by(s, \"dst\", count(\"n\"))\n"
    "top_k(g, \"n\", 10)\n";

namespace {

// Generator, writer and workers together stay within `threads` cores.
ServeConfig ServeConfigFor(int threads) {
  ServeConfig cfg;
  cfg.workers = std::max(1, threads - 2);
  cfg.clients = threads;
  return cfg;
}

}  // namespace

void RunServeProbe(const ServeInputs& in, int threads, double qps_per_worker,
                   Report* report) {
  ServeBench serve(in);
  ServeConfig cfg = ServeConfigFor(threads);
  cfg.rate_qps = qps_per_worker * cfg.workers;
  cfg.open_seconds = 1.5;
  cfg.closed_seconds = 0.5;
  ServeReport r;
  {
    ThreadScope one(1);
    r = serve.Run(cfg);
  }
  CountServeOutcomes(r, report);
  AddServeLayerMetrics(r, report);
}

// ---------------------------------------------------------------- workload
// LiveJournalSim at scale 0.3 as the served graph, its edge table as the
// session table. Queries run one kernel thread each; the generator, the
// writer and the engine workers together use at most `threads` cores.
void RunServeRw(const Options& opts, Report* report) {
  constexpr double kScale = 0.3;
  ServeConfig cfg = ServeConfigFor(opts.threads);
  cfg.rate_qps = 60.0 * cfg.workers;
  cfg.closed_seconds = std::max(1.0, opts.seconds * 0.3);
  cfg.open_seconds = opts.seconds - cfg.closed_seconds;

  std::vector<double> setup_s;
  std::unique_ptr<ringo::DirectedGraph> graph;
  ringo::TablePtr table;
  std::unique_ptr<ServeBench> bench;
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    bench.reset();
    graph.reset();
    table.reset();
    const int64_t t0 = NowNs();
    table = MakeEdgeTable(ringo::gen::LiveJournalSimEdges(kScale, opts.seed));
    graph = std::make_unique<ringo::DirectedGraph>(
        ringo::TableToGraph(*table, "src", "dst").ValueOrDie());
    ringo::AlgoView::Of(*graph);
    const double build_s = static_cast<double>(NowNs() - t0) / 1e9;
    // The reference answers are the benchmark's oracle, not set-up work.
    {
      ThreadScope one(1);
      bench = std::make_unique<ServeBench>(
          ServeInputs{graph.get(), table, "dst", kEdgeTableScript, opts.seed});
    }
    // Warm-up: a short run at the measured configuration.
    const int64_t t1 = NowNs();
    {
      ThreadScope one(1);
      ServeConfig warm = cfg;
      warm.open_seconds = 0.3;
      warm.closed_seconds = 0.2;
      bench->Run(warm);
    }
    setup_s.push_back(build_s + static_cast<double>(NowNs() - t1) / 1e9);
  }

  const ViewCounters before = ViewCounters::Now();
  ServeReport r;
  {
    ThreadScope one(1);
    tracer::SetEnabled(opts.trace);
    r = bench->Run(cfg);
    tracer::SetEnabled(false);
  }
  CountServeOutcomes(r, report);
  report->Note("open_loop_qps", cfg.rate_qps);
  report->Note("workers", cfg.workers);
  report->Note("writer_hz", cfg.writer_hz);
  report->Note("scale", kScale);
  report->Note("updates", static_cast<double>(r.updates));

  if (!opts.trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.op_ms = r.latency_ms;
    // p95, not p99: at about 1700 queries p99 rests on the slowest 17, and
    // one brief stall of a shared machine moves it by half.
    e.tail_pct = 95;
    e.ingest_ms = r.update_ms;
    e.ops_per_s = r.capacity_qps;
    e.rss_mb = r.rss_mb;
    AddEndToEnd(e, report);
    return;
  }
  report->Note("traced_p50_ms", WindowedPercentile(r.latency_ms, 50));
  AddServeLayerMetrics(r, report);
  AddViewCounters(before, report);
  AddAttribution(opts.work_dir + "/trace_serve_rw.json", report);

  RunEdgeTableSweep(table, *graph, SampleSources(*graph, 1, opts.seed),
                    PageRankIters(5), opts.work_dir + "/serve_rw_edges.tsv",
                    opts.threads, 5, report);
}

}  // namespace perfbench
