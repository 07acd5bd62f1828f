// so_workflow: the paper's Fig. 2 StackOverflow pipeline, one client, back
// to back, at the full thread count. Each iteration loads the posts table
// from TSV, then runs, for each of the eight tags, Select tag -> Select
// question / answer -> Join -> ToGraph -> PageRank -> TableFromMap -> TopK.
// The time goes to table_io and table; the per-tag graphs are small, so
// algo does little here.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "algo/pagerank.h"
#include "core/engine.h"
#include "gen/stackoverflow_gen.h"
#include "layer_sweep.h"
#include "serve_rw.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kUsers = 15000;
constexpr int64_t kQuestions = 150000;

struct TagAnswer {
  std::vector<int64_t> top;  // Top-10 user ids by PageRank.
  double checksum = 0;       // Sum of score * (rank position + 1), by id.

  bool operator==(const TagAnswer&) const = default;
};

// Intermediates of one tag pipeline, kept for the layer sweep.
struct TagTables {
  ringo::TablePtr q, a, qa, scores;
  std::optional<ringo::DirectedGraph> graph;
};

ringo::gen::StackOverflowConfig PostsConfig(uint64_t seed) {
  ringo::gen::StackOverflowConfig cfg;
  cfg.num_users = kUsers;
  cfg.num_questions = kQuestions;
  cfg.seed = seed;
  return cfg;
}

// One tag pipeline; nullopt when any step fails.
std::optional<TagAnswer> Pipeline(const ringo::Ringo& engine,
                                  const ringo::TablePtr& posts,
                                  const std::string& tag,
                                  std::vector<double>* rss_mb = nullptr,
                                  TagTables* keep = nullptr) {
  OpSpan op("op.tag_pipeline");
  TagTables t;
  ringo::TablePtr jp;
  {
    Span s("table.Select");
    auto r = engine.Select(posts, "Tag = " + tag);
    if (!r.ok()) return std::nullopt;
    jp = *r;
  }
  {
    Span s("table.Select");
    auto q = engine.Select(jp, "Type = question");
    auto a = engine.Select(jp, "Type = answer");
    if (!q.ok() || !a.ok()) return std::nullopt;
    t.q = *q;
    t.a = *a;
  }
  {
    Span s("table.Join");
    auto r = engine.Join(t.q, t.a, "AcceptedAnswerId", "PostId");
    if (!r.ok()) return std::nullopt;
    t.qa = *r;
  }
  {
    Span s("core.TableToGraph");
    auto r = engine.ToGraph(t.qa, "UserId-1", "UserId-2");
    if (!r.ok()) return std::nullopt;
    t.graph.emplace(std::move(*r));
  }
  TagAnswer ans;
  ringo::NodeValues pr;
  {
    // Exactly ten iterations, as the paper times it. The engine's
    // GetPageRank runs to convergence, and its iteration count varies with
    // the generated graph, which would make the cost vary by seed.
    Span s("algo.ParallelPageRank");
    auto r = ringo::ParallelPageRank(*t.graph, PageRankIters(10));
    if (!r.ok()) return std::nullopt;
    pr = std::move(*r);
  }
  for (size_t i = 0; i < pr.size(); ++i) {
    ans.checksum += pr[i].second * static_cast<double>(i + 1);
  }
  {
    Span s("core.TableFromMap");
    t.scores = engine.TableFromMap(pr, "User", "Scr");
  }
  {
    Span s("table.TopK");
    auto top = t.scores->TopK("Scr", 10);
    if (!top.ok()) return std::nullopt;
    const ringo::Column& users = (*top)->column(0);
    for (int64_t i = 0; i < (*top)->NumRows(); ++i) {
      ans.top.push_back(users.GetInt(i));
    }
  }
  // Resident memory with every intermediate of the pipeline alive.
  if (rss_mb != nullptr) rss_mb->push_back(CurrentRssMb());
  {
    // Freeing the intermediates is table and graph work too.
    Span s("table.release");
    jp.reset();
    if (keep != nullptr) {
      *keep = std::move(t);
    } else {
      TagTables dead = std::move(t);
    }
  }
  return ans;
}

}  // namespace

void RunSoWorkflow(const Options& opts, Report* report) {
  const ringo::Ringo engine;
  const std::vector<std::string> tags = PostsConfig(opts.seed).tags;
  const std::string tsv = opts.work_dir + "/so_posts.tsv";

  // Reference answers, at one thread, from the generated table itself.
  std::vector<TagAnswer> ref;
  ringo::Schema schema;
  int64_t rows = 0;
  {
    ThreadScope one(1);
    const ringo::TablePtr posts =
        ringo::gen::GenerateStackOverflowPosts(PostsConfig(opts.seed), engine.pool());
    schema = posts->schema();
    rows = posts->NumRows();
    for (const std::string& tag : tags) {
      std::optional<TagAnswer> a = Pipeline(engine, posts, tag);
      if (!a) {
        std::fprintf(stderr, "perfbench: reference pipeline failed for %s\n", tag.c_str());
        std::exit(1);
      }
      ref.push_back(*a);
    }
  }

  // True when the pipeline ran and its answer is right.
  auto check = [&](size_t i, const std::optional<TagAnswer>& got) {
    report->Count(1, 0);
    if (!got) {
      report->Wrong("so_workflow tag " + tags[i] + ": a pipeline step failed");
    } else if (!(*got == ref[i])) {
      report->Wrong("so_workflow tag " + tags[i]);
    } else {
      return true;
    }
    return false;
  };
  auto load = [&]() -> ringo::TablePtr {
    OpSpan op("op.load");
    Span s("table_io.LoadTableTSV");
    auto t = engine.LoadTableTSV(schema, tsv, /*has_header=*/true);
    if (!t.ok() || (*t)->NumRows() != rows) {
      std::fprintf(stderr, "perfbench: load failed: %s\n", t.status().ToString().c_str());
      std::exit(1);
    }
    return *t;
  };

  // Set-up: generate, save as TSV, then one warm-up iteration.
  std::vector<double> setup_s;
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    const int64_t t0 = NowNs();
    {
      const ringo::TablePtr posts =
          ringo::gen::GenerateStackOverflowPosts(PostsConfig(opts.seed), engine.pool());
      engine.SaveTableTSV(*posts, tsv, /*write_header=*/true).Abort("save posts");
    }
    const ringo::TablePtr posts = load();
    for (size_t i = 0; i < tags.size(); ++i) check(i, Pipeline(engine, posts, tags[i]));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const ViewCounters before = ViewCounters::Now();
  tracer::SetEnabled(opts.trace);
  EndToEnd e;
  e.tail_pct = 90;
  // Five windows of about 100 pipelines each; p90 rests on 10 per window.
  constexpr int kWindows = 5;
  e.op_ms.resize(kWindows);
  std::vector<std::vector<double>> tag_ms(tags.size());
  int64_t pipelines = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(opts.seconds * 1e9);
  ringo::TablePtr posts;
  while (NowNs() < end) {
    const int64_t t0 = NowNs();
    const int64_t window = std::min<int64_t>(
        kWindows - 1, (t0 - start) * kWindows / (end - start));
    posts = load();
    e.ingest_ms.push_back(NsToMs(NowNs() - t0));
    report->Count(1, 0);
    for (size_t i = 0; i < tags.size(); ++i) {
      const int64_t p0 = NowNs();
      std::optional<TagAnswer> got = Pipeline(engine, posts, tags[i], &e.rss_mb);
      const double ms = NsToMs(NowNs() - p0);
      ++pipelines;
      // A failed pipeline returns early; its time is not a sample.
      if (!check(i, got)) continue;
      e.op_ms[window].push_back(ms);
      tag_ms[i].push_back(ms);
    }
  }
  e.ops_per_s = static_cast<double>(pipelines) /
                (static_cast<double>(NowNs() - start) / 1e9);
  tracer::SetEnabled(false);
  report->Note("questions", static_cast<double>(kQuestions));
  report->Note("users", static_cast<double>(kUsers));
  report->Note("rows", static_cast<double>(rows));

  // The tags differ in size (Zipf), so pipeline times form one cluster per
  // tag and the pooled median falls in the gap between two of them. The
  // median over tags of each tag's median is the stable centre.
  std::vector<double> per_tag;
  for (const std::vector<double>& ms : tag_ms) per_tag.push_back(Median(ms));
  e.p50_ms = Median(per_tag);

  if (!opts.trace) {
    e.setup_s = Median(setup_s);
    AddEndToEnd(e, report);
    return;
  }
  report->Note("traced_p50_ms", e.p50_ms);
  AddViewCounters(before, report);
  AddAttribution(opts.work_dir + "/trace_so_workflow.json", report);

  // Layer sweep on the first tag's intermediates.
  TagTables t;
  if (!Pipeline(engine, posts, tags[0], nullptr, &t)) {
    report->Wrong("so_workflow sweep pipeline");
    return;
  }
  const ringo::UndirectedGraph ug =
      ringo::TableToUndirectedGraph(*t.qa, "UserId-1", "UserId-2").ValueOrDie();
  SweepInputs in;
  in.tsv_path = tsv;
  in.tsv_schema = schema;
  in.tsv_header = true;
  in.select_table = posts;
  in.select_expr = "Tag = " + tags[0];
  in.join_left = t.q;
  in.join_right = t.a;
  in.join_left_col = "AcceptedAnswerId";
  in.join_right_col = "PostId";
  in.topk_table = t.scores;
  in.topk_col = "Scr";
  in.edge_table = t.qa;
  in.src_col = "UserId-1";
  in.dst_col = "UserId-2";
  in.graph = &*t.graph;
  in.ugraph = &ug;
  in.bfs_sources = SampleSources(*t.graph, 1, opts.seed);
  in.pagerank = PageRankIters(10);
  RunLayerSweep(in, opts.threads, 5, report);

  // Serving over the same tag graph and the posts table.
  ringo::DirectedGraph served = *t.graph;
  RunServeProbe({&served, posts, "Time",
                 "s = select(t, \"Tag = " + tags[0] + "\")\n"
                 "g = group_by(s, \"UserId\", count(\"n\"))\n"
                 "top_k(g, \"n\", 10)\n",
                 opts.seed},
                opts.threads, /*qps_per_worker=*/60, report);
}

}  // namespace perfbench
