#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "algo/pagerank.h"
#include "gen/stackoverflow_gen.h"
#include "storage/flat_hash_map.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ringo {
namespace {

TEST(ParsePredicateTest, AllOperators) {
  struct Case {
    const char* expr;
    CmpOp op;
  };
  const Case cases[] = {
      {"x = 5", CmpOp::kEq},  {"x == 5", CmpOp::kEq}, {"x != 5", CmpOp::kNe},
      {"x < 5", CmpOp::kLt},  {"x <= 5", CmpOp::kLe}, {"x > 5", CmpOp::kGt},
      {"x >= 5", CmpOp::kGe},
  };
  for (const Case& c : cases) {
    auto p = ParsePredicate(c.expr);
    ASSERT_TRUE(p.ok()) << c.expr;
    EXPECT_EQ(p->column, "x");
    EXPECT_EQ(static_cast<int>(p->op), static_cast<int>(c.op)) << c.expr;
    EXPECT_EQ(std::get<int64_t>(p->value), 5);
  }
}

TEST(ParsePredicateTest, LiteralTypes) {
  EXPECT_TRUE(std::holds_alternative<int64_t>(ParsePredicate("a=3")->value));
  EXPECT_TRUE(std::holds_alternative<double>(ParsePredicate("a=3.5")->value));
  EXPECT_TRUE(
      std::holds_alternative<std::string>(ParsePredicate("a=Java")->value));
  EXPECT_EQ(std::get<std::string>(ParsePredicate("a = 'quoted str'")->value),
            "quoted str");
  EXPECT_EQ(std::get<std::string>(ParsePredicate("a = \"dq\"")->value), "dq");
}

TEST(ParsePredicateTest, Malformed) {
  EXPECT_FALSE(ParsePredicate("nonsense").ok());
  EXPECT_FALSE(ParsePredicate("= 5").ok());
  EXPECT_FALSE(ParsePredicate("x =").ok());
}

TEST(ParsePredicateExprTest, SingleLeafIsOneDisjunctOneLeaf) {
  auto p = ParsePredicateExpr("x >= 5");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->disjuncts.size(), 1u);
  ASSERT_EQ(p->disjuncts[0].size(), 1u);
  EXPECT_EQ(p->disjuncts[0][0].column, "x");
  EXPECT_EQ(std::get<int64_t>(p->disjuncts[0][0].value), 5);
}

// `and` binds tighter than `or`: a=1 and b>2 or c=3 → {{a,b},{c}}.
TEST(ParsePredicateExprTest, AndBindsTighterThanOr) {
  auto p = ParsePredicateExpr("a = 1 and b > 2 or c = 3");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->disjuncts.size(), 2u);
  ASSERT_EQ(p->disjuncts[0].size(), 2u);
  ASSERT_EQ(p->disjuncts[1].size(), 1u);
  EXPECT_EQ(p->disjuncts[0][0].column, "a");
  EXPECT_EQ(p->disjuncts[0][1].column, "b");
  EXPECT_EQ(p->disjuncts[1][0].column, "c");
}

TEST(ParsePredicateExprTest, KeywordsAreCaseInsensitive) {
  auto p = ParsePredicateExpr("a = 1 AND b = 2 Or c = 3");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->disjuncts.size(), 2u);
  EXPECT_EQ(p->disjuncts[0].size(), 2u);
}

// Quoted literals may contain the keywords; the splitter must not cut
// inside quotes, and "android" must not match the "and" keyword.
TEST(ParsePredicateExprTest, QuotesAndSubstringsDoNotSplit) {
  auto p = ParsePredicateExpr("tag = 'rock and roll' or tag = android");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->disjuncts.size(), 2u);
  EXPECT_EQ(std::get<std::string>(p->disjuncts[0][0].value), "rock and roll");
  EXPECT_EQ(std::get<std::string>(p->disjuncts[1][0].value), "android");
}

TEST(ParsePredicateExprTest, Malformed) {
  EXPECT_FALSE(ParsePredicateExpr("a = 1 and").ok());      // Trailing and.
  EXPECT_FALSE(ParsePredicateExpr("or a = 1").ok());       // Leading or.
  EXPECT_FALSE(ParsePredicateExpr("a = 1 and and b = 2").ok());
  EXPECT_FALSE(ParsePredicateExpr("a = 'unterminated").ok());
  EXPECT_FALSE(ParsePredicateExpr("").ok());
}

TEST(EngineTest, CompoundSelect) {
  Ringo ringo;
  TablePtr t = ringo.NewTable(
      Schema{{"Tag", ColumnType::kString}, {"n", ColumnType::kInt}});
  RINGO_CHECK_OK(t->AppendRow({std::string("Java"), int64_t{1}}));
  RINGO_CHECK_OK(t->AppendRow({std::string("Java"), int64_t{9}}));
  RINGO_CHECK_OK(t->AppendRow({std::string("C++"), int64_t{9}}));
  RINGO_CHECK_OK(t->AppendRow({std::string("Go"), int64_t{3}}));
  auto r = ringo.Select(t, "Tag = Java and n >= 5 or Tag = Go");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->NumRows(), 2);
  EXPECT_EQ((*r)->column(1).GetInt(0), 9);  // Java/9
  EXPECT_EQ((*r)->column(1).GetInt(1), 3);  // Go/3
  ASSERT_TRUE(ringo.SelectInPlace(t, "n >= 9 or n <= 1").ok());
  EXPECT_EQ(t->NumRows(), 3);
}

TEST(EngineTest, TablesShareThePool) {
  Ringo ringo;
  TablePtr a = ringo.NewTable(Schema{{"s", ColumnType::kString}});
  TablePtr b = ringo.NewTable(Schema{{"s", ColumnType::kString}});
  EXPECT_EQ(a->pool().get(), b->pool().get());
  EXPECT_EQ(a->pool().get(), ringo.pool().get());
}

TEST(EngineTest, SelectExprOnStrings) {
  Ringo ringo;
  TablePtr t = ringo.NewTable(
      Schema{{"Tag", ColumnType::kString}, {"n", ColumnType::kInt}});
  RINGO_CHECK_OK(t->AppendRow({std::string("Java"), int64_t{1}}));
  RINGO_CHECK_OK(t->AppendRow({std::string("C++"), int64_t{2}}));
  RINGO_CHECK_OK(t->AppendRow({std::string("Java"), int64_t{3}}));
  auto r = ringo.Select(t, "Tag = Java");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->NumRows(), 2);
  EXPECT_EQ(t->NumRows(), 3);
  ASSERT_TRUE(ringo.SelectInPlace(t, "n >= 2").ok());
  EXPECT_EQ(t->NumRows(), 2);
}

// The full §4.1 demo pipeline on synthetic StackOverflow data: find the
// top Java experts via accepted-answer graph PageRank.
TEST(EngineTest, StackOverflowExpertPipeline) {
  Ringo ringo;
  gen::StackOverflowConfig cfg;
  cfg.num_users = 500;
  cfg.num_questions = 4000;
  cfg.seed = 11;
  TablePtr posts = gen::GenerateStackOverflowPosts(cfg, ringo.pool());

  // JP = Select(P, 'Tag=Java'); Q = questions; A = answers.
  auto jp = ringo.Select(posts, "Tag = Java");
  ASSERT_TRUE(jp.ok());
  ASSERT_GT((*jp)->NumRows(), 0);
  auto q = ringo.Select(*jp, "Type = question");
  auto a = ringo.Select(*jp, "Type = answer");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(a.ok());

  // QA = Join(Q, A, 'AcceptedAnswerId', 'PostId').
  auto qa = ringo.Join(*q, *a, "AcceptedAnswerId", "PostId");
  ASSERT_TRUE(qa.ok());
  ASSERT_GT((*qa)->NumRows(), 0);
  // Every joined row pairs a question with its accepted answer.
  const int accept_col = (*qa)->schema().ColumnIndex("AcceptedAnswerId-1");
  const int post_col = (*qa)->schema().ColumnIndex("PostId-2");
  ASSERT_GE(accept_col, 0);
  ASSERT_GE(post_col, 0);
  for (int64_t r = 0; r < (*qa)->NumRows(); ++r) {
    EXPECT_EQ((*qa)->column(accept_col).GetInt(r),
              (*qa)->column(post_col).GetInt(r));
  }

  // G = ToGraph(QA, 'UserId-1', 'UserId-2'): asker → accepted answerer.
  auto g = ringo.ToGraph(*qa, "UserId-1", "UserId-2");
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->NumEdges(), 0);

  // PR = GetPageRank(G); S = TableFromMap(PR, 'User', 'Scr').
  auto pr = ringo.GetPageRank(*g);
  ASSERT_TRUE(pr.ok());
  TablePtr s = ringo.TableFromMap(*pr, "User", "Scr");
  EXPECT_EQ(s->NumRows(), g->NumNodes());
  EXPECT_EQ(s->schema().ColumnIndex("User"), 0);
  EXPECT_EQ(s->schema().ColumnIndex("Scr"), 1);

  // Order by score: the top user should be a frequent accepted answerer.
  auto top = s->OrderBy({"Scr"}, {false});
  ASSERT_TRUE(top.ok());
  const NodeId expert = (*top)->column(0).GetInt(0);
  // The expert must have received at least one accepted answer edge.
  EXPECT_GT(g->InDegree(expert), 0);
  // And their score is the max.
  double max_score = 0;
  for (const auto& [id, score] : *pr) max_score = std::max(max_score, score);
  EXPECT_DOUBLE_EQ((*top)->column(1).GetFloat(0), max_score);
}

TEST(EngineTest, EdgeAndNodeTables) {
  Ringo ringo;
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  TablePtr edges = ringo.ToEdgeTable(g);
  EXPECT_EQ(edges->NumRows(), 2);
  TablePtr nodes = ringo.ToNodeTable(g);
  EXPECT_EQ(nodes->NumRows(), 3);
  // Round trip through the engine.
  auto back = ringo.ToGraph(edges, "SrcId", "DstId");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->SameStructure(g));
}

TEST(EngineTest, TableFromMapIntVariant) {
  Ringo ringo;
  NodeInts vals{{1, 10}, {2, 20}};
  TablePtr t = ringo.TableFromMap(vals, "Node", "Deg");
  ASSERT_EQ(t->NumRows(), 2);
  EXPECT_EQ(t->column(1).GetInt(1), 20);
  EXPECT_EQ(t->schema().column(1).type, ColumnType::kInt);
}

TEST(EngineTest, SummaryTable) {
  Ringo ringo;
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  g.AddEdge(2, 3);
  TablePtr s = ringo.SummaryTable(g);
  ASSERT_GT(s->NumRows(), 5);
  // Locate the "edges" row and verify its value.
  bool found = false;
  for (int64_t r = 0; r < s->NumRows(); ++r) {
    if (std::get<std::string>(s->GetValue(r, 0)) == "edges") {
      EXPECT_DOUBLE_EQ(s->column(1).GetFloat(r), 3.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineTest, GetHitsWrapper) {
  Ringo ringo;
  DirectedGraph g;
  for (NodeId i = 1; i <= 4; ++i) g.AddEdge(i, 0);
  auto h = ringo.GetHits(g);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->authorities.size(), 5u);
  EXPECT_GT(h->authorities[0].second, 0.9);  // Node 0 is the authority.
}

TEST(EngineTest, WeightedGraphRoundTrip) {
  Ringo ringo;
  TablePtr t = ringo.NewTable(Schema{{"a", ColumnType::kInt},
                                     {"b", ColumnType::kInt},
                                     {"w", ColumnType::kFloat}});
  RINGO_CHECK_OK(t->AppendRow({int64_t{1}, int64_t{2}, 3.5}));
  RINGO_CHECK_OK(t->AppendRow({int64_t{1}, int64_t{2}, 0.5}));
  auto wg = ringo.ToWeightedGraph(t, "a", "b", "w");
  ASSERT_TRUE(wg.ok());
  EXPECT_EQ(wg->graph.NumEdges(), 1);
  EXPECT_DOUBLE_EQ(wg->weights.Get(1, 2), 4.0);
}

TEST(EngineTest, UndirectedConversion) {
  Ringo ringo;
  TablePtr t = ringo.NewTable(
      Schema{{"a", ColumnType::kInt}, {"b", ColumnType::kInt}});
  RINGO_CHECK_OK(t->AppendRow({int64_t{1}, int64_t{2}}));
  RINGO_CHECK_OK(t->AppendRow({int64_t{2}, int64_t{1}}));
  auto g = ringo.ToUndirectedGraph(t, "a", "b");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1);
}

// StatsTable: the flat span aggregate with each name's summed minor
// faults, then the block pool's counters and gauges. 300K rows give the
// directed build arc arrays above the pool's 2 MiB floor.
TEST(EngineTest, StatsTableListsFaultsAndThePool) {
  metrics::SetEnabled(true);
  trace::Clear();
  Ringo ringo;
  TablePtr t = ringo.NewTable(
      Schema{{"a", ColumnType::kInt}, {"b", ColumnType::kInt}});
  constexpr int64_t kRows = 300000;
  t->mutable_column(0).ResizeForOverwrite(kRows);
  t->mutable_column(1).ResizeForOverwrite(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    t->mutable_column(0).SetInt(i, i % 50000);
    t->mutable_column(1).SetInt(i, (i * 7919) % 50000);
  }
  RINGO_CHECK_OK(t->SealAppendedRows(kRows));
  ASSERT_TRUE(ringo.ToGraph(t, "a", "b").ok());

  const TablePtr stats = ringo.StatsTable();
  ASSERT_EQ(stats->schema().column(4).name, "MinFlt");
  std::map<std::string, int64_t> count, minflt;
  for (int64_t r = 0; r < stats->NumRows(); ++r) {
    const std::string name = std::get<std::string>(stats->GetValue(r, 0));
    count[name] = stats->column(1).GetInt(r);
    minflt[name] = stats->column(4).GetInt(r);
  }
  EXPECT_EQ(count["TableToGraph"], 1);
  EXPECT_GE(minflt["TableToGraph"], 0);
  for (const char* name : {"mem/pool_hit", "mem/pool_map", "mem/pool_unmap",
                           "mem/pool_live_bytes", "mem/pool_idle_bytes"}) {
    EXPECT_EQ(count.count(name), 1u) << name;
  }
  EXPECT_GE(count["mem/pool_hit"] + count["mem/pool_map"], 2);
}

}  // namespace
}  // namespace ringo
