#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "table/table.h"
#include "test_support.h"

namespace ringo {
namespace {

using testing::MakeIntTable;

TablePtr MakeFloatTable(const std::vector<double>& xs) {
  TablePtr t = Table::Create(Schema{{"x", ColumnType::kFloat}});
  for (const double x : xs) RINGO_CHECK_OK(t->AppendRow({x}));
  return t;
}

std::vector<int64_t> RowIds(const Table& t) {
  return std::vector<int64_t>(t.row_ids().begin(), t.row_ids().end());
}

TEST(SetOpsTest, UnionDedupes) {
  TablePtr a = MakeIntTable({"x"}, {{1}, {2}, {2}});
  TablePtr b = MakeIntTable({"x"}, {{2}, {3}});
  auto u = Table::UnionTables(*a, *b);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ((*u)->NumRows(), 3);
  EXPECT_EQ((*u)->column(0).GetInt(0), 1);
  EXPECT_EQ((*u)->column(0).GetInt(1), 2);
  EXPECT_EQ((*u)->column(0).GetInt(2), 3);
}

TEST(SetOpsTest, IntersectKeepsCommonRows) {
  TablePtr a = MakeIntTable({"x", "y"}, {{1, 1}, {2, 2}, {3, 3}, {2, 2}});
  TablePtr b = MakeIntTable({"x", "y"}, {{2, 2}, {3, 9}});
  auto i = Table::IntersectTables(*a, *b);
  ASSERT_TRUE(i.ok());
  ASSERT_EQ((*i)->NumRows(), 1);
  EXPECT_EQ((*i)->column(0).GetInt(0), 2);
}

TEST(SetOpsTest, MinusRemovesMatches) {
  TablePtr a = MakeIntTable({"x"}, {{1}, {2}, {3}, {1}});
  TablePtr b = MakeIntTable({"x"}, {{2}});
  auto m = Table::MinusTables(*a, *b);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->NumRows(), 2);
  EXPECT_EQ((*m)->column(0).GetInt(0), 1);
  EXPECT_EQ((*m)->column(0).GetInt(1), 3);
}

TEST(SetOpsTest, SchemaMismatchRejected) {
  TablePtr a = MakeIntTable({"x"}, {{1}});
  TablePtr b = MakeIntTable({"y"}, {{1}});
  EXPECT_TRUE(Table::UnionTables(*a, *b).status().IsTypeMismatch());
  EXPECT_TRUE(Table::IntersectTables(*a, *b).status().IsTypeMismatch());
  EXPECT_TRUE(Table::MinusTables(*a, *b).status().IsTypeMismatch());
}

TEST(SetOpsTest, StringRowsAcrossPools) {
  Schema sa{{"s", ColumnType::kString}};
  Schema sb{{"s", ColumnType::kString}};
  TablePtr a = Table::Create(std::move(sa));
  TablePtr b = Table::Create(std::move(sb));  // Separate pool.
  RINGO_CHECK_OK(a->AppendRow({std::string("x")}));
  RINGO_CHECK_OK(a->AppendRow({std::string("y")}));
  RINGO_CHECK_OK(b->AppendRow({std::string("y")}));
  RINGO_CHECK_OK(b->AppendRow({std::string("z")}));
  auto i = Table::IntersectTables(*a, *b);
  ASSERT_TRUE(i.ok());
  ASSERT_EQ((*i)->NumRows(), 1);
  EXPECT_EQ(std::get<std::string>((*i)->GetValue(0, 0)), "y");

  auto u = Table::UnionTables(*a, *b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->NumRows(), 3);
}

TEST(SetOpsTest, DisjointAndIdenticalInputs) {
  TablePtr a = MakeIntTable({"x"}, {{1}, {2}});
  TablePtr d = MakeIntTable({"x"}, {{8}, {9}});
  EXPECT_EQ(Table::IntersectTables(*a, *d).value()->NumRows(), 0);
  EXPECT_EQ(Table::MinusTables(*a, *d).value()->NumRows(), 2);
  EXPECT_EQ(Table::UnionTables(*a, *d).value()->NumRows(), 4);

  EXPECT_EQ(Table::IntersectTables(*a, *a).value()->NumRows(), 2);
  EXPECT_EQ(Table::MinusTables(*a, *a).value()->NumRows(), 0);
  EXPECT_EQ(Table::UnionTables(*a, *a).value()->NumRows(), 2);
}

TEST(SetOpsTest, NanRowsAreEqual) {
  // Every NaN is one value, whatever its sign or payload.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TablePtr a = MakeFloatTable({nan, 1.0, -nan, std::nan("7")});
  TablePtr b = MakeFloatTable({std::nan("3"), 2.0});
  auto i = Table::IntersectTables(*a, *b);
  ASSERT_TRUE(i.ok());
  ASSERT_EQ((*i)->NumRows(), 1);
  EXPECT_TRUE(std::isnan((*i)->column(0).GetFloat(0)));
  EXPECT_EQ((*i)->RowId(0), 0);

  auto m = Table::MinusTables(*a, *b);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->NumRows(), 1);
  EXPECT_EQ((*m)->column(0).GetFloat(0), 1.0);

  auto u = Table::UnionTables(*a, *b);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ((*u)->NumRows(), 3);  // NaN, 1.0, 2.0.
  EXPECT_TRUE(std::isnan((*u)->column(0).GetFloat(0)));
  EXPECT_EQ((*u)->column(0).GetFloat(2), 2.0);
}

TEST(SetOpsTest, NegativeZeroEqualsPositiveZero) {
  TablePtr a = MakeFloatTable({-0.0, 2.0});
  TablePtr b = MakeFloatTable({0.0});
  auto i = Table::IntersectTables(*a, *b);
  ASSERT_TRUE(i.ok());
  ASSERT_EQ((*i)->NumRows(), 1);
  // The kept row is a's, so its cell keeps a's sign.
  EXPECT_TRUE(std::signbit((*i)->column(0).GetFloat(0)));

  auto m = Table::MinusTables(*a, *b);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->NumRows(), 1);
  EXPECT_EQ((*m)->column(0).GetFloat(0), 2.0);

  auto u = Table::UnionTables(*b, *a);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ((*u)->NumRows(), 2);
  EXPECT_FALSE(std::signbit((*u)->column(0).GetFloat(0)));
}

TEST(SetOpsTest, DuplicatesInsideB) {
  TablePtr a = MakeIntTable({"x"}, {{1}, {2}, {3}});
  TablePtr b = MakeIntTable({"x"}, {{2}, {2}, {4}, {4}, {2}});
  auto i = Table::IntersectTables(*a, *b);
  ASSERT_TRUE(i.ok());
  ASSERT_EQ((*i)->NumRows(), 1);
  EXPECT_EQ((*i)->column(0).GetInt(0), 2);

  auto m = Table::MinusTables(*a, *b);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->NumRows(), 2);
  EXPECT_EQ((*m)->column(0).GetInt(0), 1);
  EXPECT_EQ((*m)->column(0).GetInt(1), 3);

  auto u = Table::UnionTables(*a, *b);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ((*u)->NumRows(), 4);
  EXPECT_EQ((*u)->column(0).GetInt(3), 4);
}

TEST(SetOpsTest, IntersectAndMinusKeepRowIdsOfA) {
  // Dropping the 2 leaves a's row ids apart from its positions.
  TablePtr a = MakeIntTable({"x"}, {{7}, {5}, {2}, {5}, {3}, {7}, {4}});
  RINGO_CHECK_OK(a->SelectInPlace("x", CmpOp::kNe, int64_t{2}));
  TablePtr b = MakeIntTable({"x"}, {{5}, {4}, {9}});

  auto i = Table::IntersectTables(*a, *b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(RowIds(**i), (std::vector<int64_t>{1, 6}));
  auto m = Table::MinusTables(*a, *b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(RowIds(**m), (std::vector<int64_t>{0, 4}));
  // Union's ids are its rows' positions in a then b.
  auto u = Table::UnionTables(*a, *b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(RowIds(**u), (std::vector<int64_t>{0, 1, 3, 5, 8}));
}

TEST(SetOpsTest, EmptyOperands) {
  TablePtr a = MakeIntTable({"x"}, {{1}});
  TablePtr e = MakeIntTable({"x"}, {});
  EXPECT_EQ(Table::UnionTables(*a, *e).value()->NumRows(), 1);
  EXPECT_EQ(Table::UnionTables(*e, *a).value()->NumRows(), 1);
  EXPECT_EQ(Table::IntersectTables(*a, *e).value()->NumRows(), 0);
  EXPECT_EQ(Table::MinusTables(*a, *e).value()->NumRows(), 1);
  EXPECT_EQ(Table::MinusTables(*e, *a).value()->NumRows(), 0);
}

}  // namespace
}  // namespace ringo
