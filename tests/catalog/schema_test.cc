#include "catalog/schema.h"

#include <gtest/gtest.h>

namespace gphtap {
namespace {

Schema TwoColSchema() {
  return Schema({{"c1", TypeId::kInt64}, {"c2", TypeId::kInt64}});
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.FindColumn("c1"), 0);
  EXPECT_EQ(s.FindColumn("C2"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
}

TEST(SchemaTest, CheckRowArity) {
  Schema s = TwoColSchema();
  EXPECT_TRUE(s.CheckRow({Datum(int64_t{1}), Datum(int64_t{2})}).ok());
  EXPECT_FALSE(s.CheckRow({Datum(int64_t{1})}).ok());
}

TEST(SchemaTest, CheckRowTypes) {
  Schema s({{"i", TypeId::kInt64}, {"d", TypeId::kDouble}, {"t", TypeId::kString}});
  EXPECT_TRUE(
      s.CheckRow({Datum(int64_t{1}), Datum(1.5), Datum(std::string("x"))}).ok());
  // An int is no double: writers widen it first (CoerceRow).
  Row widened = {Datum(int64_t{1}), Datum(int64_t{2}), Datum(std::string("x"))};
  EXPECT_FALSE(s.CheckRow(widened).ok());
  s.CoerceRow(&widened);
  EXPECT_TRUE(s.CheckRow(widened).ok());
  // String where int expected fails.
  EXPECT_FALSE(
      s.CheckRow({Datum(std::string("no")), Datum(1.5), Datum(std::string("x"))}).ok());
  // NULLs always pass.
  EXPECT_TRUE(s.CheckRow({Datum::Null(), Datum::Null(), Datum::Null()}).ok());
}

TEST(SchemaTest, ToStringListsColumns) {
  EXPECT_EQ(TwoColSchema().ToString(), "(c1 INT, c2 INT)");
}

TEST(PartitionSpecTest, RouteValueRespectsBounds) {
  PartitionSpec spec;
  spec.partition_col = 0;
  spec.ranges.push_back({"p_low", Datum::Null(), Datum(int64_t{10}), StorageKind::kHeap, ""});
  spec.ranges.push_back(
      {"p_mid", Datum(int64_t{10}), Datum(int64_t{20}), StorageKind::kAoColumn, ""});
  spec.ranges.push_back(
      {"p_high", Datum(int64_t{20}), Datum::Null(), StorageKind::kExternal, "/tmp/x.csv"});

  EXPECT_EQ(spec.RouteValue(Datum(int64_t{-5})), 0);
  EXPECT_EQ(spec.RouteValue(Datum(int64_t{9})), 0);
  EXPECT_EQ(spec.RouteValue(Datum(int64_t{10})), 1);  // lower inclusive
  EXPECT_EQ(spec.RouteValue(Datum(int64_t{19})), 1);
  EXPECT_EQ(spec.RouteValue(Datum(int64_t{20})), 2);  // upper exclusive
  EXPECT_EQ(spec.RouteValue(Datum(int64_t{1000})), 2);
}

TEST(PartitionSpecTest, GapReturnsMinusOne) {
  PartitionSpec spec;
  spec.partition_col = 0;
  spec.ranges.push_back(
      {"p1", Datum(int64_t{0}), Datum(int64_t{10}), StorageKind::kHeap, ""});
  spec.ranges.push_back(
      {"p2", Datum(int64_t{20}), Datum(int64_t{30}), StorageKind::kHeap, ""});
  EXPECT_EQ(spec.RouteValue(Datum(int64_t{15})), -1);
  EXPECT_EQ(spec.RouteValue(Datum(int64_t{-1})), -1);
}

TEST(StorageKindTest, Names) {
  EXPECT_STREQ(StorageKindName(StorageKind::kHeap), "heap");
  EXPECT_STREQ(StorageKindName(StorageKind::kAoRow), "ao_row");
  EXPECT_STREQ(StorageKindName(StorageKind::kAoColumn), "ao_column");
  EXPECT_STREQ(StorageKindName(StorageKind::kExternal), "external");
}

}  // namespace
}  // namespace gphtap
