// AO-row, AO-column, external, and partitioned tables through the Table API.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/ao_table.h"
#include "storage/column_store.h"
#include "storage/external_table.h"
#include "storage/partitioned_table.h"
#include "storage/table_factory.h"
#include "txn/local_txn_manager.h"

namespace gphtap {
namespace {

class StorageKindsTest : public ::testing::Test {
 protected:
  StorageKindsTest() : mgr_(&clog_, &dlog_, &wal_) {}

  LocalXid BeginCommitted() {
    Gxid g = next_gxid_++;
    LocalXid x = *mgr_.AssignXid(g);
    mgr_.Commit(g);
    return x;
  }

  VisibilityContext Ctx() {
    VisibilityContext c;
    c.clog = &clog_;
    c.dlog = &dlog_;
    c.dsnap = nullptr;  // utility mode: local rules only
    c.lsnap = nullptr;
    return c;
  }

  TableDef Def(StorageKind storage, CompressionKind comp = CompressionKind::kNone) {
    TableDef def;
    def.id = 1;
    def.name = "t";
    def.schema = Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
    def.storage = storage;
    def.compression = comp;
    return def;
  }

  CommitLog clog_;
  DistributedLog dlog_;
  Wal wal_{0};
  LocalTxnManager mgr_;
  Gxid next_gxid_ = 1;
};

TEST_F(StorageKindsTest, AoRowInsertAndScan) {
  AoRowTable t(Def(StorageKind::kAoRow));
  LocalXid x = BeginCommitted();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i * 10)}).ok());
  }
  int count = 0;
  ASSERT_TRUE(t.Scan(Ctx(), [&](TupleId, const Row& r) {
                 EXPECT_EQ(r[1].int_val(), r[0].int_val() * 10);
                 ++count;
                 return true;
               }).ok());
  EXPECT_EQ(count, 100);
  EXPECT_EQ(t.StoredVersionCount(), 100u);
  EXPECT_FALSE(t.SupportsMvccWrite());
}

TEST_F(StorageKindsTest, AoRowAbortedInsertInvisible) {
  AoRowTable t(Def(StorageKind::kAoRow));
  Gxid g = next_gxid_++;
  LocalXid x = *mgr_.AssignXid(g);
  ASSERT_TRUE(t.Insert(x, Row{Datum(int64_t{1}), Datum(int64_t{2})}).ok());
  mgr_.Abort(g);
  int count = 0;
  t.Scan(Ctx(), [&](TupleId, const Row&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST_F(StorageKindsTest, AoColumnSealsGroupsAndRoundTrips) {
  AoColumnTable t(Def(StorageKind::kAoColumn, CompressionKind::kRle));
  LocalXid x = BeginCommitted();
  const int n = static_cast<int>(AoColumnTable::kRowGroupSize) * 2 + 100;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i % 3)}).ok());
  }
  int64_t sum = 0;
  int count = 0;
  ASSERT_TRUE(t.Scan(Ctx(), [&](TupleId, const Row& r) {
                 sum += r[0].int_val();
                 ++count;
                 return true;
               }).ok());
  EXPECT_EQ(count, n);
  EXPECT_EQ(sum, static_cast<int64_t>(n) * (n - 1) / 2);
}

TEST_F(StorageKindsTest, AoColumnProjectedScanReadsFewerBytes) {
  AoColumnTable wide(TableDef{
      2,
      "wide",
      Schema({{"a", TypeId::kInt64},
              {"b", TypeId::kString},
              {"c", TypeId::kInt64}}),
      DistributionPolicy::Hash({0}),
      StorageKind::kAoColumn,
      CompressionKind::kNone,
      std::nullopt,
      "",
      {}});
  LocalXid x = BeginCommitted();
  for (int64_t i = 0; i < static_cast<int64_t>(AoColumnTable::kRowGroupSize) * 2; ++i) {
    ASSERT_TRUE(
        wide.Insert(x, Row{Datum(i), Datum(std::string(100, 'x')), Datum(i)}).ok());
  }
  uint64_t before = wide.BytesScanned();
  wide.ScanColumns(Ctx(), {0}, [](TupleId, const Row&) { return true; });
  uint64_t narrow_cost = wide.BytesScanned() - before;
  before = wide.BytesScanned();
  wide.Scan(Ctx(), [](TupleId, const Row&) { return true; });
  uint64_t full_cost = wide.BytesScanned() - before;
  // The string column dominates: projecting it away must save >5x.
  EXPECT_LT(narrow_cost * 5, full_cost);
}

TEST_F(StorageKindsTest, AoColumnCompressionReducesFootprint) {
  AoColumnTable rle(Def(StorageKind::kAoColumn, CompressionKind::kRle));
  AoColumnTable raw(Def(StorageKind::kAoColumn, CompressionKind::kNone));
  LocalXid x = BeginCommitted();
  for (int64_t i = 0; i < static_cast<int64_t>(AoColumnTable::kRowGroupSize) * 4; ++i) {
    Row r{Datum(int64_t{7}), Datum(int64_t{7})};  // constant: RLE's best case
    ASSERT_TRUE(rle.Insert(x, r).ok());
    ASSERT_TRUE(raw.Insert(x, r).ok());
  }
  EXPECT_LT(rle.ColumnCompressedBytes(0) * 4, raw.ColumnCompressedBytes(0));
}

TEST_F(StorageKindsTest, ExternalTableRoundTrip) {
  std::string path = ::testing::TempDir() + "/gphtap_ext_test.csv";
  std::remove(path.c_str());
  TableDef def = Def(StorageKind::kExternal);
  def.external_path = path;
  ExternalTable t(def);
  LocalXid x = BeginCommitted();
  ASSERT_TRUE(t.Insert(x, Row{Datum(int64_t{1}), Datum(int64_t{10})}).ok());
  ASSERT_TRUE(t.Insert(x, Row{Datum(int64_t{2}), Datum::Null()}).ok());
  std::vector<Row> rows;
  ASSERT_TRUE(t.Scan(Ctx(), [&](TupleId, const Row& r) {
                 rows.push_back(r);
                 return true;
               }).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].int_val(), 10);
  EXPECT_TRUE(rows[1][1].is_null());
  EXPECT_EQ(t.StoredVersionCount(), 2u);
  std::remove(path.c_str());
}

TEST_F(StorageKindsTest, ExternalTableMissingFileIsEmpty) {
  TableDef def = Def(StorageKind::kExternal);
  def.external_path = "/nonexistent/dir/never.csv";
  ExternalTable t(def);
  int count = 0;
  EXPECT_TRUE(t.Scan(Ctx(), [&](TupleId, const Row&) {
                 ++count;
                 return true;
               }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(StorageKindsTest, CsvParseErrors) {
  Schema s({{"k", TypeId::kInt64}});
  EXPECT_FALSE(ExternalTable::ParseCsvLine("notanint", s).ok());
  EXPECT_FALSE(ExternalTable::ParseCsvLine("1,2", s).ok());
  auto ok = ExternalTable::ParseCsvLine("42", s);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].int_val(), 42);
}

TEST_F(StorageKindsTest, PartitionedPolymorphicStorageRoutesAndScans) {
  // Figure 5 shape: hot heap partition, cold AO-column partition.
  TableDef def = Def(StorageKind::kHeap);
  PartitionSpec spec;
  spec.partition_col = 0;
  spec.ranges.push_back({"hot", Datum(int64_t{100}), Datum::Null(), StorageKind::kHeap, ""});
  spec.ranges.push_back(
      {"cold", Datum::Null(), Datum(int64_t{100}), StorageKind::kAoColumn, ""});
  def.partitions = spec;
  auto table = CreateTable(def, &clog_, nullptr);
  auto* part = dynamic_cast<PartitionedTable*>(table.get());
  ASSERT_NE(part, nullptr);
  ASSERT_EQ(part->num_leaves(), 2u);

  LocalXid x = BeginCommitted();
  ASSERT_TRUE(table->Insert(x, Row{Datum(int64_t{500}), Datum(int64_t{1})}).ok());
  ASSERT_TRUE(table->Insert(x, Row{Datum(int64_t{5}), Datum(int64_t{2})}).ok());

  EXPECT_EQ(part->leaf(0)->StoredVersionCount(), 1u);  // hot heap got 500
  EXPECT_EQ(part->leaf(1)->StoredVersionCount(), 1u);  // cold AO-col got 5
  EXPECT_TRUE(part->leaf(0)->SupportsMvccWrite());
  EXPECT_FALSE(part->leaf(1)->SupportsMvccWrite());

  int count = 0;
  ASSERT_TRUE(table->Scan(Ctx(), [&](TupleId, const Row&) {
                 ++count;
                 return true;
               }).ok());
  EXPECT_EQ(count, 2);

  // Out-of-range value is rejected.
  EXPECT_FALSE(table->Insert(x, Row{Datum::Null(), Datum(int64_t{0})}).ok());
}

TEST_F(StorageKindsTest, AoVisimapDeleteHidesRows) {
  AoRowTable t(Def(StorageKind::kAoRow));
  LocalXid x = BeginCommitted();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  LocalXid deleter = BeginCommitted();
  ASSERT_TRUE(t.MarkDeleted(3, deleter).ok());
  ASSERT_TRUE(t.MarkDeleted(7, deleter).ok());
  EXPECT_FALSE(t.MarkDeleted(99, deleter).ok());  // out of range
  int count = 0;
  t.Scan(Ctx(), [&](TupleId tid, const Row&) {
    EXPECT_NE(tid, 3u);
    EXPECT_NE(tid, 7u);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 8);
  EXPECT_EQ(t.VisimapSize(), 2u);
}

TEST_F(StorageKindsTest, AoVisimapDeleteByAbortedTxnStaysVisible) {
  AoRowTable t(Def(StorageKind::kAoRow));
  LocalXid x = BeginCommitted();
  ASSERT_TRUE(t.Insert(x, Row{Datum(int64_t{1}), Datum(int64_t{1})}).ok());
  // Deleter aborts: the visimap entry must not hide the row.
  Gxid g = next_gxid_++;
  LocalXid aborted = *mgr_.AssignXid(g);
  ASSERT_TRUE(t.MarkDeleted(0, aborted).ok());
  mgr_.Abort(g);
  int count = 0;
  t.Scan(Ctx(), [&](TupleId, const Row&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST_F(StorageKindsTest, AoColumnVisimapAcrossSealedGroups) {
  AoColumnTable t(Def(StorageKind::kAoColumn, CompressionKind::kRle));
  LocalXid x = BeginCommitted();
  const int64_t n = static_cast<int64_t>(AoColumnTable::kRowGroupSize) + 100;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  LocalXid deleter = BeginCommitted();
  // One tid in a sealed group, one in the open tail.
  ASSERT_TRUE(t.MarkDeleted(5, deleter).ok());
  ASSERT_TRUE(t.MarkDeleted(static_cast<TupleId>(n - 1), deleter).ok());
  int64_t count = 0;
  t.Scan(Ctx(), [&](TupleId, const Row&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, n - 2);
}

TEST_F(StorageKindsTest, EveryKindRejectsAnIntForADoubleColumn) {
  const std::string path = ::testing::TempDir() + "gphtap_int_for_double.csv";
  for (StorageKind kind : {StorageKind::kHeap, StorageKind::kAoRow, StorageKind::kAoColumn,
                           StorageKind::kExternal}) {
    TableDef def = Def(kind);
    def.schema = Schema({{"k", TypeId::kInt64}, {"v", TypeId::kDouble}});
    def.external_path = path;
    std::unique_ptr<Table> t = CreateTable(def, &clog_, nullptr);
    LocalXid x = BeginCommitted();
    auto bad = t->Insert(x, Row{Datum(int64_t{1}), Datum(int64_t{3})});
    ASSERT_FALSE(bad.ok()) << StorageKindName(kind);
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(t->Insert(x, Row{Datum(int64_t{1}), Datum(3.0)}).ok());
  }
  std::remove(path.c_str());
}

TEST_F(StorageKindsTest, FactoryCreatesEveryKind) {
  EXPECT_NE(CreateTable(Def(StorageKind::kHeap), &clog_, nullptr), nullptr);
  EXPECT_NE(CreateTable(Def(StorageKind::kAoRow), &clog_, nullptr), nullptr);
  EXPECT_NE(CreateTable(Def(StorageKind::kAoColumn), &clog_, nullptr), nullptr);
  TableDef e = Def(StorageKind::kExternal);
  e.external_path = "/tmp/x.csv";
  EXPECT_NE(CreateTable(e, &clog_, nullptr), nullptr);
}

}  // namespace
}  // namespace gphtap
