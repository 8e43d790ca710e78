// ColumnGroupStore, the sealed column-group storage under AO-column tables
// and the delta store: positional groups across sealing and freeing, typed
// open runs that survive a partial seal, per-row visibility, and dropped rows.
#include <gtest/gtest.h>

#include "storage/column_group_store.h"

namespace gphtap {
namespace {

constexpr size_t kGroup = ColumnGroupStore::kGroupRows;

Schema TestSchema() {
  return Schema({{"k", TypeId::kInt64}, {"w", TypeId::kDouble}, {"s", TypeId::kString}});
}

// Row i: k = i, w = i / 2 (NULL when i % 7 == 3), s = "s<i % 3>".
Row MakeRow(size_t i) {
  return Row{Datum(static_cast<int64_t>(i)),
             i % 7 == 3 ? Datum::Null() : Datum(static_cast<double>(i) / 2),
             Datum("s" + std::to_string(i % 3))};
}

class ColumnGroupStoreTest : public ::testing::Test {
 protected:
  ColumnGroupStoreTest() {
    clog_.SetState(kXid, TxnState::kCommitted);
    ctx_.clog = &clog_;
  }

  // Checks that `batch` holds rows [first, first + batch.rows) of MakeRow.
  static void ExpectRows(const ColumnBatch& batch, size_t first) {
    for (int32_t r : batch.sel) {
      Row want = MakeRow(first + static_cast<size_t>(r));
      Row got = batch.MaterializeRow(r);
      ASSERT_EQ(got.size(), want.size());
      for (size_t c = 0; c < want.size(); ++c) {
        EXPECT_TRUE(got[c] == want[c] && got[c].is_double() == want[c].is_double())
            << "row " << first + r << " col " << c;
      }
    }
  }

  static constexpr LocalXid kXid = 5;
  CommitLog clog_;
  VisibilityContext ctx_;
  ColumnGroupStore store_{TestSchema(), CompressionKind::kRle};
};

TEST_F(ColumnGroupStoreTest, GroupsStayPositionalAcrossSealAndFree) {
  const size_t n = 2 * kGroup + kGroup / 2;
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(store_.Append(MakeRow(i), kXid), i);
  store_.SealFront();
  store_.SealFront();
  EXPECT_EQ(store_.num_sealed(), 2u);
  EXPECT_EQ(store_.open_rows(), kGroup / 2);
  ASSERT_EQ(store_.num_groups(), 3u);

  for (size_t gi = 0; gi < 3; ++gi) {
    ColumnBatch batch;
    ASSERT_TRUE(*store_.Decode(gi, {0, 1, 2}, ctx_, &batch));
    EXPECT_EQ(batch.rows, gi < 2 ? kGroup : kGroup / 2);
    EXPECT_EQ(batch.sel.size(), batch.rows);
    ExpectRows(batch, gi * kGroup);
  }

  store_.Free(0);
  store_.Free(0);  // idempotent
  EXPECT_EQ(store_.num_freed(), 1u);
  EXPECT_EQ(store_.size(), n);
  ColumnBatch batch;
  EXPECT_FALSE(*store_.Decode(0, {0}, ctx_, &batch));
  EXPECT_EQ(store_.CompressedBytes(0, 0), 0u);
  ASSERT_TRUE(*store_.Decode(1, {0, 1, 2}, ctx_, &batch));
  ExpectRows(batch, kGroup);

  std::vector<AoGroupInfo> infos =
      store_.GroupInfos([](LocalXid, LocalXid) { return false; });
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_TRUE(infos[0].freed);
  EXPECT_EQ(infos[0].rows, 0u);
  EXPECT_EQ(infos[1].live, kGroup);
  EXPECT_FALSE(infos[2].sealed);
  EXPECT_EQ(infos[2].rows, kGroup / 2);
}

TEST_F(ColumnGroupStoreTest, PartialSealKeepsTheTypedOpenRun) {
  const size_t n = kGroup + 300;
  for (size_t i = 0; i < n; ++i) store_.Append(MakeRow(i), kXid);
  store_.SealFront();
  ASSERT_EQ(store_.open_rows(), 300u);
  ColumnBatch batch;
  ASSERT_TRUE(*store_.Decode(1, {1, 0}, ctx_, &batch));
  ASSERT_EQ(batch.rows, 300u);
  EXPECT_EQ(batch.columns[0].tag, ColumnVector::Tag::kDouble);
  EXPECT_EQ(batch.columns[1].tag, ColumnVector::Tag::kInt64);
  for (int32_t r : batch.sel) {
    const size_t i = kGroup + static_cast<size_t>(r);
    EXPECT_EQ(batch.columns[1].ints[static_cast<size_t>(r)], static_cast<int64_t>(i));
    EXPECT_EQ(batch.columns[0].IsNull(static_cast<size_t>(r)), i % 7 == 3);
  }
}

TEST_F(ColumnGroupStoreTest, LeadingNullDoubleColumnStaysUnboxed) {
  // Column w's first row is NULL: the open run takes its tag from the schema,
  // not from that value, so w decodes as doubles wherever its rows live.
  auto row = [](size_t i) {
    return Row{Datum(static_cast<int64_t>(i)),
               i % kGroup == 0 ? Datum::Null() : Datum(static_cast<double>(i) / 4),
               Datum::Null()};
  };
  auto expect_doubles = [&](size_t gi, size_t rows) {
    ColumnBatch batch;
    ASSERT_TRUE(*store_.Decode(gi, {1, 2}, ctx_, &batch));
    ASSERT_EQ(batch.rows, rows);
    const ColumnVector& w = batch.columns[0];
    ASSERT_EQ(w.tag, ColumnVector::Tag::kDouble) << "group " << gi;
    EXPECT_EQ(batch.columns[1].tag, ColumnVector::Tag::kDatum);
    for (size_t r = 0; r < rows; ++r) {
      const size_t i = gi * kGroup + r;
      ASSERT_EQ(w.IsNull(r), i % kGroup == 0) << i;
      if (!w.IsNull(r)) {
        EXPECT_EQ(w.dbls[r], static_cast<double>(i) / 4) << i;
      }
      EXPECT_TRUE(batch.columns[1].IsNull(r));
    }
  };
  for (size_t i = 0; i < 10; ++i) store_.Append(row(i), kXid);
  expect_doubles(0, 10);  // open run
  for (size_t i = 10; i < kGroup + 10; ++i) store_.Append(row(i), kXid);
  store_.SealFront();
  expect_doubles(0, kGroup);  // sealed group
  expect_doubles(1, 10);      // open run after a partial seal, first row NULL
}

TEST_F(ColumnGroupStoreTest, VisibilityDeletesAndDroppedRows) {
  const LocalXid running = 6, deleter = 7;
  clog_.Register(running);
  clog_.SetState(deleter, TxnState::kCommitted);
  for (size_t i = 0; i < kGroup; ++i) {
    store_.Append(MakeRow(i), i == 1 ? running : kXid);
  }
  store_.SealFront();
  store_.SetXmax(2, deleter);
  store_.Drop(3);
  ColumnBatch batch;
  ASSERT_TRUE(*store_.Decode(0, {0}, ctx_, &batch));
  EXPECT_EQ(batch.sel.size(), kGroup - 3);
  EXPECT_EQ(batch.sel[0], 0);
  EXPECT_EQ(batch.sel[1], 4);

  // A dropped row is dead whatever the caller's predicate says; the group
  // frees once every other row is dead too.
  auto deleted = [](LocalXid, LocalXid xmax) { return xmax != kInvalidLocalXid; };
  EXPECT_TRUE(store_.FreeDeadGroups(deleted).empty());
  for (size_t pos = 0; pos < kGroup; ++pos) {
    if (pos != 3) store_.SetXmax(pos, deleter);
  }
  EXPECT_EQ(store_.FreeDeadGroups(deleted), std::vector<size_t>{0});
  EXPECT_FALSE(*store_.Decode(0, {0}, ctx_, &batch));
}

}  // namespace
}  // namespace gphtap
