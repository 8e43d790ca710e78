#include "storage/column_store.h"

#include <numeric>

namespace gphtap {

AoColumnTable::AoColumnTable(TableDef def)
    : Table(std::move(def)), store_(schema(), this->def().compression) {}

StatusOr<TupleId> AoColumnTable::Insert(LocalXid xid, const Row& row) {
  GPHTAP_RETURN_IF_ERROR(schema().CheckRow(row));
  std::unique_lock<std::shared_mutex> g(latch_);
  TupleId tid = store_.Append(row, xid);
  if (change_log() != nullptr) {
    change_log()->Append(
        ChangeRecord{ChangeKind::kInsert, id(), tid, kInvalidTupleId, xid, row});
  }
  if (store_.open_rows() == kRowGroupSize) store_.SealFront();
  return tid;
}

Status AoColumnTable::Scan(const VisibilityContext& ctx, const ScanCallback& fn) {
  return ScanBounded(ctx, {}, {}, fn, nullptr);
}

Status AoColumnTable::ScanColumns(const VisibilityContext& ctx,
                                  const std::vector<int>& cols, const ScanCallback& fn) {
  return ScanRows(ctx, cols, {}, fn, nullptr);
}

Status AoColumnTable::ScanBounded(const VisibilityContext& ctx, const std::vector<int>& cols,
                                  const ScanBounds& bounds, const ScanCallback& fn,
                                  uint64_t* groups_skipped) {
  if (!cols.empty()) return ScanRows(ctx, cols, bounds, fn, groups_skipped);
  std::vector<int> all(schema().num_columns());
  std::iota(all.begin(), all.end(), 0);
  return ScanRows(ctx, all, bounds, fn, groups_skipped);
}

Status AoColumnTable::ScanRows(const VisibilityContext& ctx, const std::vector<int>& cols,
                               const ScanBounds& bounds, const ScanCallback& fn,
                               uint64_t* groups_skipped) {
  // A row-oriented table stores whole rows: it reads every column, then
  // projects `cols` out of each row.
  const bool whole_rows = def().storage == StorageKind::kAoRow;
  std::vector<int> read = cols;
  if (whole_rows) {
    read.resize(schema().num_columns());
    std::iota(read.begin(), read.end(), 0);
  }
  return ScanGroups(
      ctx, read, bounds,
      [&](size_t gi, ColumnBatch&& batch) {
        Row row(cols.size());
        for (int32_t r : batch.sel) {
          for (size_t k = 0; k < cols.size(); ++k) {
            const size_t c = whole_rows ? static_cast<size_t>(cols[k]) : k;
            row[k] = batch.columns[c].GetDatum(static_cast<size_t>(r));
          }
          if (!fn(gi * kRowGroupSize + static_cast<size_t>(r), row)) return false;
        }
        return true;
      },
      groups_skipped);
}

Status AoColumnTable::ScanBatches(const VisibilityContext& ctx,
                                  const std::vector<int>& cols,
                                  const BatchScanCallback& fn, const ScanBounds& bounds,
                                  uint64_t* groups_skipped) {
  return ScanGroups(
      ctx, cols, bounds, [&](size_t, ColumnBatch&& batch) { return fn(std::move(batch)); },
      groups_skipped);
}

Status AoColumnTable::ScanGroups(const VisibilityContext& ctx,
                                 const std::vector<int>& cols, const ScanBounds& bounds,
                                 const std::function<bool(size_t, ColumnBatch&&)>& fn,
                                 uint64_t* groups_skipped) {
  return store_.Scan(
      latch_, cols, bounds, ctx,
      [&](size_t gi, const ColumnGroupStore::GroupRead& read, ColumnBatch&& batch) {
        bytes_scanned_.fetch_add(read.bytes, std::memory_order_relaxed);
        return fn(gi, std::move(batch));
      },
      groups_skipped);
}

size_t AoColumnTable::NumSealedGroups() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return store_.num_sealed();
}

StatusOr<bool> AoColumnTable::DecodeGroupBatch(size_t gi, const VisibilityContext& ctx,
                                               const std::vector<int>& cols,
                                               ColumnBatch* batch) {
  ColumnGroupStore::GroupRead read;
  {
    std::shared_lock<std::shared_mutex> g(latch_);
    GPHTAP_ASSIGN_OR_RETURN(bool any, store_.Decode(gi, cols, ctx, batch, &read));
    if (!any) return false;
  }
  bytes_scanned_.fetch_add(read.bytes, std::memory_order_relaxed);
  return true;
}

std::vector<AoGroupInfo> AoColumnTable::GroupInfos(const AoRowDeadFn& dead) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return store_.GroupInfos(dead);
}

AoReclaimResult AoColumnTable::ReclaimDeadGroups(const AoRowDeadFn& dead) {
  std::unique_lock<std::shared_mutex> g(latch_);
  AoReclaimResult result;
  for (size_t gi : store_.FreeDeadGroups(dead)) {
    result.rows_freed += kRowGroupSize;
    ++result.groups_freed;
    if (change_log() != nullptr) {
      change_log()->Append(ChangeRecord{ChangeKind::kFreeGroup, id(),
                                        static_cast<TupleId>(gi), kInvalidTupleId,
                                        kInvalidLocalXid, {}});
    }
  }
  return result;
}

Status AoColumnTable::ApplyFreeGroup(size_t group_index) {
  std::unique_lock<std::shared_mutex> g(latch_);
  if (group_index >= store_.num_sealed()) {
    return Status::NotFound("AO free-group replay: group " +
                            std::to_string(group_index));
  }
  store_.Free(group_index);
  return Status::OK();
}

Status AoColumnTable::Truncate() {
  std::unique_lock<std::shared_mutex> g(latch_);
  store_.Clear();
  if (change_log() != nullptr) {
    change_log()->Append(ChangeRecord{ChangeKind::kTruncate, id(), kInvalidTupleId,
                                      kInvalidTupleId, kInvalidLocalXid, {}});
  }
  return Status::OK();
}

uint64_t AoColumnTable::StoredVersionCount() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return (store_.num_sealed() - store_.num_freed()) * kRowGroupSize + store_.open_rows();
}

uint64_t AoColumnTable::BytesScanned() const {
  return bytes_scanned_.load(std::memory_order_relaxed);
}

Status AoColumnTable::MarkDeleted(TupleId tid, LocalXid xid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  if (tid >= store_.size()) {
    return Status::NotFound("AO tid " + std::to_string(tid));
  }
  store_.SetXmax(tid, xid);
  if (change_log() != nullptr) {
    change_log()->Append(
        ChangeRecord{ChangeKind::kSetXmax, id(), tid, kInvalidTupleId, xid, {}});
  }
  return Status::OK();
}

uint64_t AoColumnTable::ColumnCompressedBytes(int col) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  uint64_t total = 0;
  for (size_t gi = 0; gi < store_.num_sealed(); ++gi) total += store_.CompressedBytes(gi, col);
  return total;
}

}  // namespace gphtap
