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
  std::vector<int> all(schema().num_columns());
  std::iota(all.begin(), all.end(), 0);
  return ScanColumns(ctx, all, fn);
}

Status AoColumnTable::ScanColumns(const VisibilityContext& ctx,
                                  const std::vector<int>& cols, const ScanCallback& fn) {
  return ScanGroups(ctx, cols, [&](size_t gi, ColumnBatch&& batch) {
    for (int32_t r : batch.sel) {
      if (!fn(gi * kRowGroupSize + static_cast<size_t>(r), batch.MaterializeRow(r))) {
        return false;
      }
    }
    return true;
  });
}

Status AoColumnTable::ScanBatches(const VisibilityContext& ctx,
                                  const std::vector<int>& cols,
                                  const BatchScanCallback& fn) {
  return ScanGroups(ctx, cols,
                    [&](size_t, ColumnBatch&& batch) { return fn(std::move(batch)); });
}

Status AoColumnTable::ScanGroups(
    const VisibilityContext& ctx, const std::vector<int>& cols,
    const std::function<bool(size_t, ColumnBatch&&)>& fn) {
  // Groups that exist when the scan starts hold every row its snapshot can
  // see. Each decodes under its own latch hold — sealed by then or not — and
  // the callback runs outside the latch, so it may write to this table.
  size_t num_groups;
  {
    std::shared_lock<std::shared_mutex> g(latch_);
    num_groups = store_.num_groups();
  }
  for (size_t gi = 0; gi < num_groups; ++gi) {
    ColumnBatch batch;
    GPHTAP_ASSIGN_OR_RETURN(bool any, DecodeGroupBatch(gi, ctx, cols, &batch));
    if (any && !fn(gi, std::move(batch))) break;
  }
  return Status::OK();
}

size_t AoColumnTable::NumSealedGroups() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return store_.num_sealed();
}

StatusOr<bool> AoColumnTable::DecodeGroupBatch(size_t gi, const VisibilityContext& ctx,
                                               const std::vector<int>& cols,
                                               ColumnBatch* batch) {
  std::shared_lock<std::shared_mutex> g(latch_);
  GPHTAP_ASSIGN_OR_RETURN(bool any, store_.Decode(gi, cols, ctx, batch));
  if (!any) return false;
  uint64_t bytes = 0;
  if (gi < store_.num_sealed()) {
    for (int c : cols) bytes += store_.CompressedBytes(gi, c);
  } else {
    bytes = 16 * cols.size() * batch->rows;
  }
  bytes_scanned_.fetch_add(bytes, std::memory_order_relaxed);
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
    return Status::NotFound("AO-column free-group replay: group " +
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
    return Status::NotFound("AO-column tid " + std::to_string(tid));
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
