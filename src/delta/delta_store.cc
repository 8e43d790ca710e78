#include "delta/delta_store.h"

#include <numeric>

namespace gphtap {

DeltaStore::DeltaStore(TableDef def)
    : def_(std::move(def)), store_(def_.schema, def_.compression) {}

void DeltaStore::ApplyInsert(TupleId tid, LocalXid xid, const Row& row) {
  std::unique_lock<std::shared_mutex> g(latch_);
  // Heap tids are reused after vacuum; a mapping that still exists here is a
  // stale version of the slot — retire it before the new row takes the tid.
  auto [it, fresh] = tid_pos_.try_emplace(tid, store_.size());
  if (!fresh) {
    store_.Drop(it->second);
    it->second = store_.size();
  }
  store_.Append(row, xid);
}

void DeltaStore::ApplyDelete(TupleId tid, LocalXid xid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  auto it = tid_pos_.find(tid);
  if (it == tid_pos_.end()) return;
  store_.SetXmax(it->second, xid);
  ++deletes_;
}

void DeltaStore::ApplyFreeSlot(TupleId tid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  auto it = tid_pos_.find(tid);
  if (it == tid_pos_.end()) return;
  store_.Drop(it->second);
  tid_pos_.erase(it);  // the heap slot may be reused by a future insert
}

void DeltaStore::ApplyTruncate() {
  std::unique_lock<std::shared_mutex> g(latch_);
  store_.Clear();
  tid_pos_.clear();
  pending_free_.clear();
  ++truncate_epoch_;
}

void DeltaStore::ApplyFreeGroup(size_t group_index, uint64_t epoch) {
  std::unique_lock<std::shared_mutex> g(latch_);
  if (epoch != truncate_epoch_) return;  // free predates a truncate: stale
  if (group_index < store_.num_sealed()) {
    store_.Free(group_index);
  } else {
    // Seals are local, not logged: a replica replaying the log may reach this
    // free before it has sealed the group. Defer; SealCold lands it.
    pending_free_.insert(group_index);
  }
}

DeltaSealResult DeltaStore::SealCold(const CommitLog* clog) {
  std::unique_lock<std::shared_mutex> g(latch_);
  DeltaSealResult result;
  while (store_.open_rows() >= kGroupRows) {
    const size_t gi = store_.num_sealed();
    if (clog != nullptr) {
      bool decided = true;
      for (size_t pos = gi * kGroupRows; pos < (gi + 1) * kGroupRows && decided; ++pos) {
        TxnState s = clog->GetState(store_.xmin(pos));
        decided = (s == TxnState::kCommitted || s == TxnState::kAborted);
      }
      if (!decided) break;  // the run is still hot; try again next pass
    }
    store_.SealFront();
    ++result.groups_sealed;
    result.rows_sealed += kGroupRows;
    // A free that arrived from the log before we sealed this group lands now.
    if (pending_free_.erase(gi) > 0) store_.Free(gi);
  }
  return result;
}

AoReclaimResult DeltaStore::ReclaimDeadGroups(const AoRowDeadFn& dead, ChangeLog* log) {
  std::unique_lock<std::shared_mutex> g(latch_);
  AoReclaimResult result;
  for (size_t gi : store_.FreeDeadGroups(dead)) {
    result.groups_freed += 1;
    result.rows_freed += kGroupRows;
    if (log != nullptr) {
      ChangeRecord rec;
      rec.kind = ChangeKind::kFreeGroup;
      rec.table = def_.id;
      rec.tid = gi;
      rec.tid2 = truncate_epoch_;  // stamps the epoch; see ApplyFreeGroup
      log->Append(std::move(rec));
    }
  }
  return result;
}

Status DeltaStore::ScanBatches(const VisibilityContext& ctx, const std::vector<int>& cols,
                               const BatchScanCallback& fn, uint64_t* sealed_rows_scanned,
                               uint64_t* open_rows_scanned) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  std::vector<int> all;
  if (cols.empty()) {
    all.resize(def_.schema.num_columns());
    std::iota(all.begin(), all.end(), 0);
  }
  const std::vector<int>& touched = cols.empty() ? all : cols;
  for (size_t gi = 0; gi < store_.num_groups(); ++gi) {
    ColumnBatch batch;
    GPHTAP_ASSIGN_OR_RETURN(bool any, store_.Decode(gi, touched, ctx, &batch));
    if (!any) continue;
    uint64_t* scanned = gi < store_.num_sealed() ? sealed_rows_scanned : open_rows_scanned;
    if (scanned != nullptr) *scanned += batch.sel.size();
    if (!fn(std::move(batch))) break;
  }
  return Status::OK();
}

DeltaStoreStats DeltaStore::Stats() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  DeltaStoreStats s;
  s.open_rows = store_.open_rows();
  s.sealed_groups = store_.num_sealed();
  s.freed_groups = store_.num_freed();
  s.sealed_rows = (store_.num_sealed() - store_.num_freed()) * kGroupRows;
  s.deletes = deletes_;
  s.pending_frees = pending_free_.size();
  return s;
}

}  // namespace gphtap
