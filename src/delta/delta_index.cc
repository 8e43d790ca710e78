#include "delta/delta_index.h"

namespace gphtap {

DeltaIndex::DeltaIndex(int segment_index, TableDefLookup lookup, MetricsRegistry* metrics)
    : segment_index_(segment_index), lookup_(std::move(lookup)), metrics_(metrics) {
  if (metrics_ != nullptr) {
    applied_records_ = metrics_->counter("delta.applied_records");
    rows_ = metrics_->counter("delta.rows");
    deletes_ = metrics_->counter("delta.deletes");
  }
}

DeltaIndex::~DeltaIndex() { Stop(); }

void DeltaIndex::Start(const ChangeLog* log) {
  feed_ = std::make_unique<LogTailer>(log, [this](const ChangeRecord& rec, std::stop_token) {
    ApplyRecord(rec);
    return Status::OK();
  });
}

void DeltaIndex::Stop() {
  if (feed_ != nullptr) feed_->Stop();
}

Status DeltaIndex::WaitForApplied(uint64_t target, int64_t timeout_us) {
  if (feed_ == nullptr) return Status::Unavailable("delta feed not started");
  return feed_->WaitForApplied(target, timeout_us);
}

DeltaStore* DeltaIndex::StoreForRecord(TableId table) {
  {
    std::shared_lock<std::shared_mutex> lk(stores_mu_);
    auto it = stores_.find(table);
    if (it != stores_.end()) return it->second.get();
  }
  StatusOr<TableDef> def = lookup_(table);
  std::unique_ptr<DeltaStore> store;
  if (def.ok() && def.value().storage == StorageKind::kHeap &&
      !def.value().partitions.has_value() && !def.value().is_system_view) {
    store = std::make_unique<DeltaStore>(def.value());
  }
  std::unique_lock<std::shared_mutex> lk(stores_mu_);
  auto it = stores_.emplace(table, std::move(store)).first;
  return it->second.get();
}

void DeltaIndex::ApplyRecord(const ChangeRecord& rec) {
  if (applied_records_ != nullptr) applied_records_->Add(1);
  switch (rec.kind) {
    case ChangeKind::kTxnBegin:
    case ChangeKind::kTxnCommit:
    case ChangeKind::kTxnAbort:
    case ChangeKind::kTxnPrepare:
    case ChangeKind::kLink:  // ctid chains are a row-store concern
      return;
    default:
      break;
  }
  DeltaStore* store = StoreForRecord(rec.table);
  if (store == nullptr) return;  // not a plain heap table
  switch (rec.kind) {
    case ChangeKind::kInsert:
      store->ApplyInsert(rec.tid, rec.xid, rec.row);
      if (rows_ != nullptr) rows_->Add(1);
      break;
    case ChangeKind::kSetXmax:
      store->ApplyDelete(rec.tid, rec.xid);
      if (deletes_ != nullptr) deletes_->Add(1);
      break;
    case ChangeKind::kFreeSlot:
      store->ApplyFreeSlot(rec.tid);
      break;
    case ChangeKind::kTruncate:
      store->ApplyTruncate();
      break;
    case ChangeKind::kFreeGroup:
      store->ApplyFreeGroup(static_cast<size_t>(rec.tid), rec.tid2);
      break;
    default:
      break;
  }
}

DeltaStore* DeltaIndex::store(TableId id) const {
  std::shared_lock<std::shared_mutex> lk(stores_mu_);
  auto it = stores_.find(id);
  return it == stores_.end() ? nullptr : it->second.get();
}

std::vector<DeltaIndex::TableStatus> DeltaIndex::TableStatuses() const {
  std::shared_lock<std::shared_mutex> lk(stores_mu_);
  std::vector<TableStatus> out;
  for (const auto& [id, store] : stores_) {
    if (store == nullptr) continue;
    TableStatus ts;
    ts.id = id;
    ts.name = store->def().name;
    ts.stats = store->Stats();
    out.push_back(std::move(ts));
  }
  return out;
}

DeltaSealResult DeltaIndex::SealAndReclaim(const CommitLog* clog, ChangeLog* log,
                                           const AoRowDeadFn& dead) {
  std::vector<DeltaStore*> stores;
  {
    std::shared_lock<std::shared_mutex> lk(stores_mu_);
    for (const auto& [id, store] : stores_) {
      if (store != nullptr) stores.push_back(store.get());
    }
  }
  DeltaSealResult total;
  for (DeltaStore* store : stores) {
    DeltaSealResult sealed = store->SealCold(clog);
    total.groups_sealed += sealed.groups_sealed;
    total.rows_sealed += sealed.rows_sealed;
    AoReclaimResult reclaimed = store->ReclaimDeadGroups(dead, log);
    if (metrics_ != nullptr) {
      if (sealed.groups_sealed > 0) {
        metrics_->counter("delta.sealed_groups")->Add(sealed.groups_sealed);
        metrics_->counter("delta.sealed_rows")->Add(sealed.rows_sealed);
      }
      if (reclaimed.groups_freed > 0) {
        metrics_->counter("delta.freed_groups")->Add(reclaimed.groups_freed);
      }
    }
  }
  if (metrics_ != nullptr) metrics_->counter("delta.seal_passes")->Add(1);
  return total;
}

}  // namespace gphtap
