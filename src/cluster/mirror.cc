#include "cluster/mirror.h"

#include <utility>

#include "common/clock.h"
#include "storage/replay.h"

namespace gphtap {

Status MirrorSegment::CreateTable(const TableDef& def) {
  std::unique_lock<std::shared_mutex> g(tables_mu_);
  if (tables_.count(def.id)) return Status::AlreadyExists("table id on mirror");
  // Mirrors have no buffer-pool cost model of their own (replay is sequential).
  tables_[def.id] = gphtap::CreateTable(def, &clog_, nullptr);
  return Status::OK();
}

Status MirrorSegment::DropTable(TableId id) {
  std::unique_lock<std::shared_mutex> g(tables_mu_);
  tables_.erase(id);
  return Status::OK();
}

Table* MirrorSegment::GetTable(TableId id) {
  std::shared_lock<std::shared_mutex> g(tables_mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

void MirrorSegment::Start(const ChangeLog* source) {
  source_ = source;
  replayer_ = std::make_unique<LogTailer>(
      source, [this](const ChangeRecord& record, std::stop_token stop) {
        return Apply(record, std::move(stop));
      });
}

void MirrorSegment::Stop() {
  if (replayer_ != nullptr) replayer_->Stop();
}

Status MirrorSegment::Apply(const ChangeRecord& record, std::stop_token stop) {
  // An armed "mirror.replay_stall" (scoped by primary index) freezes replay
  // with the record in hand, so applied lag is observable until disarmed.
  while (!stop.stop_requested() && faults_ != nullptr &&
         faults_->IsArmed(fault_points::kMirrorReplayStall, primary_index_)) {
    PreciseSleepUs(100);
  }
  switch (record.kind) {
    case ChangeKind::kTxnBegin:
      clog_.Register(record.xid);
      return Status::OK();
    case ChangeKind::kTxnPrepare:
      clog_.SetState(record.xid, TxnState::kPrepared);
      return Status::OK();
    case ChangeKind::kTxnCommit:
      clog_.SetState(record.xid, TxnState::kCommitted);
      return Status::OK();
    case ChangeKind::kTxnAbort:
      clog_.SetState(record.xid, TxnState::kAborted);
      return Status::OK();
    default:
      break;
  }

  Table* table = GetTable(record.table);
  if (table == nullptr) {
    return Status::NotFound("mirror replay: table " + std::to_string(record.table));
  }
  return ApplyDataChange(table, record);
}

Status MirrorSegment::CatchUp(int64_t timeout_ms) {
  if (replayer_ == nullptr) return Status::OK();
  GPHTAP_RETURN_IF_ERROR(replayer_->WaitForApplied(source_->size(), timeout_ms * 1000));
  return health();
}

}  // namespace gphtap
