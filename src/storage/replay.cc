#include "storage/replay.h"

#include "storage/column_store.h"
#include "storage/heap_table.h"

namespace gphtap {

Status ApplyDataChange(Table* table, const ChangeRecord& record) {
  auto* heap = dynamic_cast<HeapTable*>(table);
  switch (record.kind) {
    case ChangeKind::kInsert:
      if (heap != nullptr) return heap->ApplyInsertAt(record.tid, record.xid, record.row);
      // Append-only storage reproduces tids by replaying appends in order.
      return table->Insert(record.xid, record.row).status();
    case ChangeKind::kSetXmax:
      if (heap != nullptr) {
        heap->ApplySetXmax(record.tid, record.xid);
      } else if (dynamic_cast<AoColumnTable*>(table) != nullptr) {
        return table->MarkDeleted(record.tid, record.xid);
      }
      return Status::OK();
    case ChangeKind::kLink:
      if (heap != nullptr) heap->ApplyLink(record.tid, record.tid2);
      return Status::OK();
    case ChangeKind::kFreeSlot:
      if (heap != nullptr) heap->ApplyFreeSlot(record.tid);
      return Status::OK();
    case ChangeKind::kFreeGroup:
      // AO reclamation: `tid` carries the freed group's index.
      if (auto* ao = dynamic_cast<AoColumnTable*>(table)) {
        return ao->ApplyFreeGroup(static_cast<size_t>(record.tid));
      }
      return Status::OK();
    case ChangeKind::kTruncate:
      return table->Truncate();
    case ChangeKind::kTxnBegin:
    case ChangeKind::kTxnPrepare:
    case ChangeKind::kTxnCommit:
    case ChangeKind::kTxnAbort:
      break;
  }
  return Status::Internal("ApplyDataChange: transaction record kind");
}

}  // namespace gphtap
