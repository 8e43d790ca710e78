// Shared change-record application: the single switch that turns a logical
// ChangeRecord back into physical table state. Used by mirror replay and by
// segment recovery (restart and failover) so every reader of the change log
// reproduces the primary bit-for-bit with one implementation.
#ifndef GPHTAP_STORAGE_REPLAY_H_
#define GPHTAP_STORAGE_REPLAY_H_

#include "common/status.h"
#include "storage/change_log.h"
#include "storage/table.h"

namespace gphtap {

/// Applies one *data* change record (kInsert/kSetXmax/kLink/kFreeSlot/kTruncate)
/// to `table`. Transaction records (kTxnBegin/kTxnPrepare/kTxnCommit/kTxnAbort)
/// are the caller's job (they touch the clog, not a table) and return Internal.
Status ApplyDataChange(Table* table, const ChangeRecord& record);

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_REPLAY_H_
