// In-memory columnar delta store: a per-table column index over a heap
// table, kept fresh by tailing the segment's change log (the PolarDB-IMCI
// shape: base rows stay in the row store, an in-memory column index absorbs
// the update stream so analytics scan columns instead of pages).
//
// Rows land in a ColumnGroupStore in log-apply order and are sealed into
// compressed groups once every creating transaction has decided. Group
// boundaries are positional (row N of the log-apply order lands in group
// N/1024), so any replayer that applies the same change log builds
// byte-identical groups — which is what makes seal-daemon kFreeGroup records
// safe to replay on a mirror that has not sealed yet (they defer in
// `pending_free_` until the group exists). This class adds the heap side:
// the heap-tid -> position map, and dropping the rows whose heap slot was
// vacuumed or reused.
//
// Concurrency: one feed thread applies log records (unique latch), the seal
// daemon seals/reclaims (unique latch), and scans decode one group per shared
// hold (ColumnGroupStore::Scan), so a scan whose consumer blocks never stalls
// the feed. The scan's snapshot, not the latch, makes it a consistent cut:
// every record a visible transaction wrote was applied before the scan began
// (DeltaIndex::WaitForApplied), and no record applied mid-scan changes a
// verdict under that snapshot (DESIGN.md §11).
#ifndef GPHTAP_DELTA_DELTA_STORE_H_
#define GPHTAP_DELTA_DELTA_STORE_H_

#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "storage/change_log.h"
#include "storage/column_store.h"
#include "txn/clog.h"

namespace gphtap {

struct DeltaStoreStats {
  uint64_t open_rows = 0;      // rows in the unsealed tail (incl. dropped)
  uint64_t sealed_groups = 0;  // sealed groups, including freed slots
  uint64_t sealed_rows = 0;    // rows in live (non-freed) sealed groups
  uint64_t freed_groups = 0;
  uint64_t deletes = 0;        // xmax marks applied
  uint64_t pending_frees = 0;  // kFreeGroup seen before its group sealed here
};

struct DeltaSealResult {
  size_t groups_sealed = 0;
  size_t rows_sealed = 0;
};

class DeltaStore {
 public:
  static constexpr size_t kGroupRows = ColumnGroupStore::kGroupRows;

  explicit DeltaStore(TableDef def);

  // ---- log application (feed thread / replay) -------------------------------
  void ApplyInsert(TupleId tid, LocalXid xid, const Row& row);
  void ApplyDelete(TupleId tid, LocalXid xid);  // kSetXmax
  void ApplyFreeSlot(TupleId tid);              // heap vacuum reclaimed the slot
  void ApplyTruncate();

  /// Replays a seal-daemon kFreeGroup. `epoch` is the truncate epoch stamped
  /// into the record (tid2) at emit time: a free that predates a truncate is
  /// ignored so it can never hit a post-truncate group of the same index.
  /// A free for a group this replica has not sealed yet defers in
  /// `pending_free_` and lands the moment the group forms — the replay-order
  /// fix: seals are local (never logged), so a mirror rebuilding from the log
  /// can legitimately see the free before it has sealed the group.
  void ApplyFreeGroup(size_t group_index, uint64_t epoch);

  // ---- seal daemon ----------------------------------------------------------
  /// Seals every complete kGroupRows prefix of the open run whose creating
  /// transactions have all decided (committed or aborted) per `clog`; a null
  /// clog seals unconditionally (replay rebuild / tests). Newly sealed groups
  /// with a pending free are freed immediately.
  DeltaSealResult SealCold(const CommitLog* clog);

  /// Frees every sealed group whose rows are all dead per `dead` ("dead to
  /// every snapshot"). Emits one kFreeGroup change record per freed group to
  /// `log` (may be null) so mirrors and crash recovery replay the reclamation
  /// for free.
  AoReclaimResult ReclaimDeadGroups(const AoRowDeadFn& dead, ChangeLog* log);

  // ---- scans ----------------------------------------------------------------
  /// Vectorized scan of the whole store under `ctx`: every group, sealed or
  /// open, arrives as one batch of its touched columns whose selection vector
  /// holds the visible rows, except the sealed groups `bounds` rule out,
  /// which are counted in `*groups_skipped` (may be null). `fn` runs with no
  /// latch held. `sealed_rows_scanned` / `open_rows_scanned` (may be null)
  /// accumulate the visible row counts served from each part — the EXPLAIN
  /// per-store counts.
  Status ScanBatches(const VisibilityContext& ctx, const std::vector<int>& cols,
                     const BatchScanCallback& fn, uint64_t* sealed_rows_scanned,
                     uint64_t* open_rows_scanned, const ScanBounds& bounds = {},
                     uint64_t* groups_skipped = nullptr) const;

  DeltaStoreStats Stats() const;
  const TableDef& def() const { return def_; }

 private:
  const TableDef def_;

  mutable std::shared_mutex latch_;
  ColumnGroupStore store_;
  std::unordered_map<TupleId, size_t> tid_pos_;  // live heap tid -> store position
  std::set<size_t> pending_free_;  // group indexes freed before sealing here
  uint64_t truncate_epoch_ = 0;
  uint64_t deletes_ = 0;
};

}  // namespace gphtap

#endif  // GPHTAP_DELTA_DELTA_STORE_H_
