// Append-optimized row-oriented storage (Section 3.4): bulk-load friendly.
// DELETE/UPDATE go through a visibility map under a relation-level
// ExclusiveLock (as in Greenplum), not through MVCC version chains.
//
// Rows are stored in fixed-capacity row groups so reclamation (VACUUM) can
// free a fully-dead group wholesale. Freed groups keep their index slot: tids
// are group*kGroupSize+offset and must survive both reclamation and
// change-log replay (which reproduces tids by replaying appends in order).
#ifndef GPHTAP_STORAGE_AO_TABLE_H_
#define GPHTAP_STORAGE_AO_TABLE_H_

#include <atomic>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "storage/ao_group.h"
#include "storage/table.h"

namespace gphtap {

class AoRowTable : public Table {
 public:
  /// Row-group capacity: small enough that unit tests fill groups cheaply,
  /// large enough that reclamation amortizes.
  static constexpr size_t kGroupSize = 256;

  explicit AoRowTable(TableDef def) : Table(std::move(def)) {}

  StatusOr<TupleId> Insert(LocalXid xid, const Row& row) override;
  Status Scan(const VisibilityContext& ctx, const ScanCallback& fn) override;
  Status Truncate() override;
  uint64_t StoredVersionCount() const override;
  uint64_t BytesScanned() const override;

  /// Visibility-map delete (Greenplum's AO DML). Callers serialize through a
  /// relation-level ExclusiveLock, so a pre-existing entry can only be from an
  /// aborted deleter and is overwritten.
  Status MarkDeleted(TupleId tid, LocalXid xid) override;
  size_t VisimapSize() const;

  /// Per-group occupancy under the caller's dead-row predicate (bloat
  /// reporting and the compaction trigger).
  std::vector<AoGroupInfo> GroupInfos(const AoRowDeadFn& dead) const;

  /// Frees every sealed (full) group whose rows are all dead per `dead` —
  /// the predicate must mean "dead to every snapshot". Emits one kFreeGroup
  /// change record per freed group. Callers hold ShareUpdateExclusiveLock.
  AoReclaimResult ReclaimDeadGroups(const AoRowDeadFn& dead);

  /// Replay-side free (crash recovery / mirrors): frees group `group_index`
  /// without emitting a change record.
  Status ApplyFreeGroup(size_t group_index);

 private:
  struct StoredRow {
    LocalXid xmin;
    Row row;
  };

  struct Group {
    std::vector<StoredRow> rows;  // cleared once freed
    bool freed = false;
  };

  // Requires latch_ held (unique). Clears the group and its visimap range.
  void FreeGroupLocked(size_t gi);

  mutable std::shared_mutex latch_;
  std::vector<Group> groups_;
  uint64_t stored_rows_ = 0;  // rows in non-freed groups
  std::unordered_map<TupleId, LocalXid> visimap_;  // tid -> deleting xid
  // Atomic: concurrent scans account under the shared latch.
  mutable std::atomic<uint64_t> bytes_scanned_{0};
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_AO_TABLE_H_
