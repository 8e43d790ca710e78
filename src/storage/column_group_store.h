// Sealed column groups: the storage under append-optimized tables, row- and
// column-oriented alike, and under the delta store's in-memory column index.
// Rows append to an open run of ColumnVectors typed by the schema; "sealing"
// compresses the leading full run of kGroupRows rows into one immutable block
// per column (each column is its own stream of compressed blocks, Section
// 3.4), so a scan decompresses only the columns it touches. Seal and decode go
// straight between block bytes and the int64/double arrays: no value of those
// columns is boxed.
//
// Groups are positional: row N lives in group N / kGroupRows before and after
// sealing and freeing. A replayer that appends the same rows in the same order
// therefore rebuilds the same groups, and a freed group keeps its slot.
//
// Every row carries its creating (xmin) and deleting (xmax) transaction; a
// group decodes into one ColumnBatch whose selection vector lists the rows
// visible to the caller's snapshot. AO tables never update in place, so
// reclamation works per group: a sealed group whose every row is dead to every
// snapshot is freed wholesale.
//
// Sealing also records each int64 and double column's range of values in the
// group, and a scan passes over a sealed group whose ranges rule out one of
// its bounds (storage/scan_bounds.h). A range covers every stored row,
// visible or not, so a skip never depends on the snapshot.
//
// Not synchronized: each owner calls in under its own latch, except Scan,
// which takes the owner's latch itself, once per group.
#ifndef GPHTAP_STORAGE_COLUMN_GROUP_STORE_H_
#define GPHTAP_STORAGE_COLUMN_GROUP_STORE_H_

#include <functional>
#include <shared_mutex>
#include <vector>

#include "catalog/schema.h"
#include "storage/compression.h"
#include "storage/scan_bounds.h"
#include "txn/visibility.h"
#include "vec/column_batch.h"

namespace gphtap {

/// Per-group occupancy, the trigger for AO compaction and the source of
/// gp_segment_status bloat reporting.
struct AoGroupInfo {
  size_t index = 0;     // group index (first position = index * kGroupRows)
  uint64_t rows = 0;    // rows physically stored (0 once freed)
  uint64_t live = 0;    // rows not dead per the caller's predicate
  uint64_t dead = 0;    // rows dead per the caller's predicate
  bool sealed = false;  // full group (eligible for reclamation)
  bool freed = false;   // physically reclaimed; slot retained for tid math
};

/// Classifies one stored row given its xmin and xmax (kInvalidLocalXid when no
/// delete is recorded). Two callers, two predicates:
///   - bloat reporting passes "xmin aborted, or xmax committed";
///   - physical reclamation passes the stricter "dead to every snapshot"
///     (xmax additionally older than the distributed truncation horizon), the
///     same rule HeapTable::Vacuum applies per slot.
using AoRowDeadFn = std::function<bool(LocalXid xmin, LocalXid xmax)>;

/// What a reclamation pass actually freed.
struct AoReclaimResult {
  uint64_t groups_freed = 0;
  uint64_t rows_freed = 0;
};

class ColumnGroupStore {
 public:
  /// Rows per group: one group decodes into exactly one batch.
  static constexpr size_t kGroupRows = ColumnBatch::kDefaultCapacity;

  /// What one group decode read: whether the group was sealed, and its bytes
  /// (the touched columns' compressed blocks, or 16 per open-run value).
  struct GroupRead {
    bool sealed = false;
    uint64_t bytes = 0;
  };

  /// Receives group `gi`'s batch; return false to stop the scan.
  using GroupScanFn =
      std::function<bool(size_t gi, const GroupRead& read, ColumnBatch&& batch)>;

  ColumnGroupStore(const Schema& schema, CompressionKind compression);

  /// Rows ever appended (freed groups included): the next row's position.
  size_t size() const { return xmins_.size(); }
  size_t num_sealed() const { return sealed_.size(); }
  size_t num_freed() const { return num_freed_; }
  size_t open_rows() const { return size() - sealed_.size() * kGroupRows; }
  /// Sealed groups plus the open run's groups, the last one possibly partial.
  size_t num_groups() const { return (size() + kGroupRows - 1) / kGroupRows; }

  /// Appends `row` (missing trailing columns read as NULL) created by `xmin`
  /// to the open run; returns its position. The row's values have their
  /// columns' types (Schema::CheckRow).
  size_t Append(const Row& row, LocalXid xmin);

  LocalXid xmin(size_t pos) const { return xmins_[pos]; }
  void SetXmax(size_t pos, LocalXid xmax) { xmaxs_[pos] = xmax; }

  /// Forgets the creator of the row at `pos`, like PostgreSQL's
  /// HEAP_XMIN_INVALID hint: no snapshot sees the row again and reclamation
  /// counts it dead.
  void Drop(size_t pos) { xmins_[pos] = kInvalidLocalXid; }

  /// Seals the open run's leading kGroupRows rows and records the range of
  /// each int64 and double column's values in them. Requires
  /// open_rows() >= kGroupRows.
  void SealFront();

  /// Decodes columns `cols` of group `gi`, sealed or open, into `out`:
  /// `out->rows` holds every row of the group and `out->sel` the offsets of
  /// the rows visible under `ctx`. Returns false, leaving `out` untouched,
  /// when the group is freed, past the end, or has no visible row. `read`
  /// (may be null) reports what the decode read.
  StatusOr<bool> Decode(size_t gi, const std::vector<int>& cols,
                        const VisibilityContext& ctx, ColumnBatch* out,
                        GroupRead* read = nullptr) const;

  /// The one scan loop of every owner. Captures the group count at scan
  /// start, decodes each group under its own shared hold of `latch` (the
  /// owner's latch, which guards this store) and calls `fn` with no latch
  /// held, so `fn` may block or write to the owner. The groups that exist at
  /// scan start hold every row the scan's snapshot can see. Under the same
  /// hold, before its visibility pass, a sealed group whose ranges prove one
  /// of `bounds` false for every stored row is skipped and counted in
  /// `*groups_skipped` (may be null); open-run groups always decode. Stops
  /// when `fn` returns false.
  Status Scan(std::shared_mutex& latch, const std::vector<int>& cols,
              const ScanBounds& bounds, const VisibilityContext& ctx,
              const GroupScanFn& fn, uint64_t* groups_skipped) const;

  /// Compressed size of column `col` in sealed group `gi` (0 once freed).
  uint64_t CompressedBytes(size_t gi, int col) const;

  /// Drops sealed group `gi`'s blocks and keeps its slot. Idempotent.
  void Free(size_t gi);

  /// Frees every sealed group whose rows are all dead per `dead`; returns
  /// the indexes it freed.
  std::vector<size_t> FreeDeadGroups(const AoRowDeadFn& dead);

  /// Per-group occupancy; freed groups report no rows.
  std::vector<AoGroupInfo> GroupInfos(const AoRowDeadFn& dead) const;

  /// Empties the store (TRUNCATE).
  void Clear();

 private:
  // The min and max of one column's non-NULL values in a sealed group, both
  // NULL when every value is. Unknown for a string column and for a double
  // column that holds a NaN, which Datum::Compare finds equal to every double.
  struct ValueRange {
    bool known = false;
    Datum min, max;
  };

  struct CompressedGroup {
    std::vector<CompressedBlock> columns;  // one block per column
    std::vector<ValueRange> ranges;        // one per column
    bool freed = false;
  };

  static ValueRange RangeOf(const ColumnVector& col, size_t rows);

  // Whether sealed group `gi`'s ranges prove one bound false for every row.
  bool RulesOut(size_t gi, const ScanBounds& bounds) const;

  bool RowDead(size_t pos, const AoRowDeadFn& dead) const {
    return xmins_[pos] == kInvalidLocalXid || dead(xmins_[pos], xmaxs_[pos]);
  }

  CompressionKind compression_;
  std::vector<CompressedGroup> sealed_;
  size_t num_freed_ = 0;
  // One per column, tagged from the schema, rows from num_sealed() * kGroupRows.
  std::vector<ColumnVector> open_;
  // Per-row visibility by position, kept across sealing and freeing.
  std::vector<LocalXid> xmins_;
  std::vector<LocalXid> xmaxs_;
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_COLUMN_GROUP_STORE_H_
