// Page-based MVCC heap storage (PostgreSQL-style): fixed-size pages of version
// slots, ctid chains for UPDATE, buffer-pool accounting, optional hash indexes,
// and a VACUUM that reclaims dead versions.
#ifndef GPHTAP_STORAGE_HEAP_TABLE_H_
#define GPHTAP_STORAGE_HEAP_TABLE_H_

#include <atomic>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "txn/clog.h"

namespace gphtap {

/// Outcome of attempting to stamp a delete/update xmax onto a tuple version.
enum class MarkDeleteOutcome {
  kOk,           // xmax stamped; caller owns the delete
  kWait,         // an in-progress transaction holds the version; wait on wait_xid
  kFollow,       // a committed transaction (wait_xid) replaced it; follow next
  kSelfUpdated,  // this transaction already deleted the version
};

struct MarkDeleteResult {
  MarkDeleteOutcome outcome = MarkDeleteOutcome::kOk;
  LocalXid wait_xid = kInvalidLocalXid;
  TupleId next = kInvalidTupleId;
};

class HeapTable : public Table {
 public:
  static constexpr uint64_t kSlotsPerPage = 64;

  /// `clog` resolves in-progress/committed/aborted for version stamping;
  /// `pool` (optional) charges page accesses to the segment's buffer cache.
  HeapTable(TableDef def, const CommitLog* clog, BufferPool* pool = nullptr);

  StatusOr<TupleId> Insert(LocalXid xid, const Row& row) override;
  Status Scan(const VisibilityContext& ctx, const ScanCallback& fn) override;
  Status Truncate() override;
  bool SupportsMvccWrite() const override { return true; }
  uint64_t StoredVersionCount() const override;
  uint64_t BytesScanned() const override;

  /// Copy of the version at `tid` (header + row). Invalid tid -> NotFound.
  StatusOr<TupleVersion> Get(TupleId tid) const;

  /// Copy of the row at `tid` when `ctx` sees that version; nullopt when it
  /// does not, or when the slot is invalid or free. The header is checked
  /// under the latch, so an invisible version is never copied.
  std::optional<Row> GetVisible(TupleId tid, const VisibilityContext& ctx) const;

  /// Tries to stamp xmax=xid on `tid` following the PostgreSQL rules: free or
  /// aborted xmax is overwritten; in-progress xmax means wait; committed xmax
  /// means the row was replaced — follow the ctid chain.
  MarkDeleteResult TryMarkDeleted(TupleId tid, LocalXid xid);

  /// Chains `new_tid` as the successor version of `old_tid` (UPDATE).
  void LinkNewVersion(TupleId old_tid, TupleId new_tid);

  /// Looks up candidate versions by equality on an indexed column. Results
  /// still require a visibility check. Returns empty when `col` is not indexed
  /// (callers fall back to a scan).
  std::vector<TupleId> IndexLookup(int col, const Datum& key) const;
  bool HasIndexOn(int col) const;

  /// Builds a hash index over `col` from the existing contents (CREATE INDEX).
  /// No-op if the index already exists.
  void AddIndex(int col);

  /// Reclaims versions invisible to every transaction: xmin aborted, or xmax
  /// committed with xmax < oldest_running. Returns the number of slots freed.
  /// (Unit-test convenience; the cluster path uses the predicate overload.)
  uint64_t Vacuum(LocalXid oldest_running);

  /// Predicate-based reclamation: a version with a committed xmax is freed only
  /// when `delete_visible_to_all(xmax)` — i.e. every live snapshot in the whole
  /// cluster already sees the deletion. Guards readers that hold distributed
  /// snapshots without any local xid on this segment.
  uint64_t Vacuum(const std::function<bool(LocalXid)>& delete_visible_to_all);

  uint64_t FreeSlots() const;

  // ---- Mirror replay API (applies replicated records; emits nothing) ----
  Status ApplyInsertAt(TupleId tid, LocalXid xid, const Row& row);
  void ApplySetXmax(TupleId tid, LocalXid xid);
  void ApplyLink(TupleId old_tid, TupleId new_tid);
  void ApplyFreeSlot(TupleId tid);

 private:
  struct Page {
    std::vector<TupleVersion> slots;  // size up to kSlotsPerPage
  };

  void TouchPage(uint64_t page_no) const;
  TupleVersion* SlotAt(TupleId tid);
  const TupleVersion* SlotAt(TupleId tid) const;
  void IndexInsertLocked(TupleId tid, const Row& row);
  void IndexRemoveLocked(TupleId tid, const Row& row);

  const CommitLog* const clog_;
  BufferPool* const pool_;

  mutable std::shared_mutex latch_;
  std::deque<Page> pages_;
  std::vector<TupleId> free_list_;
  uint64_t live_versions_ = 0;
  mutable std::atomic<uint64_t> bytes_scanned_{0};  // scanners race under the shared latch
  // Per indexed column: hash(datum) -> tids with that hash (verify on lookup).
  std::unordered_map<int, std::unordered_multimap<uint64_t, TupleId>> indexes_;
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_HEAP_TABLE_H_
