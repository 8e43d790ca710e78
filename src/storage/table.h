// Abstract table interface implemented by heap, append-optimized row/column,
// external, and partitioned storage (Section 3.4: the execution engine is
// agnostic to table storage type).
#ifndef GPHTAP_STORAGE_TABLE_H_
#define GPHTAP_STORAGE_TABLE_H_

#include <functional>
#include <memory>

#include "catalog/schema.h"
#include "storage/change_log.h"
#include "common/status.h"
#include "storage/tuple.h"
#include "txn/visibility.h"

namespace gphtap {

/// Scan callback: return false to stop the scan early.
using ScanCallback = std::function<bool(TupleId, const Row&)>;

class Table {
 public:
  explicit Table(TableDef def) : def_(std::move(def)) {}
  virtual ~Table() = default;

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableDef& def() const { return def_; }
  TableId id() const { return def_.id; }
  const Schema& schema() const { return def_.schema; }

  /// Appends a new row version stamped with `xid`.
  virtual StatusOr<TupleId> Insert(LocalXid xid, const Row& row) = 0;

  /// Invokes `fn` for each row visible under `ctx`, in storage order.
  virtual Status Scan(const VisibilityContext& ctx, const ScanCallback& fn) = 0;

  /// Projected scan: only the listed columns are materialized (column stores
  /// read fewer bytes). Rows passed to `fn` contain exactly `cols` values in
  /// the given order. Default implementation scans fully and projects.
  virtual Status ScanColumns(const VisibilityContext& ctx, const std::vector<int>& cols,
                             const ScanCallback& fn);

  /// Whether rows carry MVCC versions that UPDATE/DELETE stamp in place
  /// (heap only; append-optimized tables delete through a visibility map).
  virtual bool SupportsMvccWrite() const { return false; }

  /// Append-optimized delete: records in the visibility map that `xid`
  /// deleted `tid`. Writers serialize on the relation's ExclusiveLock. A heap
  /// stamps its own versions (HeapTable::TryMarkDeleted); other kinds refuse.
  virtual Status MarkDeleted(TupleId tid, LocalXid xid);

  /// Total stored versions (including dead ones); a cheap size estimate.
  virtual uint64_t StoredVersionCount() const = 0;

  /// Logical bytes read by scans so far (column stores count only the columns
  /// actually touched). Used by the AO-column I/O benchmarks.
  virtual uint64_t BytesScanned() const { return 0; }

  /// Discards all contents (TRUNCATE). Callers hold AccessExclusiveLock, so no
  /// concurrent reader or writer can be inside the table.
  virtual Status Truncate() = 0;

  /// Attaches the segment's change log; writes will be logged.
  void SetChangeLog(ChangeLog* log) { change_log_ = log; }

 protected:
  ChangeLog* change_log() const { return change_log_; }

 private:
  TableDef def_;
  ChangeLog* change_log_ = nullptr;
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_TABLE_H_
