// Column-oriented tuple batch: the unit of work of the vectorized engine and
// the payload of batched motion transport. A batch holds up to kDefaultCapacity
// tuples as parallel typed column vectors plus a selection vector of the row
// indexes that are still "live" (visible and passing all filters applied so
// far). Kernels (vec_kernels.h) iterate the selection vector over contiguous
// int64/double payloads in tight loops instead of pushing one boxed Row at a
// time through virtual sinks — the MonetDB/X100 layout.
#ifndef GPHTAP_VEC_COLUMN_BATCH_H_
#define GPHTAP_VEC_COLUMN_BATCH_H_

#include <cstdint>
#include <vector>

#include "catalog/datum.h"

namespace gphtap {

/// One column of a batch. Int64 and double columns store their payload
/// unboxed (contiguous machine words; NULL slots hold 0 and are flagged in the
/// lazy null mask). Strings and mixed-type columns degrade to a boxed Datum
/// payload, so every Datum a row could hold is still representable exactly.
///
/// Invariants: exactly one payload vector (selected by `tag`) is in use and
/// the other two are empty; `nulls` is either empty (no NULLs) or has one flag
/// per row. A Datum-tagged column never uses the mask — NULL lives in the
/// datum itself.
struct ColumnVector {
  enum class Tag : uint8_t { kInt64, kDouble, kDatum };

  ColumnVector() = default;
  /// An empty column laid out for a stored column of `type`: int64 and double
  /// unboxed, strings boxed. Stored columns take their tag from the schema.
  explicit ColumnVector(TypeId type)
      : tag(type == TypeId::kInt64    ? Tag::kInt64
            : type == TypeId::kDouble ? Tag::kDouble
                                      : Tag::kDatum) {}

  Tag tag = Tag::kInt64;
  std::vector<int64_t> ints;   // tag == kInt64 payload
  std::vector<double> dbls;    // tag == kDouble payload
  std::vector<Datum> datums;   // tag == kDatum payload (strings / mixed)
  std::vector<uint8_t> nulls;  // empty = no NULLs; else 1 flag per row

  size_t size() const {
    switch (tag) {
      case Tag::kInt64:
        return ints.size();
      case Tag::kDouble:
        return dbls.size();
      case Tag::kDatum:
        return datums.size();
    }
    return 0;
  }

  bool IsNull(size_t r) const {
    if (tag == Tag::kDatum) return datums[r].is_null();
    return !nulls.empty() && nulls[r] != 0;
  }

  void Clear() {
    tag = Tag::kInt64;
    ints.clear();
    dbls.clear();
    datums.clear();
    nulls.clear();
  }

  void Reserve(size_t n) {
    switch (tag) {
      case Tag::kInt64:
        ints.reserve(n);
        break;
      case Tag::kDouble:
        dbls.reserve(n);
        break;
      case Tag::kDatum:
        datums.reserve(n);
        break;
    }
  }

  /// Reshapes to `n` zeroed (non-NULL) slots of the given tag — the kernel
  /// output contract: sized exactly, never carrying values from a prior batch.
  void ResetTyped(Tag t, size_t n);

  /// Materializes the null mask (all clear) if it is still lazily empty.
  void EnsureNulls() {
    if (nulls.empty()) nulls.assign(size(), 0);
  }

  void SetNull(size_t r) {
    EnsureNulls();
    nulls[r] = 1;
  }

  /// Converts the typed payload to boxed datums (exact value preserving).
  void Demote();

  /// Materializes slot `r` as a Datum (allocation-free for typed columns).
  Datum GetDatum(size_t r) const {
    if (tag == Tag::kDatum) return datums[r];
    if (!nulls.empty() && nulls[r]) return Datum::Null();
    return tag == Tag::kInt64 ? Datum(ints[r]) : Datum(dbls[r]);
  }

  /// Appends one datum. An empty column adopts the datum's type; a typed
  /// column demotes itself on the first off-type value.
  void Append(const Datum& d);
  void Append(Datum&& d);

  /// Appends `d` keeping the tag: `d` is NULL or of the column's type (an int
  /// for a double column widens). The column-group store's append, whose
  /// columns never re-tag.
  void AppendTyped(const Datum& d);

  /// Replaces the contents with rows [begin, end) of `src`, tag included, by
  /// range copy.
  void AssignRange(const ColumnVector& src, size_t begin, size_t end);

  /// Drops the first `n` rows, keeping the tag.
  void EraseFront(size_t n);

  /// Appends slot `r` of `src` — the column-copy gather used by Compact,
  /// partitioning, and join output assembly. An empty destination adopts the
  /// source tag so the payload stays unboxed.
  void AppendFrom(const ColumnVector& src, size_t r);

  /// Hash of slot `r`, identical to GetDatum(r).Hash() (and therefore to the
  /// row path's distribution hashing) but allocation-free for typed columns.
  uint64_t HashAt(size_t r) const {
    return tag == Tag::kDatum ? datums[r].Hash() : GetDatum(r).Hash();
  }

  /// Approximate per-slot footprint, mirroring Datum::FootprintBytes().
  size_t FootprintAt(size_t r) const {
    return tag == Tag::kDatum ? datums[r].FootprintBytes() : 16;
  }
};

struct ColumnBatch {
  /// Also the row count of a column group (ColumnGroupStore::kGroupRows), so
  /// one group decodes into exactly one batch.
  static constexpr size_t kDefaultCapacity = 1024;

  /// Parallel columns; every column has exactly `rows` entries.
  std::vector<ColumnVector> columns;
  /// Indexes (ascending) of the live rows. Kernels only touch these.
  std::vector<int32_t> sel;
  /// Physical rows present in each column (live + filtered-out).
  size_t rows = 0;

  size_t NumColumns() const { return columns.size(); }
  size_t ActiveRows() const { return sel.size(); }

  void Clear() {
    columns.clear();
    sel.clear();
    rows = 0;
  }

  /// Shapes the batch to `ncols` empty columns with `capacity` reserved; used
  /// when building a batch row by row (AppendRow).
  void Reset(size_t ncols, size_t capacity = kDefaultCapacity);

  /// Makes the selection vector the identity [0, rows).
  void SelectAll();

  /// Appends one row (must have NumColumns() datums) and selects it.
  void AppendRow(const Row& row);
  void AppendRow(Row&& row);

  /// Appends live row `r` of `src` by column copy (no Row materialization)
  /// and selects it. Columns must be layout-compatible.
  void AppendSelectedFrom(const ColumnBatch& src, int32_t r);

  /// Materializes physical row `r` as a Row (all columns, in order).
  Row MaterializeRow(int32_t r) const;

  /// Appends every live row to `out` as materialized Rows.
  void AppendTo(std::vector<Row>* out) const;

  /// Builds a fully-selected batch from materialized rows.
  static ColumnBatch FromRows(const std::vector<Row>& rows);

  /// Drops filtered-out rows: columns become dense over the live rows and the
  /// selection vector resets to the identity. Call before shipping a sparse
  /// batch over a motion so dead rows don't ride the wire.
  void Compact();

  /// Approximate memory footprint of the live rows (vmem / SimNet accounting),
  /// mirroring the row path's sizeof(Row) + datum footprints per tuple.
  int64_t FootprintBytes() const;
};

}  // namespace gphtap

#endif  // GPHTAP_VEC_COLUMN_BATCH_H_
