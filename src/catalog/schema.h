// Table schemas, distribution policies, storage kinds, and partition specs.
#ifndef GPHTAP_CATALOG_SCHEMA_H_
#define GPHTAP_CATALOG_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/datum.h"
#include "common/status.h"

namespace gphtap {

struct Column {
  std::string name;
  TypeId type = TypeId::kInt64;
};

/// Ordered list of named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> cols) : cols_(std::move(cols)) {}

  size_t num_columns() const { return cols_.size(); }
  const Column& column(size_t i) const { return cols_[i]; }
  const std::vector<Column>& columns() const { return cols_; }

  /// Index of a column by case-insensitive name, or -1.
  int FindColumn(const std::string& name) const;

  /// Validates that `row` matches arity and types: every value is NULL or of
  /// its column's type. Storage rejects anything else, so writers coerce
  /// first (CoerceRow).
  Status CheckRow(const Row& row) const;

  /// Converts ints in double columns to doubles in place (PostgreSQL's
  /// assignment cast), so stored values have their column's type. Rows that
  /// already do are left untouched.
  void CoerceRow(Row* row) const;

  std::string ToString() const;

 private:
  std::vector<Column> cols_;
};

/// How a table's rows are spread across segments (Section 3.1 of the paper).
enum class DistributionKind : uint8_t {
  kHash = 0,        // DISTRIBUTED BY (cols...)
  kReplicated = 1,  // full copy on every segment
  kRandom = 2,      // DISTRIBUTED RANDOMLY (round robin)
};

struct DistributionPolicy {
  DistributionKind kind = DistributionKind::kHash;
  std::vector<int> key_cols;  // valid when kind == kHash

  static DistributionPolicy Hash(std::vector<int> cols) {
    return {DistributionKind::kHash, std::move(cols)};
  }
  static DistributionPolicy Replicated() { return {DistributionKind::kReplicated, {}}; }
  static DistributionPolicy Random() { return {DistributionKind::kRandom, {}}; }
};

/// Physical storage of a table or partition (Section 3.4).
enum class StorageKind : uint8_t {
  kHeap = 0,      // row-oriented, page-based, buffer-cached, MVCC in place
  kAoRow = 1,     // append-optimized row-oriented
  kAoColumn = 2,  // append-optimized column-oriented (one file per column)
  kExternal = 3,  // CSV file outside the database
};

const char* StorageKindName(StorageKind k);
/// EXPLAIN's label for the store a scan reads ("heap", "ao-row", "ao-column",
/// "external"). Distinct from StorageKindName, the storage-clause spelling.
const char* ScanStoreLabel(StorageKind kind);

enum class CompressionKind : uint8_t { kNone = 0, kRle = 1, kDelta = 2, kDict = 3, kLz = 4 };

const char* CompressionKindName(CompressionKind k);

/// One range partition: [lower, upper). A null bound is open.
struct RangePartitionSpec {
  std::string name;
  Datum lower;  // inclusive; null = unbounded
  Datum upper;  // exclusive; null = unbounded
  StorageKind storage = StorageKind::kHeap;
  std::string external_path;  // when storage == kExternal

  /// Whether `v` (not NULL) lies in [lower, upper) per Datum::Compare.
  bool Holds(const Datum& v) const;
};

/// Partitioning declaration for a root table (range partitioning on one column).
struct PartitionSpec {
  int partition_col = -1;
  std::vector<RangePartitionSpec> ranges;

  /// Index of the range containing `v`, or -1 if none.
  int RouteValue(const Datum& v) const;
};

using TableId = uint32_t;

/// Catalog entry describing one table (or one leaf partition).
struct TableDef {
  TableId id = 0;
  std::string name;
  Schema schema;
  DistributionPolicy distribution;
  StorageKind storage = StorageKind::kHeap;
  CompressionKind compression = CompressionKind::kNone;
  std::optional<PartitionSpec> partitions;  // set on root tables only
  std::string external_path;                // when storage == kExternal
  // Hash indexes: each entry is a column index with a per-segment hash index.
  std::vector<int> indexed_cols;
  // System views (gp_stat_activity & co) are virtual: no storage anywhere,
  // rows are produced on the coordinator from live cluster state at scan time.
  bool is_system_view = false;
  // A SELECT's generate_series() function scan: no storage and no lock, and
  // any node computes the same rows, so it is Replicated (Greenplum's General
  // locus). Its bounds live beside it in SelectQuery::series_bounds.
  bool is_function_scan = false;
  // Elastic expansion: how many segments this table's data actually spans.
  // Hash tables route INSERTs modulo this (not the live segment count) until a
  // rebalance migrates them; replicated tables have complete copies on
  // [0, dist_segments). 0 means "all segments" (legacy defs and unit tests
  // that build TableDefs by hand).
  int dist_segments = 0;
  // True while a rebalance is migrating this table to a new span: direct
  // dispatch is off (any snapshot, pre- or post-cutover, stays correct under
  // full fan-out) and replicated writes fan to every serving segment.
  bool rebalancing = false;

  /// Append-optimized storage, or a partitioned root with an append-optimized
  /// leaf. Its UPDATE / DELETE writers serialize on the relation
  /// (ExclusiveLock): the visibility map is not safe for concurrent writers.
  bool append_optimized() const;
};

}  // namespace gphtap

#endif  // GPHTAP_CATALOG_SCHEMA_H_
