#include "storage/partitioned_table.h"

#include <cmath>

namespace gphtap {

PartitionedTable::PartitionedTable(TableDef def, std::vector<std::unique_ptr<Table>> leaves)
    : Table(std::move(def)), leaves_(std::move(leaves)) {}

bool PartitionedTable::LeafRuledOut(size_t i, const ScanBounds& bounds) const {
  const PartitionSpec& spec = *def().partitions;
  const TypeId type = schema().column(static_cast<size_t>(spec.partition_col)).type;
  if (type == TypeId::kString) return false;
  // Datum::Compare puts every number before a string and finds NaN equal to
  // every number, so a string or NaN limit does not order the leaf's values:
  // it counts as open, and at worst the leaf is read.
  auto limit = [](const Datum& d) {
    return d.is_int() || (d.is_double() && !std::isnan(d.double_val())) ? d : Datum::Null();
  };
  const Datum lower = limit(spec.ranges[i].lower);
  const Datum upper = limit(spec.ranges[i].upper);
  // NaN compares equal to every number, so it routes only to a leaf whose
  // upper limit is open, where it would satisfy `column = c` for every c.
  if (type == TypeId::kDouble && upper.is_null()) return false;
  for (const ScanBound& bound : bounds) {
    if (bound.column == spec.partition_col &&
        !RangeMaySatisfy(bound, lower, upper, /*upper_exclusive=*/true)) {
      return true;
    }
  }
  return false;
}

Table* PartitionedTable::LeafFor(const Datum& v) {
  int idx = def().partitions->RouteValue(v);
  if (idx < 0) return nullptr;
  return leaves_[static_cast<size_t>(idx)].get();
}

StatusOr<TupleId> PartitionedTable::Insert(LocalXid xid, const Row& row) {
  GPHTAP_RETURN_IF_ERROR(schema().CheckRow(row));
  const Datum& key = row[static_cast<size_t>(def().partitions->partition_col)];
  Table* leaf = LeafFor(key);
  if (leaf == nullptr) {
    return Status::InvalidArgument("no partition of " + def().name + " holds value " +
                                   key.ToString());
  }
  return leaf->Insert(xid, row);
}

Status PartitionedTable::Scan(const VisibilityContext& ctx, const ScanCallback& fn) {
  bool stopped = false;
  for (auto& leaf : leaves_) {
    if (stopped) break;
    GPHTAP_RETURN_IF_ERROR(leaf->Scan(ctx, [&](TupleId tid, const Row& row) {
      if (!fn(tid, row)) {
        stopped = true;
        return false;
      }
      return true;
    }));
  }
  return Status::OK();
}

Status PartitionedTable::ScanColumns(const VisibilityContext& ctx,
                                     const std::vector<int>& cols,
                                     const ScanCallback& fn) {
  bool stopped = false;
  for (auto& leaf : leaves_) {
    if (stopped) break;
    GPHTAP_RETURN_IF_ERROR(leaf->ScanColumns(ctx, cols, [&](TupleId tid, const Row& row) {
      if (!fn(tid, row)) {
        stopped = true;
        return false;
      }
      return true;
    }));
  }
  return Status::OK();
}

Status PartitionedTable::Truncate() {
  for (auto& leaf : leaves_) {
    GPHTAP_RETURN_IF_ERROR(leaf->Truncate());
  }
  return Status::OK();
}

uint64_t PartitionedTable::StoredVersionCount() const {
  uint64_t total = 0;
  for (const auto& leaf : leaves_) total += leaf->StoredVersionCount();
  return total;
}

uint64_t PartitionedTable::BytesScanned() const {
  uint64_t total = 0;
  for (const auto& leaf : leaves_) total += leaf->BytesScanned();
  return total;
}

}  // namespace gphtap
