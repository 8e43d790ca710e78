// Range-partitioned root table: a hierarchy where only leaf partitions hold
// data, and each leaf may use a different storage kind — the paper's
// "polymorphic partitioning" (Figure 5: hot heap partitions, colder AO-column
// partitions, archived external partitions).
#ifndef GPHTAP_STORAGE_PARTITIONED_TABLE_H_
#define GPHTAP_STORAGE_PARTITIONED_TABLE_H_

#include <memory>
#include <vector>

#include "storage/table.h"

namespace gphtap {

class PartitionedTable : public Table {
 public:
  /// `leaves` must align 1:1 with def.partitions->ranges.
  PartitionedTable(TableDef def, std::vector<std::unique_ptr<Table>> leaves);

  StatusOr<TupleId> Insert(LocalXid xid, const Row& row) override;
  Status Scan(const VisibilityContext& ctx, const ScanCallback& fn) override;
  Status ScanColumns(const VisibilityContext& ctx, const std::vector<int>& cols,
                     const ScanCallback& fn) override;
  Status Truncate() override;
  uint64_t StoredVersionCount() const override;
  uint64_t BytesScanned() const override;

  /// Leaf responsible for partition-column value `v`, or nullptr if out of range.
  Table* LeafFor(const Datum& v);
  size_t num_leaves() const { return leaves_.size(); }
  Table* leaf(size_t i) { return leaves_[i].get(); }

  /// Whether leaf `i`'s range proves one of `bounds` on the partition column
  /// false for every row the leaf holds (an UPDATE never moves a row out of
  /// its leaf's range, see ExecModifyTable).
  bool LeafRuledOut(size_t i, const ScanBounds& bounds) const;

 private:
  std::vector<std::unique_ptr<Table>> leaves_;
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_PARTITIONED_TABLE_H_
