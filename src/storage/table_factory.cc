#include "storage/table_factory.h"

#include "storage/column_store.h"
#include "storage/external_table.h"
#include "storage/heap_table.h"
#include "storage/partitioned_table.h"

namespace gphtap {

namespace {

std::unique_ptr<Table> CreateLeaf(const TableDef& def, const CommitLog* clog,
                                  BufferPool* pool) {
  switch (def.storage) {
    case StorageKind::kHeap:
      return std::make_unique<HeapTable>(def, clog, pool);
    case StorageKind::kAoRow:
    case StorageKind::kAoColumn:
      return std::make_unique<AoColumnTable>(def);
    case StorageKind::kExternal:
      return std::make_unique<ExternalTable>(def);
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Table> CreateTable(const TableDef& def, const CommitLog* clog,
                                   BufferPool* pool) {
  if (!def.partitions.has_value()) return CreateLeaf(def, clog, pool);

  std::vector<std::unique_ptr<Table>> leaves;
  leaves.reserve(def.partitions->ranges.size());
  for (const RangePartitionSpec& range : def.partitions->ranges) {
    TableDef leaf_def = def;
    leaf_def.partitions.reset();
    leaf_def.name = def.name + "_" + range.name;
    leaf_def.storage = range.storage;
    leaf_def.external_path = range.external_path;
    leaves.push_back(CreateLeaf(leaf_def, clog, pool));
  }
  return std::make_unique<PartitionedTable>(def, std::move(leaves));
}

}  // namespace gphtap
