#include "catalog/schema.h"

#include <algorithm>
#include <cctype>

namespace gphtap {

namespace {
bool IEquals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}
}  // namespace

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (IEquals(cols_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::CheckRow(const Row& row) const {
  if (row.size() != cols_.size()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " != schema arity " + std::to_string(cols_.size()));
  }
  for (size_t i = 0; i < cols_.size(); ++i) {
    const Datum& d = row[i];
    if (d.is_null()) continue;
    switch (cols_[i].type) {
      case TypeId::kInt64:
        if (!d.is_int()) {
          return Status::InvalidArgument("column " + cols_[i].name + " expects INT");
        }
        break;
      case TypeId::kDouble:
        if (!d.is_double()) {
          return Status::InvalidArgument("column " + cols_[i].name + " expects DOUBLE");
        }
        break;
      case TypeId::kString:
        if (!d.is_string()) {
          return Status::InvalidArgument("column " + cols_[i].name + " expects TEXT");
        }
        break;
    }
  }
  return Status::OK();
}

void Schema::CoerceRow(Row* row) const {
  const size_t n = std::min(row->size(), cols_.size());
  for (size_t i = 0; i < n; ++i) {
    Datum& d = (*row)[i];
    if (cols_[i].type == TypeId::kDouble && d.is_int()) d = Datum(d.AsDouble());
  }
}

bool TableDef::append_optimized() const {
  auto ao = [](StorageKind k) { return k == StorageKind::kAoRow || k == StorageKind::kAoColumn; };
  return ao(storage) || (partitions.has_value() &&
                         std::any_of(partitions->ranges.begin(), partitions->ranges.end(),
                                     [&](const RangePartitionSpec& r) { return ao(r.storage); }));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (i) out += ", ";
    out += cols_[i].name;
    out += " ";
    out += TypeIdName(cols_[i].type);
  }
  out += ")";
  return out;
}

const char* StorageKindName(StorageKind k) {
  switch (k) {
    case StorageKind::kHeap:
      return "heap";
    case StorageKind::kAoRow:
      return "ao_row";
    case StorageKind::kAoColumn:
      return "ao_column";
    case StorageKind::kExternal:
      return "external";
  }
  return "?";
}

const char* ScanStoreLabel(StorageKind kind) {
  switch (kind) {
    case StorageKind::kHeap:
      return "heap";
    case StorageKind::kAoRow:
      return "ao-row";
    case StorageKind::kAoColumn:
      return "ao-column";
    case StorageKind::kExternal:
      return "external";
  }
  return "heap";
}

const char* CompressionKindName(CompressionKind k) {
  switch (k) {
    case CompressionKind::kNone:
      return "none";
    case CompressionKind::kRle:
      return "rle";
    case CompressionKind::kDelta:
      return "delta";
    case CompressionKind::kDict:
      return "dict";
    case CompressionKind::kLz:
      return "lz";
  }
  return "?";
}

bool RangePartitionSpec::Holds(const Datum& v) const {
  return (lower.is_null() || v.Compare(lower) >= 0) &&
         (upper.is_null() || v.Compare(upper) < 0);
}

int PartitionSpec::RouteValue(const Datum& v) const {
  if (v.is_null()) return -1;  // NULL belongs to no range partition
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].Holds(v)) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace gphtap
