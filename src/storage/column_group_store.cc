#include "storage/column_group_store.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace gphtap {

ColumnGroupStore::ColumnGroupStore(const Schema& schema, CompressionKind compression)
    : compression_(compression) {
  for (const Column& col : schema.columns()) open_.emplace_back(col.type);
}

size_t ColumnGroupStore::Append(const Row& row, LocalXid xmin) {
  static const Datum kNull = Datum::Null();
  for (size_t c = 0; c < open_.size(); ++c) {
    open_[c].AppendTyped(c < row.size() ? row[c] : kNull);
  }
  xmins_.push_back(xmin);
  xmaxs_.push_back(kInvalidLocalXid);
  return xmins_.size() - 1;
}

void ColumnGroupStore::SealFront() {
  CompressedGroup group;
  group.columns.resize(open_.size());
  group.ranges.reserve(open_.size());
  for (size_t c = 0; c < open_.size(); ++c) {
    EncodeColumn(compression_, open_[c], kGroupRows, &group.columns[c]);
    group.ranges.push_back(RangeOf(open_[c], kGroupRows));
    open_[c].EraseFront(kGroupRows);
  }
  sealed_.push_back(std::move(group));
}

ColumnGroupStore::ValueRange ColumnGroupStore::RangeOf(const ColumnVector& col,
                                                       size_t rows) {
  ValueRange range;
  auto scan = [&](const auto& values) {
    using T = typename std::decay_t<decltype(values)>::value_type;
    bool any = false;
    T lo{}, hi{};
    for (size_t r = 0; r < rows; ++r) {
      if (col.IsNull(r)) continue;
      const T v = values[r];
      if constexpr (std::is_floating_point_v<T>) {
        if (std::isnan(v)) return;
      }
      lo = !any || v < lo ? v : lo;
      hi = !any || v > hi ? v : hi;
      any = true;
    }
    range.known = true;
    if (any) {
      range.min = Datum(lo);
      range.max = Datum(hi);
    }
  };
  if (col.tag == ColumnVector::Tag::kInt64) scan(col.ints);
  if (col.tag == ColumnVector::Tag::kDouble) scan(col.dbls);
  return range;
}

bool ColumnGroupStore::RulesOut(size_t gi, const ScanBounds& bounds) const {
  if (gi >= sealed_.size() || sealed_[gi].freed) return false;
  const std::vector<ValueRange>& ranges = sealed_[gi].ranges;
  for (const ScanBound& bound : bounds) {
    const ValueRange& range = ranges[static_cast<size_t>(bound.column)];
    if (!range.known) continue;
    // A comparison with NULL is never true: an all-NULL column fails every
    // bound.
    if (range.min.is_null() || !RangeMaySatisfy(bound, range.min, range.max, false)) {
      return true;
    }
  }
  return false;
}

StatusOr<bool> ColumnGroupStore::Decode(size_t gi, const std::vector<int>& cols,
                                        const VisibilityContext& ctx, ColumnBatch* out,
                                        GroupRead* read) const {
  const size_t begin = gi * kGroupRows;
  const size_t end = std::min(size(), begin + kGroupRows);
  const bool sealed = gi < sealed_.size();
  if (begin >= end || (sealed && sealed_[gi].freed)) return false;
  ColumnBatch batch;
  batch.sel.reserve(end - begin);
  for (size_t pos = begin; pos < end; ++pos) {
    if (TupleVisible(xmins_[pos], xmaxs_[pos], ctx)) {
      batch.sel.push_back(static_cast<int32_t>(pos - begin));
    }
  }
  if (batch.sel.empty()) return false;
  batch.rows = end - begin;
  batch.columns.resize(cols.size());
  const size_t open_begin = sealed_.size() * kGroupRows;
  uint64_t bytes = 0;
  for (size_t k = 0; k < cols.size(); ++k) {
    const size_t c = static_cast<size_t>(cols[k]);
    if (sealed) {
      GPHTAP_RETURN_IF_ERROR(DecodeColumn(sealed_[gi].columns[c], &batch.columns[k]));
      bytes += sealed_[gi].columns[c].bytes.size();
    } else {
      batch.columns[k].AssignRange(open_[c], begin - open_begin, end - open_begin);
      bytes += 16 * batch.rows;
    }
  }
  if (read != nullptr) *read = GroupRead{sealed, bytes};
  *out = std::move(batch);
  return true;
}

Status ColumnGroupStore::Scan(std::shared_mutex& latch, const std::vector<int>& cols,
                              const ScanBounds& bounds, const VisibilityContext& ctx,
                              const GroupScanFn& fn, uint64_t* groups_skipped) const {
  size_t num_groups;
  {
    std::shared_lock<std::shared_mutex> g(latch);
    num_groups = this->num_groups();
  }
  uint64_t skipped = 0;
  for (size_t gi = 0; gi < num_groups; ++gi) {
    ColumnBatch batch;
    GroupRead read;
    {
      std::shared_lock<std::shared_mutex> g(latch);
      if (RulesOut(gi, bounds)) {
        ++skipped;
        continue;
      }
      GPHTAP_ASSIGN_OR_RETURN(bool any, Decode(gi, cols, ctx, &batch, &read));
      if (!any) continue;
    }
    if (!fn(gi, read, std::move(batch))) break;
  }
  if (groups_skipped != nullptr) *groups_skipped += skipped;
  return Status::OK();
}

uint64_t ColumnGroupStore::CompressedBytes(size_t gi, int col) const {
  const CompressedGroup& group = sealed_[gi];
  return group.freed ? 0 : group.columns[static_cast<size_t>(col)].bytes.size();
}

void ColumnGroupStore::Free(size_t gi) {
  CompressedGroup& group = sealed_[gi];
  if (group.freed) return;
  std::vector<CompressedBlock>().swap(group.columns);
  group.freed = true;
  ++num_freed_;
}

std::vector<size_t> ColumnGroupStore::FreeDeadGroups(const AoRowDeadFn& dead) {
  std::vector<size_t> freed;
  for (size_t gi = 0; gi < sealed_.size(); ++gi) {
    if (sealed_[gi].freed) continue;
    bool all_dead = true;
    for (size_t r = 0; r < kGroupRows && all_dead; ++r) {
      all_dead = RowDead(gi * kGroupRows + r, dead);
    }
    if (!all_dead) continue;
    Free(gi);
    freed.push_back(gi);
  }
  return freed;
}

std::vector<AoGroupInfo> ColumnGroupStore::GroupInfos(const AoRowDeadFn& dead) const {
  std::vector<AoGroupInfo> infos(num_groups());
  for (size_t gi = 0; gi < infos.size(); ++gi) {
    AoGroupInfo& info = infos[gi];
    info.index = gi;
    info.sealed = gi < sealed_.size();
    info.freed = info.sealed && sealed_[gi].freed;
    if (info.freed) continue;
    const size_t begin = gi * kGroupRows;
    const size_t end = std::min(size(), begin + kGroupRows);
    info.rows = end - begin;
    for (size_t pos = begin; pos < end; ++pos) {
      if (RowDead(pos, dead)) {
        ++info.dead;
      } else {
        ++info.live;
      }
    }
  }
  return infos;
}

void ColumnGroupStore::Clear() {
  sealed_.clear();
  num_freed_ = 0;
  for (ColumnVector& col : open_) col.ResetTyped(col.tag, 0);
  xmins_.clear();
  xmaxs_.clear();
}

}  // namespace gphtap
