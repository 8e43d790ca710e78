#include "storage/ao_table.h"

namespace gphtap {

StatusOr<TupleId> AoRowTable::Insert(LocalXid xid, const Row& row) {
  GPHTAP_RETURN_IF_ERROR(schema().CheckRow(row));
  std::unique_lock<std::shared_mutex> g(latch_);
  // Appends go to the tail group; a freed or full tail starts a new group.
  // This is a pure function of the operation sequence, so change-log replay
  // (appends and frees in log order) reproduces every tid exactly.
  if (groups_.empty() || groups_.back().freed ||
      groups_.back().rows.size() >= kGroupSize) {
    groups_.emplace_back();
  }
  Group& tail = groups_.back();
  tail.rows.push_back(StoredRow{xid, row});
  ++stored_rows_;
  TupleId tid =
      static_cast<TupleId>((groups_.size() - 1) * kGroupSize + tail.rows.size() - 1);
  if (change_log() != nullptr) {
    change_log()->Append(
        ChangeRecord{ChangeKind::kInsert, id(), tid, kInvalidTupleId, xid, row});
  }
  return tid;
}

Status AoRowTable::Scan(const VisibilityContext& ctx, const ScanCallback& fn) {
  // Append-only: snapshot the current group count, then read group by group —
  // concurrent appends land past the snapshot and are invisible to this
  // snapshot anyway; a group freed mid-scan held only rows dead to every
  // snapshot (including ours), so seeing it empty is correct.
  size_t ngroups;
  {
    std::shared_lock<std::shared_mutex> g(latch_);
    ngroups = groups_.size();
  }
  std::vector<std::pair<TupleId, Row>> batch;
  for (size_t gi = 0; gi < ngroups; ++gi) {
    batch.clear();
    {
      std::shared_lock<std::shared_mutex> g(latch_);
      const Group& group = groups_[gi];
      if (group.freed) continue;
      TupleId base = static_cast<TupleId>(gi * kGroupSize);
      for (size_t r = 0; r < group.rows.size(); ++r) {
        const StoredRow& row = group.rows[r];
        auto del = visimap_.find(base + r);
        LocalXid xmax = del == visimap_.end() ? kInvalidLocalXid : del->second;
        if (!TupleVisible(row.xmin, xmax, ctx)) continue;
        batch.emplace_back(base + r, row.row);
        bytes_scanned_.fetch_add(16 * row.row.size(), std::memory_order_relaxed);
      }
    }
    for (auto& [tid, row] : batch) {
      if (!fn(tid, row)) return Status::OK();
    }
  }
  return Status::OK();
}

Status AoRowTable::MarkDeleted(TupleId tid, LocalXid xid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  size_t gi = tid / kGroupSize;
  size_t off = tid % kGroupSize;
  if (gi >= groups_.size() || groups_[gi].freed || off >= groups_[gi].rows.size()) {
    return Status::NotFound("AO tid " + std::to_string(tid));
  }
  visimap_[tid] = xid;
  if (change_log() != nullptr) {
    change_log()->Append(
        ChangeRecord{ChangeKind::kSetXmax, id(), tid, kInvalidTupleId, xid, {}});
  }
  return Status::OK();
}

size_t AoRowTable::VisimapSize() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return visimap_.size();
}

std::vector<AoGroupInfo> AoRowTable::GroupInfos(const AoRowDeadFn& dead) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  std::vector<AoGroupInfo> infos;
  infos.reserve(groups_.size());
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const Group& group = groups_[gi];
    AoGroupInfo info;
    info.index = gi;
    info.freed = group.freed;
    info.rows = group.rows.size();
    info.sealed = group.freed || group.rows.size() >= kGroupSize;
    TupleId base = static_cast<TupleId>(gi * kGroupSize);
    for (size_t r = 0; r < group.rows.size(); ++r) {
      auto del = visimap_.find(base + r);
      LocalXid xmax = del == visimap_.end() ? kInvalidLocalXid : del->second;
      if (dead(group.rows[r].xmin, xmax)) {
        ++info.dead;
      } else {
        ++info.live;
      }
    }
    infos.push_back(info);
  }
  return infos;
}

void AoRowTable::FreeGroupLocked(size_t gi) {
  Group& group = groups_[gi];
  stored_rows_ -= group.rows.size();
  TupleId base = static_cast<TupleId>(gi * kGroupSize);
  for (size_t r = 0; r < group.rows.size(); ++r) visimap_.erase(base + r);
  std::vector<StoredRow>().swap(group.rows);
  group.freed = true;
}

AoReclaimResult AoRowTable::ReclaimDeadGroups(const AoRowDeadFn& dead) {
  std::unique_lock<std::shared_mutex> g(latch_);
  AoReclaimResult result;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    Group& group = groups_[gi];
    // Only sealed (full) groups: the tail group is still taking appends.
    if (group.freed || group.rows.size() < kGroupSize) continue;
    TupleId base = static_cast<TupleId>(gi * kGroupSize);
    bool all_dead = true;
    for (size_t r = 0; r < group.rows.size() && all_dead; ++r) {
      auto del = visimap_.find(base + r);
      LocalXid xmax = del == visimap_.end() ? kInvalidLocalXid : del->second;
      all_dead = dead(group.rows[r].xmin, xmax);
    }
    if (!all_dead) continue;
    result.rows_freed += group.rows.size();
    ++result.groups_freed;
    FreeGroupLocked(gi);
    if (change_log() != nullptr) {
      change_log()->Append(ChangeRecord{ChangeKind::kFreeGroup, id(),
                                        static_cast<TupleId>(gi), kInvalidTupleId,
                                        kInvalidLocalXid, {}});
    }
  }
  return result;
}

Status AoRowTable::ApplyFreeGroup(size_t group_index) {
  std::unique_lock<std::shared_mutex> g(latch_);
  if (group_index >= groups_.size()) {
    return Status::NotFound("AO free-group replay: group " +
                            std::to_string(group_index));
  }
  if (!groups_[group_index].freed) FreeGroupLocked(group_index);
  return Status::OK();
}

Status AoRowTable::Truncate() {
  std::unique_lock<std::shared_mutex> g(latch_);
  groups_.clear();
  stored_rows_ = 0;
  visimap_.clear();
  if (change_log() != nullptr) {
    change_log()->Append(ChangeRecord{ChangeKind::kTruncate, id(), kInvalidTupleId,
                                      kInvalidTupleId, kInvalidLocalXid, {}});
  }
  return Status::OK();
}

uint64_t AoRowTable::StoredVersionCount() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return stored_rows_;
}

uint64_t AoRowTable::BytesScanned() const {
  return bytes_scanned_.load(std::memory_order_relaxed);
}

}  // namespace gphtap
