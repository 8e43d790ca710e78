#include "storage/heap_table.h"

#include <algorithm>

namespace gphtap {

HeapTable::HeapTable(TableDef def, const CommitLog* clog, BufferPool* pool)
    : Table(std::move(def)), clog_(clog), pool_(pool) {
  for (int col : this->def().indexed_cols) {
    indexes_[col];  // create empty index
  }
}

void HeapTable::TouchPage(uint64_t page_no) const {
  if (pool_ != nullptr) pool_->Access(id(), page_no);
}

TupleVersion* HeapTable::SlotAt(TupleId tid) {
  uint64_t page = tid / kSlotsPerPage, slot = tid % kSlotsPerPage;
  if (page >= pages_.size()) return nullptr;
  if (slot >= pages_[page].slots.size()) return nullptr;
  return &pages_[page].slots[slot];
}

const TupleVersion* HeapTable::SlotAt(TupleId tid) const {
  return const_cast<HeapTable*>(this)->SlotAt(tid);
}

void HeapTable::IndexInsertLocked(TupleId tid, const Row& row) {
  for (auto& [col, index] : indexes_) {
    index.emplace(row[static_cast<size_t>(col)].Hash(), tid);
  }
}

void HeapTable::IndexRemoveLocked(TupleId tid, const Row& row) {
  for (auto& [col, index] : indexes_) {
    auto range = index.equal_range(row[static_cast<size_t>(col)].Hash());
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == tid) {
        index.erase(it);
        break;
      }
    }
  }
}

StatusOr<TupleId> HeapTable::Insert(LocalXid xid, const Row& row) {
  GPHTAP_RETURN_IF_ERROR(schema().CheckRow(row));
  TupleId tid;
  {
    std::unique_lock<std::shared_mutex> g(latch_);
    if (!free_list_.empty()) {
      tid = free_list_.back();
      free_list_.pop_back();
      TupleVersion* v = SlotAt(tid);
      v->header = TupleHeader{xid, kInvalidLocalXid, kInvalidTupleId};
      v->row = row;
    } else {
      if (pages_.empty() || pages_.back().slots.size() >= kSlotsPerPage) {
        pages_.emplace_back();
        pages_.back().slots.reserve(kSlotsPerPage);
      }
      Page& page = pages_.back();
      tid = (pages_.size() - 1) * kSlotsPerPage + page.slots.size();
      page.slots.push_back(TupleVersion{TupleHeader{xid, kInvalidLocalXid,
                                                    kInvalidTupleId},
                                        row});
    }
    ++live_versions_;
    IndexInsertLocked(tid, row);
    if (change_log() != nullptr) {
      change_log()->Append(
          ChangeRecord{ChangeKind::kInsert, id(), tid, kInvalidTupleId, xid, row});
    }
  }
  TouchPage(tid / kSlotsPerPage);
  return tid;
}

Status HeapTable::Scan(const VisibilityContext& ctx, const ScanCallback& fn) {
  // Copy visible rows out page by page so callbacks (which may block on motion
  // channels) never run under the table latch.
  size_t num_pages;
  {
    std::shared_lock<std::shared_mutex> g(latch_);
    num_pages = pages_.size();
  }
  std::vector<std::pair<TupleId, Row>> batch;
  for (size_t p = 0; p < num_pages; ++p) {
    TouchPage(p);
    batch.clear();
    {
      std::shared_lock<std::shared_mutex> g(latch_);
      const Page& page = pages_[p];
      for (size_t s = 0; s < page.slots.size(); ++s) {
        const TupleVersion& v = page.slots[s];
        if (v.header.xmin == kInvalidLocalXid) continue;  // freed slot
        if (!TupleVisible(v.header.xmin, v.header.xmax, ctx)) continue;
        TupleId tid = p * kSlotsPerPage + s;
        batch.emplace_back(tid, v.row);
        bytes_scanned_.fetch_add(16 * v.row.size(),  // logical width estimate
                                 std::memory_order_relaxed);
      }
    }
    for (auto& [tid, row] : batch) {
      if (!fn(tid, row)) return Status::OK();
    }
  }
  return Status::OK();
}

Status HeapTable::Truncate() {
  std::unique_lock<std::shared_mutex> g(latch_);
  pages_.clear();
  free_list_.clear();
  live_versions_ = 0;
  for (auto& [col, index] : indexes_) index.clear();
  if (change_log() != nullptr) {
    change_log()->Append(ChangeRecord{ChangeKind::kTruncate, id(), kInvalidTupleId,
                                      kInvalidTupleId, kInvalidLocalXid, {}});
  }
  return Status::OK();
}

uint64_t HeapTable::StoredVersionCount() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return live_versions_;
}

uint64_t HeapTable::BytesScanned() const {
  return bytes_scanned_.load(std::memory_order_relaxed);
}

std::optional<Row> HeapTable::GetVisible(TupleId tid, const VisibilityContext& ctx) const {
  TouchPage(tid / kSlotsPerPage);
  std::shared_lock<std::shared_mutex> g(latch_);
  const TupleVersion* v = SlotAt(tid);
  if (v == nullptr || !TupleVisible(v->header.xmin, v->header.xmax, ctx)) return std::nullopt;
  return v->row;
}

StatusOr<TupleVersion> HeapTable::Get(TupleId tid) const {
  TouchPage(tid / kSlotsPerPage);
  std::shared_lock<std::shared_mutex> g(latch_);
  const TupleVersion* v = SlotAt(tid);
  if (v == nullptr || v->header.xmin == kInvalidLocalXid) {
    return Status::NotFound("tuple " + std::to_string(tid));
  }
  return *v;
}

MarkDeleteResult HeapTable::TryMarkDeleted(TupleId tid, LocalXid xid) {
  TouchPage(tid / kSlotsPerPage);
  std::unique_lock<std::shared_mutex> g(latch_);
  TupleVersion* v = SlotAt(tid);
  if (v == nullptr || v->header.xmin == kInvalidLocalXid) {
    // Vacuumed away underneath us: the replacing version (if any) is gone too.
    return {MarkDeleteOutcome::kFollow, kInvalidLocalXid, kInvalidTupleId};
  }
  TupleHeader& h = v->header;
  if (h.xmax == kInvalidLocalXid) {
    h.xmax = xid;
    if (change_log() != nullptr) {
      change_log()->Append(
          ChangeRecord{ChangeKind::kSetXmax, id(), tid, kInvalidTupleId, xid, {}});
    }
    return {MarkDeleteOutcome::kOk, kInvalidLocalXid, kInvalidTupleId};
  }
  if (h.xmax == xid) return {MarkDeleteOutcome::kSelfUpdated, kInvalidLocalXid, kInvalidTupleId};
  switch (clog_->GetState(h.xmax)) {
    case TxnState::kAborted:
      h.xmax = xid;  // overwrite an aborted deleter
      h.next_version = kInvalidTupleId;
      if (change_log() != nullptr) {
        change_log()->Append(
            ChangeRecord{ChangeKind::kSetXmax, id(), tid, kInvalidTupleId, xid, {}});
      }
      return {MarkDeleteOutcome::kOk, kInvalidLocalXid, kInvalidTupleId};
    case TxnState::kCommitted:
      // wait_xid carries the committed replacer: callers in a distributed
      // cluster must not build on this version until that transaction's
      // *distributed* commit has completed (local clog alone is not the
      // commit point for conflicting writers).
      return {MarkDeleteOutcome::kFollow, h.xmax, h.next_version};
    case TxnState::kInProgress:
    case TxnState::kPrepared:
      return {MarkDeleteOutcome::kWait, h.xmax, kInvalidTupleId};
  }
  return {MarkDeleteOutcome::kWait, h.xmax, kInvalidTupleId};
}

void HeapTable::LinkNewVersion(TupleId old_tid, TupleId new_tid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  TupleVersion* v = SlotAt(old_tid);
  if (v != nullptr) v->header.next_version = new_tid;
  if (change_log() != nullptr) {
    change_log()->Append(ChangeRecord{ChangeKind::kLink, id(), old_tid, new_tid,
                                      kInvalidLocalXid, {}});
  }
}

std::vector<TupleId> HeapTable::IndexLookup(int col, const Datum& key) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  auto iit = indexes_.find(col);
  if (iit == indexes_.end()) return {};
  std::vector<TupleId> out;
  auto range = iit->second.equal_range(key.Hash());
  for (auto it = range.first; it != range.second; ++it) {
    const TupleVersion* v = SlotAt(it->second);
    if (v != nullptr && v->header.xmin != kInvalidLocalXid &&
        v->row[static_cast<size_t>(col)] == key) {
      out.push_back(it->second);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void HeapTable::AddIndex(int col) {
  std::unique_lock<std::shared_mutex> g(latch_);
  if (indexes_.count(col)) return;
  auto& index = indexes_[col];
  for (size_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    for (size_t s = 0; s < page.slots.size(); ++s) {
      const TupleVersion& v = page.slots[s];
      if (v.header.xmin == kInvalidLocalXid) continue;
      index.emplace(v.row[static_cast<size_t>(col)].Hash(), p * kSlotsPerPage + s);
    }
  }
}

bool HeapTable::HasIndexOn(int col) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return indexes_.count(col) > 0;
}

uint64_t HeapTable::Vacuum(LocalXid oldest_running) {
  return Vacuum([this, oldest_running](LocalXid xmax) { return xmax < oldest_running; });
}

uint64_t HeapTable::Vacuum(const std::function<bool(LocalXid)>& delete_visible_to_all) {
  std::unique_lock<std::shared_mutex> g(latch_);
  uint64_t freed = 0;
  for (size_t p = 0; p < pages_.size(); ++p) {
    Page& page = pages_[p];
    for (size_t s = 0; s < page.slots.size(); ++s) {
      TupleVersion& v = page.slots[s];
      const TupleHeader& h = v.header;
      if (h.xmin == kInvalidLocalXid) continue;
      bool dead = false;
      if (clog_->GetState(h.xmin) == TxnState::kAborted) {
        dead = true;
      } else if (h.xmax != kInvalidLocalXid &&
                 clog_->GetState(h.xmax) == TxnState::kCommitted &&
                 delete_visible_to_all(h.xmax)) {
        dead = true;
      }
      if (!dead) continue;
      TupleId tid = p * kSlotsPerPage + s;
      IndexRemoveLocked(tid, v.row);
      v.header = TupleHeader{};  // xmin invalid marks the slot free
      v.row.clear();
      free_list_.push_back(tid);
      --live_versions_;
      ++freed;
      if (change_log() != nullptr) {
        change_log()->Append(ChangeRecord{ChangeKind::kFreeSlot, id(), tid,
                                          kInvalidTupleId, kInvalidLocalXid, {}});
      }
    }
  }
  return freed;
}

Status HeapTable::ApplyInsertAt(TupleId tid, LocalXid xid, const Row& row) {
  std::unique_lock<std::shared_mutex> g(latch_);
  uint64_t page = tid / kSlotsPerPage, slot = tid % kSlotsPerPage;
  while (pages_.size() <= page) {
    pages_.emplace_back();
    pages_.back().slots.reserve(kSlotsPerPage);
  }
  Page& p = pages_[page];
  while (p.slots.size() <= slot) p.slots.push_back(TupleVersion{});
  TupleVersion& v = p.slots[slot];
  if (v.header.xmin != kInvalidLocalXid) {
    return Status::Internal("mirror replay: slot " + std::to_string(tid) + " occupied");
  }
  v.header = TupleHeader{xid, kInvalidLocalXid, kInvalidTupleId};
  v.row = row;
  ++live_versions_;
  IndexInsertLocked(tid, row);
  return Status::OK();
}

void HeapTable::ApplySetXmax(TupleId tid, LocalXid xid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  TupleVersion* v = SlotAt(tid);
  if (v != nullptr && v->header.xmin != kInvalidLocalXid) {
    v->header.xmax = xid;
    v->header.next_version = kInvalidTupleId;
  }
}

void HeapTable::ApplyLink(TupleId old_tid, TupleId new_tid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  TupleVersion* v = SlotAt(old_tid);
  if (v != nullptr) v->header.next_version = new_tid;
}

void HeapTable::ApplyFreeSlot(TupleId tid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  TupleVersion* v = SlotAt(tid);
  if (v == nullptr || v->header.xmin == kInvalidLocalXid) return;
  IndexRemoveLocked(tid, v->row);
  v->header = TupleHeader{};
  v->row.clear();
  --live_versions_;
}

uint64_t HeapTable::FreeSlots() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return free_list_.size();
}

Status Table::MarkDeleted(TupleId, LocalXid) {
  return Status::NotSupported("UPDATE/DELETE on " +
                              std::string(StorageKindName(def_.storage)) + " storage");
}

// Default projected scan for storages without native column projection.
Status Table::ScanColumns(const VisibilityContext& ctx, const std::vector<int>& cols,
                          const ScanCallback& fn) {
  return Scan(ctx, [&](TupleId tid, const Row& row) {
    Row projected;
    projected.reserve(cols.size());
    for (int c : cols) projected.push_back(row[static_cast<size_t>(c)]);
    return fn(tid, projected);
  });
}

}  // namespace gphtap
