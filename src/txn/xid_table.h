// A dense per-xid array that readers probe without a lock: the storage under
// the commit log (one TxnState per xid) and the local->distributed xid map
// (one Gxid per xid).
#ifndef GPHTAP_TXN_XID_TABLE_H_
#define GPHTAP_TXN_XID_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "txn/xid.h"

namespace gphtap {

/// Reserves `bytes` of zeroed address space whose pages the kernel backs only
/// when first written; throws std::bad_alloc on failure.
void* MapZeroedPages(size_t bytes);
void UnmapPages(void* addr, size_t bytes);
/// Gives the pages of a MapZeroedPages range back to the kernel. The range
/// stays mapped and reads zero again; a concurrent reader sees either the old
/// contents or zero.
void DiscardPages(void* addr, size_t bytes);

/// Values of type T indexed by LocalXid. Every slot starts as T{} (all bits
/// zero). Values live in chunks of kChunkXids slots, one anonymous mapping
/// each, that never move and are unmapped only by the destructor, so a reader
/// that found a chunk may use it for as long as the table lives. A directory
/// of atomic chunk pointers, one per chunk the 32-bit xid space holds, reaches
/// them; it is one anonymous mapping too. Only pages that were written cost
/// memory, and Release gives a chunk's pages back.
///
/// Load is lock-free: an acquire load of the chunk pointer and one of the
/// value. Store publishes with release stores; its callers serialize it
/// (the owning class's mutex), and so are Release and Clear.
template <typename T>
class XidTable {
  static_assert(std::atomic<T>::is_always_lock_free);

 public:
  static constexpr size_t kChunkXids = 4096;

  XidTable() : dir_(static_cast<std::atomic<Slot*>*>(MapZeroedPages(kDirBytes))) {}
  ~XidTable() {
    for (size_t ci = 0; ci < chunks_; ++ci) {
      if (Slot* chunk = dir_[ci].load(std::memory_order_relaxed)) UnmapPages(chunk, kChunkBytes);
    }
    UnmapPages(dir_, kDirBytes);
  }
  XidTable(const XidTable&) = delete;
  XidTable& operator=(const XidTable&) = delete;

  /// The value at `xid`; T{} when none was stored.
  T Load(LocalXid xid) const {
    const Slot* chunk = dir_[xid / kChunkXids].load(std::memory_order_acquire);
    if (chunk == nullptr) return T{};
    return chunk[xid % kChunkXids].load(std::memory_order_acquire);
  }

  /// Writers only.
  void Store(LocalXid xid, T value) {
    const size_t ci = xid / kChunkXids;
    Slot* chunk = dir_[ci].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      if (value == T{}) return;  // an absent chunk already reads T{}
      chunk = static_cast<Slot*>(MapZeroedPages(kChunkBytes));
      dir_[ci].store(chunk, std::memory_order_release);
      chunks_ = std::max(chunks_, ci + 1);
    }
    chunk[xid % kChunkXids].store(value, std::memory_order_release);
  }

  /// Writers only: gives back the pages of every chunk that lies wholly in
  /// [from, to). The caller has already stored T{} in each of their slots,
  /// so a reader still in such a chunk reads what it would have read anyway,
  /// and a later Store there backs a page again.
  void Release(uint64_t from, uint64_t to) {
    const uint64_t last = std::min<uint64_t>(to / kChunkXids, chunks_);
    for (uint64_t ci = (from + kChunkXids - 1) / kChunkXids; ci < last; ++ci) {
      if (Slot* chunk = dir_[ci].load(std::memory_order_relaxed)) DiscardPages(chunk, kChunkBytes);
    }
  }

  /// Writers only: every slot reads T{} again, and no chunk keeps a page.
  void Clear() { Release(0, uint64_t{chunks_} * kChunkXids); }

 private:
  using Slot = std::atomic<T>;
  static constexpr size_t kChunkBytes = kChunkXids * sizeof(Slot);
  static constexpr size_t kDirBytes = ((size_t{1} << 32) / kChunkXids) * sizeof(std::atomic<Slot*>);

  std::atomic<Slot*>* const dir_;
  size_t chunks_ = 0;  // one past the highest directory slot ever filled
};

}  // namespace gphtap

#endif  // GPHTAP_TXN_XID_TABLE_H_
