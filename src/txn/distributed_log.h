// The per-segment map from local xids to distributed xids ("the mapping",
// Section 5.1). Truncated up to the oldest distributed transaction any live
// snapshot can still see; afterwards local clog + local snapshot decide.
#ifndef GPHTAP_TXN_DISTRIBUTED_LOG_H_
#define GPHTAP_TXN_DISTRIBUTED_LOG_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>

#include "txn/xid.h"
#include "txn/xid_table.h"

namespace gphtap {

/// One Gxid per local xid (8 bytes each); gxid 0 (kInvalidGxid) means "no
/// mapping". Lookup takes no lock; writers serialize on a mutex.
class DistributedLog {
 public:
  /// Maps `local` to `gxid`, which is a valid gxid.
  void Record(LocalXid local, Gxid gxid) {
    std::lock_guard<std::mutex> g(mu_);
    if (gxids_.Load(local) == kInvalidGxid) ++size_;
    gxids_.Store(local, gxid);
    low_ = std::min(low_, uint64_t{local});
    end_ = std::max(end_, uint64_t{local} + 1);
  }

  /// Looks up the distributed xid that created/modified with `local`, or nullopt
  /// if never recorded or already truncated.
  std::optional<Gxid> Lookup(LocalXid local) const {
    const Gxid gxid = gxids_.Load(local);
    if (gxid == kInvalidGxid) return std::nullopt;
    return gxid;
  }

  /// Drops all entries with gxid < `oldest_needed`. Entries for in-progress
  /// transactions are safe because `oldest_needed` never exceeds the oldest
  /// running distributed xid. Chunks of the table left without an entry give
  /// their memory back, so a truncated map costs 8 bytes per xid from its
  /// oldest entry up, not per xid it ever held.
  size_t TruncateBelow(Gxid oldest_needed) {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t old_low = low_;
    size_t removed = 0;
    uint64_t first_kept = end_;
    for (uint64_t xid = low_; xid < end_; ++xid) {
      const Gxid gxid = gxids_.Load(static_cast<LocalXid>(xid));
      if (gxid == kInvalidGxid) continue;
      if (gxid < oldest_needed) {
        gxids_.Store(static_cast<LocalXid>(xid), kInvalidGxid);
        ++removed;
      } else {
        first_kept = std::min(first_kept, xid);
      }
    }
    low_ = first_kept;  // below it every slot is empty
    gxids_.Release(old_low - old_low % XidTable<Gxid>::kChunkXids, first_kept);
    size_ -= removed;
    return removed;
  }

  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return size_;
  }

  /// Crash recovery: discards all state so the change-log replay can rebuild it.
  void Reset() {
    std::lock_guard<std::mutex> g(mu_);
    gxids_.Clear();
    low_ = end_ = 1;
    size_ = 0;
  }

 private:
  XidTable<Gxid> gxids_;  // what readers load; the rest is the writers' line
  alignas(64) mutable std::mutex mu_;
  // Every mapping lies in [low_, end_); guarded by mu_.
  uint64_t low_ = 1;
  uint64_t end_ = 1;
  size_t size_ = 0;
};

}  // namespace gphtap

#endif  // GPHTAP_TXN_DISTRIBUTED_LOG_H_
