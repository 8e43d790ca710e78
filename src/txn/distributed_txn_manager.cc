#include "txn/distributed_txn_manager.h"

#include <algorithm>

namespace gphtap {

Gxid DistributedTxnManager::Begin(const std::shared_ptr<LockOwner>& owner) {
  std::lock_guard<std::mutex> g(mu_);
  Gxid gxid = next_gxid_++;
  running_[gxid] = TxnInfo{owner, 0};
  return gxid;
}

std::shared_ptr<LockOwner> DistributedTxnManager::BeginTxn(Gxid* gxid_out,
                                                           int64_t start_time_us) {
  std::lock_guard<std::mutex> g(mu_);
  Gxid gxid = next_gxid_++;
  auto owner = std::make_shared<LockOwner>(gxid, start_time_us);
  running_[gxid] = TxnInfo{owner, 0};
  *gxid_out = gxid;
  return owner;
}

DistributedSnapshot DistributedTxnManager::TakeSnapshot(Gxid pin) {
  std::lock_guard<std::mutex> g(mu_);
  DistributedSnapshot snap;
  snap.gxmax = next_gxid_;
  snap.gxmin = running_.empty() ? next_gxid_ : running_.begin()->first;
  snap.max_committed = max_committed_;
  snap.in_progress.reserve(running_.size());
  for (const auto& [gxid, info] : running_) snap.in_progress.push_back(gxid);
  auto it = running_.find(pin);
  if (it != running_.end() && it->second.snapshot_gxmin == 0) {
    it->second.snapshot_gxmin = snap.gxmin;
  }
  return snap;
}

void DistributedTxnManager::MarkCommitted(Gxid gxid) {
  std::lock_guard<std::mutex> g(mu_);
  running_.erase(gxid);
  max_committed_ = std::max(max_committed_, gxid);
}

void DistributedTxnManager::MarkAborted(Gxid gxid) {
  std::lock_guard<std::mutex> g(mu_);
  running_.erase(gxid);
}

bool DistributedTxnManager::IsRunning(Gxid gxid) const {
  std::lock_guard<std::mutex> g(mu_);
  return running_.count(gxid) > 0;
}

std::shared_ptr<LockOwner> DistributedTxnManager::OwnerOf(Gxid gxid) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = running_.find(gxid);
  if (it == running_.end()) return nullptr;
  return it->second.owner;
}

Gxid DistributedTxnManager::OldestVisibleGxid() const {
  std::lock_guard<std::mutex> g(mu_);
  Gxid oldest = next_gxid_;
  for (const auto& [gxid, info] : running_) {
    oldest = std::min(oldest, gxid);
    if (info.snapshot_gxmin != 0) oldest = std::min(oldest, info.snapshot_gxmin);
  }
  return oldest;
}

Gxid DistributedTxnManager::max_committed() const {
  std::lock_guard<std::mutex> g(mu_);
  return max_committed_;
}

size_t DistributedTxnManager::NumRunning() const {
  std::lock_guard<std::mutex> g(mu_);
  return running_.size();
}

}  // namespace gphtap
