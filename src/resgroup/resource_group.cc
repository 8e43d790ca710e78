#include "resgroup/resource_group.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/clock.h"
#include "common/wait_event.h"
#include "lock/lock_owner.h"

namespace gphtap {

ResourceGroup::ResourceGroup(ResourceGroupConfig config, CpuGovernor* governor,
                             VmemTracker* vmem, MetricsRegistry* metrics)
    : config_(std::move(config)), governor_(governor), vmem_(vmem) {
  if (metrics != nullptr) {
    m_admitted_ = metrics->counter("resgroup.admitted");
    m_slot_waits_ = metrics->counter("resgroup.slot_waits");
    m_slot_wait_us_ = metrics->counter("resgroup.slot_wait_us");
    m_sheds_ = metrics->counter("resilience.sheds");
    m_admission_timeouts_ = metrics->counter("resilience.admission_timeouts");
  }
  memory_ = std::make_shared<GroupMemory>(config_.name, config_.memory_limit_mb << 20,
                                          config_.memory_shared_quota,
                                          config_.concurrency);
  governor_->ConfigureGroup(config_.name, config_.cores(governor_->total_cores()),
                            config_.uses_cpuset());
}

ResourceGroup::~ResourceGroup() { governor_->RemoveGroup(config_.name); }

Status ResourceGroup::Admit(const std::atomic<bool>* cancelled) {
  AdmitRequest req;
  req.cancelled = cancelled;
  return Admit(req);
}

Status ResourceGroup::Admit(const AdmitRequest& req) {
  std::unique_lock<std::mutex> lk(mu_);
  // Fast path: a slot is free (uncontended admission never queues).
  if (active_ < config_.concurrency) {
    ++active_;
    if (m_admitted_ != nullptr) m_admitted_->Add(1);
    return Status::OK();
  }
  // Saturated: shed before queueing when the policy says so.
  if (req.shed_on_saturation || (req.max_queue > 0 && queued_ >= req.max_queue)) {
    ++shed_;
    if (m_sheds_ != nullptr) m_sheds_->Add(1);
    return Status::ResourceExhausted(
        "resource group " + name() +
        (req.shed_on_saturation ? " saturated (shed-on-saturation)"
                                : " admission queue full"));
  }
  ++queued_;
  ++queued_total_;
  if (m_slot_waits_ != nullptr) m_slot_waits_->Add(1);
  WaitEventScope wait_scope(WaitEvent::kResGroupSlot);
  Stopwatch sw;
  // Queue-wait timeout (relative) and the owner's statement deadline
  // (absolute) combine; the earlier evicts this request from the queue.
  const int64_t stmt_deadline = req.owner != nullptr ? req.owner->deadline_us() : 0;
  const int64_t queue_deadline =
      req.queue_timeout_us > 0 ? MonotonicMicros() + req.queue_timeout_us : 0;
  int64_t effective_deadline = stmt_deadline;
  if (queue_deadline != 0 &&
      (effective_deadline == 0 || queue_deadline < effective_deadline)) {
    effective_deadline = queue_deadline;
  }
  Status result = Status::OK();
  while (active_ >= config_.concurrency) {
    if ((req.cancelled != nullptr && req.cancelled->load(std::memory_order_acquire)) ||
        (req.owner != nullptr && req.owner->cancelled())) {
      result = req.owner != nullptr && req.owner->cancelled()
                   ? req.owner->cancel_reason()
                   : Status::Aborted("cancelled while queued for resource group " + name());
      break;
    }
    const int64_t now = MonotonicMicros();
    if (effective_deadline != 0 && now >= effective_deadline) {
      ++admission_timeouts_;
      if (m_admission_timeouts_ != nullptr) m_admission_timeouts_->Add(1);
      if (stmt_deadline != 0 && now >= stmt_deadline) {
        result = Status::TimedOut("statement timeout while queued for resource group " +
                                  name());
        if (req.owner != nullptr) req.owner->Cancel(result);
      } else {
        result = Status::TimedOut("admission timeout in resource group " + name());
      }
      break;
    }
    int64_t poll_us = 50'000;
    if (effective_deadline != 0) {
      int64_t remaining = effective_deadline - now;
      if (remaining < poll_us) poll_us = remaining > 0 ? remaining : 1;
    }
    slot_available_.wait_for(lk, std::chrono::microseconds(poll_us));
  }
  --queued_;
  if (m_slot_wait_us_ != nullptr) {
    m_slot_wait_us_->Add(static_cast<uint64_t>(sw.ElapsedMicros()));
  }
  if (!result.ok()) return result;
  ++active_;
  if (m_admitted_ != nullptr) m_admitted_->Add(1);
  return Status::OK();
}

int ResourceGroup::DispatchBound(int resgroup_max_queue, int overflow_per_slot) const {
  int bound = config_.concurrency;
  if (resgroup_max_queue > 0) {
    bound += resgroup_max_queue;
  } else {
    bound += config_.concurrency * std::max(overflow_per_slot, 0);
  }
  return std::max(bound, 1);
}

ResourceGroup::OverloadStats ResourceGroup::overload_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  OverloadStats s;
  s.queued_now = queued_;
  s.queued_total = queued_total_;
  s.shed = shed_;
  s.admission_timeouts = admission_timeouts_;
  return s;
}

void ResourceGroup::Leave() {
  std::lock_guard<std::mutex> lk(mu_);
  if (active_ > 0) --active_;
  slot_available_.notify_one();
}

int ResourceGroup::active() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_;
}

void ResourceGroup::ChargeCpu(int64_t work_us) { governor_->Charge(name(), work_us); }

std::unique_ptr<QueryMemoryAccount> ResourceGroup::NewMemoryAccount() {
  return std::make_unique<QueryMemoryAccount>(vmem_, memory_);
}

ResourceGroupRegistry::ResourceGroupRegistry(CpuGovernor* governor, VmemTracker* vmem,
                                             MetricsRegistry* metrics)
    : governor_(governor), vmem_(vmem), metrics_(metrics) {}

Status ResourceGroupRegistry::CreateGroup(const ResourceGroupConfig& config) {
  auto percent = [](double v) { return v >= 0 && v <= 100; };  // false for NaN
  const int cores = governor_->total_cores();
  const bool cpuset = config.cpuset_begin != -1 || config.cpuset_end != -1;
  if (config.concurrency < 1 || !percent(config.cpu_rate_limit) ||
      !percent(config.memory_shared_quota) ||
      (cpuset && (config.cpuset_begin < 0 || config.cpuset_end < config.cpuset_begin ||
                  config.cpuset_end >= cores)) ||
      config.memory_limit_mb < 1 || config.memory_limit_mb > (INT64_MAX >> 20)) {
    return Status::InvalidArgument(
        "resource group " + config.name + ": concurrency must be at least 1, cpu_rate_limit "
        "and memory_shared_quota percentages in [0, 100], cpu_set a core range within [0, " +
        std::to_string(cores) + "), and memory_limit at least 1 MB with its byte count "
        "within int64");
  }
  std::lock_guard<std::mutex> g(mu_);
  if (groups_.count(config.name)) {
    return Status::AlreadyExists("resource group " + config.name);
  }
  groups_[config.name] = std::make_shared<ResourceGroup>(config, governor_, vmem_, metrics_);
  return Status::OK();
}

Status ResourceGroupRegistry::DropGroup(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  if (groups_.erase(name) == 0) return Status::NotFound("resource group " + name);
  for (auto it = role_to_group_.begin(); it != role_to_group_.end();) {
    if (it->second == name) {
      it = role_to_group_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

std::shared_ptr<ResourceGroup> ResourceGroupRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = groups_.find(name);
  return it == groups_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<ResourceGroup>> ResourceGroupRegistry::ListGroups() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::shared_ptr<ResourceGroup>> out;
  out.reserve(groups_.size());
  for (const auto& [name, group] : groups_) out.push_back(group);
  std::sort(out.begin(), out.end(),
            [](const std::shared_ptr<ResourceGroup>& a,
               const std::shared_ptr<ResourceGroup>& b) { return a->name() < b->name(); });
  return out;
}

Status ResourceGroupRegistry::AssignRole(const std::string& role,
                                         const std::string& group) {
  std::lock_guard<std::mutex> g(mu_);
  if (!groups_.count(group)) return Status::NotFound("resource group " + group);
  role_to_group_[role] = group;
  return Status::OK();
}

std::shared_ptr<ResourceGroup> ResourceGroupRegistry::GroupForRole(
    const std::string& role) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = role_to_group_.find(role);
  if (it == role_to_group_.end()) return nullptr;
  auto git = groups_.find(it->second);
  return git == groups_.end() ? nullptr : git->second;
}

}  // namespace gphtap
