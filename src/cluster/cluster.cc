#include "cluster/cluster.h"

#include <algorithm>
#include <fstream>

#include "catalog/system_views.h"
#include "cluster/session.h"
#include "common/clock.h"
#include "frontend/frontend.h"
#include "net/motion_exchange.h"
#include "storage/column_store.h"
#include "storage/heap_table.h"

namespace gphtap {

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      gangs_(&metrics_),
      coordinator_wal_(options.fsync_cost_us),
      coordinator_locks_(-1, options.locks),
      coordinator_txns_(&coordinator_clog_, &coordinator_dlog_, &coordinator_wal_),
      net_(options.net_latency_us),
      governor_(options.total_cores),
      vmem_(options.global_shared_mem_mb << 20),
      resgroups_(&governor_, &vmem_, &metrics_) {
  plan_cache_ = std::make_unique<PlanCache>(options.plan_cache_capacity, &metrics_);
  net_.set_metrics(&metrics_);
  coordinator_wal_.set_metrics(&metrics_);
  coordinator_locks_.set_metrics(&metrics_);
  vmem_.set_metrics(&metrics_);
  // The built-in default group: every session not mapped to a user group
  // charges CPU here. Soft 100% share means it only throttles when the
  // machine's simulated capacity is saturated — which is exactly the
  // un-isolated interference the paper's Figures 16/17 show.
  ResourceGroupConfig default_group;
  default_group.name = "default_group";
  default_group.concurrency = 1'000'000;
  default_group.cpu_rate_limit = 100;
  default_group.memory_limit_mb = options.global_shared_mem_mb;
  resgroups_.CreateGroup(default_group);

  net_.set_fault_injector(&faults_);

  seg_options_.buffer_pool = options.buffer_pool;
  seg_options_.fsync_cost_us = options.fsync_cost_us;
  seg_options_.locks = options.locks;
  // Mirrors, crash recovery and the delta feed all read the change log.
  seg_options_.keep_change_log = options.mirrors_enabled ||
                                 options.crash_recovery_enabled ||
                                 options.delta_store_enabled;
  seg_options_.metrics = &metrics_;
  // Fixed-capacity slot arrays: AddSegments fills slots past the serving count
  // at runtime, so the vectors themselves never reallocate under readers.
  segments_.resize(kMaxSegments);
  mirrors_.resize(kMaxSegments);
  breakers_.resize(kMaxSegments);
  delta_indexes_.resize(kMaxSegments);
  const int initial = std::min(options.num_segments, kMaxSegments);
  for (int i = 0; i < initial; ++i) {
    Status built = BuildSegmentSlot(i, {});
    (void)built;  // boot-time slot creation with an empty catalog cannot fail
  }
  serving_segments_.store(initial, std::memory_order_release);

  if (options.gdd_enabled) {
    GddDaemon::Hooks hooks;
    hooks.collect = [this] {
      net_.Deliver(MsgKind::kGddCollect);
      return CollectWaitGraphs();
    };
    hooks.txn_running = [this](Gxid gxid) { return dtm_.IsRunning(gxid); };
    hooks.kill = [this](Gxid gxid, Status reason) { CancelTxn(gxid, std::move(reason)); };
    gdd_ = std::make_unique<GddDaemon>(std::move(hooks), &metrics_);
    AddTask("gdd", options.gdd_period_us, [this](std::stop_token) {
      gdd_->RunOnce();
      return true;
    });
  }

  if (options.fts_enabled) {
    FtsDaemon::Hooks hooks;
    hooks.num_segments = [this] { return num_segments(); };
    hooks.probe = [this](int i) {
      // Probe + response both cross the wire; either leg can be dropped or
      // delayed by a fault, and a down segment never answers.
      if (!net_.Deliver(MsgKind::kFtsProbe)) return false;
      Segment* seg = segment(i);
      if (!seg->up()) return false;
      if (faults_.Evaluate(fault_points::kFtsProbeTimeout, i)) return false;
      return net_.Deliver(MsgKind::kFtsProbe);
    };
    hooks.can_failover = [this](int i) {
      MirrorSegment* m = mirror(i);
      return m != nullptr && !m->promoted();
    };
    hooks.failover = [this](int i) { return FailoverToMirror(i); };
    fts_ = std::make_unique<FtsDaemon>(std::move(hooks), options.fts_misses_before_failover,
                                       &metrics_);
    AddTask("fts", options.fts_period_us, [this](std::stop_token stop) {
      fts_->RunOnce(stop);
      return true;
    });
  }

  {
    // Always on: it is the correctness valve for 2PC transactions whose
    // commit fanout gave up on a participant (see dtx_recovery.h). Idle cost
    // is one parked thread: a pass that finds nothing pending parks the task
    // until Enqueue wakes it.
    DtxRecoveryDaemon::Hooks hooks;
    hooks.commit_segment = [this](Gxid gxid, int seg_index) -> Status {
      // Same wire + pin + local-commit shape as CommitSegmentWithRetry, but
      // without a deadline: the daemon retries until the segment answers.
      // Segment::Pin (not the breaker-guarded PinSegment) on purpose — this
      // path must keep probing a down segment, not fail fast.
      if (!net_.Deliver(MsgKind::kCommit)) {
        return Status::Unavailable("commit message to segment " +
                                   std::to_string(seg_index) + " dropped");
      }
      Segment* seg = segment(seg_index);
      auto pin = seg->Pin();
      if (!pin.ok()) return pin.status();
      Status s = seg->txns().CommitPrepared(gxid);
      if (s.ok()) net_.Deliver(MsgKind::kCommitAck);  // outcome observed directly
      return s;
    };
    hooks.release_locks = [this](const std::shared_ptr<LockOwner>& owner,
                                 int seg_index) {
      segment(seg_index)->locks().ReleaseAll(*owner);
    };
    hooks.mark_committed = [this](Gxid gxid) { dtm_.MarkCommitted(gxid); };
    dtx_recovery_ = std::make_unique<DtxRecoveryDaemon>(std::move(hooks), &metrics_);
    dtx_recovery_->set_task(AddTask("dtx_recovery", DtxRecoveryDaemon::kPeriodUs,
                                    [this](std::stop_token stop) {
                                      return dtx_recovery_->RunOnce(stop);
                                    }));
  }

  if (options.maintenance_period_us > 0) {
    AddTask("maintenance", options.maintenance_period_us, [this](std::stop_token) {
      TruncateXidMaps();
      return true;
    });
  }

  if (options.delta_store_enabled && options.delta_seal_period_us > 0) {
    // Daemon-lifetime progress entry (gp_stat_progress): phase "seal", node =
    // segment being sealed, units_done = completed per-segment passes. It
    // finishes when the task is destroyed; total stays 0 (unbounded).
    auto progress = std::make_shared<ProgressRegistry::Handle>(
        progress_.Begin(ProgressOp::kDeltaSeal, ""));
    progress->SetPhase("seal");
    AddTask("delta_seal", options.delta_seal_period_us,
            [this, progress](std::stop_token stop) {
              // Its own wait context, so seal stalls behind a recovering
              // segment show up in gp_wait_events as delta_seal_stall.
              WaitContext ctx;
              ctx.registry = &wait_events_;
              WaitContextGuard guard(ctx);
              for (int i = 0; i < num_segments() && !stop.stop_requested(); ++i) {
                progress->SetNode(i);
                Status s = SealDeltaNow(i);
                (void)s;  // a down segment skips its pass; the next one retries
                progress->Advance();
              }
              return true;
            });
  }

  if (options.stats_history_period_us > 0) {
    AddTask("stats_history", options.stats_history_period_us, [this](std::stop_token) {
      CaptureHistoryTick();
      return true;
    });
  }

  // Last: front-door sessions drive every subsystem above.
  if (options.frontend.enabled) {
    frontend_ = std::make_unique<FrontDoor>(this, options.frontend);
  }
}

Cluster::~Cluster() {
  // First: front-door workers may be mid-statement anywhere in the cluster.
  if (frontend_) {
    frontend_->Stop();
    frontend_.reset();
  }
  // Then every daemon; each returns once its pass in flight does.
  for (auto& task : tasks_) task->Stop();
  for (auto& di : delta_indexes_) {
    if (di != nullptr) di->Stop();
  }
  for (auto& m : mirrors_) {
    if (m != nullptr) m->Stop();
  }
}

PeriodicTask* Cluster::AddTask(std::string name, int64_t period_us,
                               PeriodicTask::Pass pass) {
  return tasks_
      .emplace_back(std::make_unique<PeriodicTask>(std::move(name), period_us, std::move(pass)))
      .get();
}

Status Cluster::BuildSegmentSlot(int index, const std::vector<TableDef>& defs) {
  auto seg = std::make_unique<Segment>(index, seg_options_);
  for (const TableDef& def : defs) {
    GPHTAP_RETURN_IF_ERROR(seg->CreateTable(def));
  }
  if (options_.mirrors_enabled) {
    auto m = std::make_unique<MirrorSegment>(index);
    m->set_fault_injector(&faults_);
    for (const TableDef& def : defs) {
      GPHTAP_RETURN_IF_ERROR(m->CreateTable(def));
    }
    m->Start(seg->change_log());
    mirrors_[static_cast<size_t>(index)] = std::move(m);
  }
  if (options_.breaker_enabled) {
    CircuitBreaker::Options breaker_options;
    breaker_options.failure_threshold = options_.breaker_failure_threshold;
    breaker_options.cooldown_us = options_.breaker_cooldown_us;
    auto b = std::make_unique<CircuitBreaker>(breaker_options);
    b->set_trip_counter(metrics_.counter("resilience.breaker_trips"));
    breakers_[static_cast<size_t>(index)] = std::move(b);
  }
  if (options_.delta_store_enabled) {
    auto di = std::make_unique<DeltaIndex>(
        index, [this](TableId id) { return LookupTableById(id); }, &metrics_);
    di->Start(seg->change_log());
    delta_indexes_[static_cast<size_t>(index)] = std::move(di);
  }
  segments_[static_cast<size_t>(index)] = std::move(seg);
  return Status::OK();
}

Status Cluster::SealDeltaNow(int index) {
  DeltaIndex* di = delta_index(index);
  if (di == nullptr) return Status::NotSupported("delta store disabled");
  Segment* seg = segment(index);
  if (seg == nullptr) return Status::NotFound("segment " + std::to_string(index));
  // Pin fails fast when the segment is down and blocks behind Recover()'s
  // exclusive service lock — the seal-stall point.
  WaitEventScope stall(WaitEvent::kDeltaSealStall, index);
  auto pin = seg->Pin();
  if (!pin.ok()) return pin.status();
  const CommitLog& clog = seg->clog();
  DistributedLog& dlog = seg->dlog();
  // Same physical-reclamation horizon as heap VACUUM: an aborted creator is
  // dead to everyone; a committed deleter only once it predates every live
  // snapshot (clog-committed alone is NOT safe — an older snapshot may still
  // need the row).
  const Gxid oldest_gxid = dtm_.OldestVisibleGxid();
  AoRowDeadFn dead = [&clog, &dlog, oldest_gxid](LocalXid xmin, LocalXid xmax) {
    if (clog.GetState(xmin) == TxnState::kAborted) return true;
    if (xmax == kInvalidLocalXid || !clog.IsCommitted(xmax)) return false;
    auto gxid = dlog.Lookup(xmax);
    return !gxid.has_value() || *gxid < oldest_gxid;
  };
  di->SealAndReclaim(&clog, seg->change_log(), dead);
  return Status::OK();
}

StatusOr<int> Cluster::AddSegments(int count) {
  if (count <= 0) return Status::InvalidArgument("AddSegments: count must be > 0");
  std::lock_guard<std::mutex> expand(expand_mu_);
  const int before = num_segments();
  if (before + count > kMaxSegments) {
    return Status::InvalidArgument("AddSegments: " + std::to_string(before + count) +
                                   " segments exceeds the capacity of " +
                                   std::to_string(kMaxSegments));
  }
  for (int i = before; i < before + count; ++i) {
    // New segments get every catalog table (empty; rebalancing moves data
    // later) and publish one at a time: a reader that observes count i+1 also
    // observes slot i's fully-built segment.
    GPHTAP_RETURN_IF_ERROR(BuildSegmentSlot(i, DefsForSegment(i)));
    serving_segments_.store(i + 1, std::memory_order_release);
  }
  // Cached plans embed gangs sized to the old serving count.
  BumpCatalogVersion();
  return before + count;
}

Cluster::TableDistInfo Cluster::TableDist(TableId id) const {
  std::lock_guard<std::mutex> g(catalog_mu_);
  for (const auto& [name, def] : catalog_) {
    if (def.id == id) return TableDistInfo{def.dist_segments, def.rebalancing};
  }
  return TableDistInfo{};  // system views / unknown: span everything
}

Status Cluster::SetTableDistSegments(const std::string& name, int dist_segments) {
  if (dist_segments <= 0 || dist_segments > num_segments()) {
    return Status::InvalidArgument("dist_segments " + std::to_string(dist_segments) +
                                   " out of range");
  }
  std::lock_guard<std::mutex> g(catalog_mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return Status::NotFound("table " + name);
  it->second.dist_segments = dist_segments;
  BumpCatalogVersion();
  return Status::OK();
}

Status Cluster::SetTableRebalancing(const std::string& name, bool rebalancing) {
  std::lock_guard<std::mutex> g(catalog_mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return Status::NotFound("table " + name);
  it->second.rebalancing = rebalancing;
  BumpCatalogVersion();
  return Status::OK();
}

Status Cluster::CreateTable(TableDef def) {
  // Serialized against AddSegments so the table lands on every segment exactly
  // once (a concurrent expansion would otherwise race the fanout below).
  std::lock_guard<std::mutex> expand(expand_mu_);
  {
    std::lock_guard<std::mutex> g(catalog_mu_);
    if (catalog_.count(def.name)) return Status::AlreadyExists("table " + def.name);
    def.id = next_table_id_++;
    // New tables span every serving segment; expansion then only needs to
    // migrate tables that predate it.
    if (def.dist_segments <= 0 || def.dist_segments > num_segments()) {
      def.dist_segments = num_segments();
    }
    catalog_[def.name] = def;
  }
  for (int i = 0; i < num_segments(); ++i) {
    Segment* seg = segment(i);
    TableDef seg_def = def;
    // External tables share one backing file; only segment 0 materializes it so
    // the data is neither written nor scanned N times. The same applies to
    // external leaf partitions.
    if (seg->index() != 0) {
      if (seg_def.storage == StorageKind::kExternal) seg_def.external_path = "";
      if (seg_def.partitions.has_value()) {
        for (auto& range : seg_def.partitions->ranges) {
          if (range.storage == StorageKind::kExternal) range.external_path = "";
        }
      }
    }
    GPHTAP_RETURN_IF_ERROR(seg->CreateTable(seg_def));
  }
  for (int i = 0; i < num_segments(); ++i) {
    MirrorSegment* m = mirror(i);
    if (m == nullptr) continue;
    TableDef mirror_def = def;
    if (m->primary_index() != 0 && mirror_def.storage == StorageKind::kExternal) {
      mirror_def.external_path = "";
    }
    GPHTAP_RETURN_IF_ERROR(m->CreateTable(mirror_def));
  }
  BumpCatalogVersion();
  return Status::OK();
}

Status Cluster::CreateIndex(const std::string& table, const std::string& column) {
  std::lock_guard<std::mutex> expand(expand_mu_);
  TableId id;
  int col;
  {
    std::lock_guard<std::mutex> g(catalog_mu_);
    auto it = catalog_.find(table);
    if (it == catalog_.end()) return Status::NotFound("table " + table);
    col = it->second.schema.FindColumn(column);
    if (col < 0) return Status::NotFound("column " + column);
    if (it->second.storage != StorageKind::kHeap || it->second.partitions.has_value()) {
      return Status::NotSupported("hash indexes require plain heap tables");
    }
    for (int existing : it->second.indexed_cols) {
      if (existing == col) return Status::AlreadyExists("index on " + column);
    }
    it->second.indexed_cols.push_back(col);
    id = it->second.id;
  }
  for (int i = 0; i < num_segments(); ++i) {
    auto* heap = dynamic_cast<HeapTable*>(segment(i)->GetTable(id));
    if (heap != nullptr) heap->AddIndex(col);
  }
  BumpCatalogVersion();
  return Status::OK();
}

Status Cluster::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> expand(expand_mu_);
  TableId id;
  {
    std::lock_guard<std::mutex> g(catalog_mu_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) return Status::NotFound("table " + name);
    id = it->second.id;
    catalog_.erase(it);
  }
  for (int i = 0; i < num_segments(); ++i) segment(i)->DropTable(id);
  for (int i = 0; i < num_segments(); ++i) {
    if (mirror(i) != nullptr) mirror(i)->DropTable(id);
  }
  BumpCatalogVersion();
  return Status::OK();
}

StatusOr<TableDef> Cluster::LookupTable(const std::string& name) const {
  {
    std::lock_guard<std::mutex> g(catalog_mu_);
    auto it = catalog_.find(name);
    if (it != catalog_.end()) return it->second;
  }
  // System views resolve after user tables (a user table may shadow them).
  const TableDef* view = FindSystemView(name);
  if (view != nullptr) return *view;
  return Status::NotFound("table " + name);
}

StatusOr<TableDef> Cluster::LookupTableById(TableId id) const {
  {
    std::lock_guard<std::mutex> g(catalog_mu_);
    for (const auto& [name, def] : catalog_) {
      if (def.id == id) return def;
    }
  }
  const TableDef* view = FindSystemViewById(id);
  if (view != nullptr) return *view;
  return Status::NotFound("table id " + std::to_string(id));
}

std::vector<TableDef> Cluster::ListTables() const {
  std::lock_guard<std::mutex> g(catalog_mu_);
  std::vector<TableDef> out;
  out.reserve(catalog_.size());
  for (const auto& [name, def] : catalog_) out.push_back(def);
  return out;
}

std::unique_ptr<Session> Cluster::Connect(const std::string& role) {
  return std::make_unique<Session>(this, role);
}

StatusOr<std::shared_ptr<FrontendSession>> Cluster::ConnectLogical(
    const std::string& role) {
  if (frontend_ == nullptr) {
    return Status::NotSupported("front door disabled (ClusterOptions::frontend)");
  }
  return frontend_->Connect(role);
}

void Cluster::CancelTxn(Gxid gxid, Status reason) {
  auto owner = dtm_.OwnerOf(gxid);
  if (owner != nullptr) owner->Cancel(std::move(reason));
  coordinator_locks_.WakeWaitersOf(gxid);
  for (int i = 0; i < num_segments(); ++i) segment(i)->locks().WakeWaitersOf(gxid);
  // Abort the query's open motion exchanges: a receiver parked in
  // Recv/RecvBatch on an idle sender has no lock wait to be woken from and
  // would otherwise only notice the cancel at its next poll chunk.
  std::vector<std::weak_ptr<MotionExchange>> exchanges;
  {
    std::lock_guard<std::mutex> g(exchanges_mu_);
    auto it = query_exchanges_.find(gxid);
    if (it != query_exchanges_.end()) exchanges = it->second;
  }
  for (auto& weak : exchanges) {
    if (auto exchange = weak.lock()) exchange->Abort();
  }
}

void Cluster::RegisterExchanges(Gxid gxid,
                                std::vector<std::weak_ptr<MotionExchange>> exchanges) {
  std::lock_guard<std::mutex> g(exchanges_mu_);
  auto& slot = query_exchanges_[gxid];
  slot.insert(slot.end(), exchanges.begin(), exchanges.end());
}

void Cluster::UnregisterExchanges(Gxid gxid) {
  std::lock_guard<std::mutex> g(exchanges_mu_);
  query_exchanges_.erase(gxid);
}

StatusOr<SegmentPin> Cluster::PinSegment(int index) {
  CircuitBreaker* b = breaker(index);
  if (b == nullptr) return segment(index)->Pin();
  const int64_t now = MonotonicMicros();
  GPHTAP_RETURN_IF_ERROR(b->Allow(now));
  auto pin = segment(index)->Pin();
  if (pin.ok()) {
    b->RecordSuccess();
  } else if (pin.status().code() == StatusCode::kUnavailable) {
    b->RecordFailure(now);
  }
  return pin;
}

std::vector<LocalWaitGraph> Cluster::CollectWaitGraphs() {
  const int n = num_segments();
  std::vector<LocalWaitGraph> graphs;
  graphs.reserve(static_cast<size_t>(n) + 1);
  graphs.push_back(coordinator_locks_.CollectWaitGraph());
  for (int i = 0; i < n; ++i) graphs.push_back(segment(i)->locks().CollectWaitGraph());
  return graphs;
}

Status Cluster::CatchUpMirrors(int64_t timeout_ms) {
  for (int i = 0; i < num_segments(); ++i) {
    // A promoted mirror's replay stopped at the failover that consumed it.
    if (mirror(i) == nullptr || mirror(i)->promoted()) continue;
    GPHTAP_RETURN_IF_ERROR(mirror(i)->CatchUp(timeout_ms));
  }
  return Status::OK();
}

namespace {

// Visible rows of a table under clog-only rules (valid when quiesced).
StatusOr<std::vector<std::string>> SnapshotRows(Table* table, const CommitLog* clog) {
  VisibilityContext ctx;
  ctx.clog = clog;
  std::vector<std::string> rows;
  GPHTAP_RETURN_IF_ERROR(table->Scan(ctx, [&](TupleId tid, const Row& row) {
    rows.push_back(std::to_string(tid) + ":" + RowToString(row));
    return true;
  }));
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

Status Cluster::VerifyMirrorsConsistent() {
  GPHTAP_RETURN_IF_ERROR(CatchUpMirrors());
  for (int mi = 0; mi < num_segments(); ++mi) {
    MirrorSegment* m = mirror(mi);
    if (m == nullptr || m->promoted()) continue;
    Segment* primary = segment(m->primary_index());
    for (const TableDef& def : ListTables()) {
      if (def.partitions.has_value()) continue;  // not mirrored
      Table* ptab = primary->GetTable(def.id);
      Table* mtab = m->GetTable(def.id);
      if (ptab == nullptr || mtab == nullptr) continue;
      if (def.storage == StorageKind::kExternal) continue;  // shared file
      GPHTAP_ASSIGN_OR_RETURN(auto primary_rows, SnapshotRows(ptab, &primary->clog()));
      GPHTAP_ASSIGN_OR_RETURN(auto mirror_rows, SnapshotRows(mtab, &m->clog()));
      if (primary_rows != mirror_rows) {
        return Status::Internal(
            "mirror divergence on segment " + std::to_string(m->primary_index()) +
            " table " + def.name + ": primary " + std::to_string(primary_rows.size()) +
            " rows vs mirror " + std::to_string(mirror_rows.size()));
      }
    }
  }
  return Status::OK();
}

uint64_t Cluster::TruncateXidMaps() {
  Gxid horizon = dtm_.OldestVisibleGxid();
  uint64_t removed = coordinator_dlog_.TruncateBelow(horizon);
  for (int i = 0; i < num_segments(); ++i) {
    removed += segment(i)->dlog().TruncateBelow(horizon);
  }
  return removed;
}

std::vector<TableDef> Cluster::DefsForSegment(int index) const {
  std::vector<TableDef> defs = ListTables();
  if (index != 0) {
    // Mirror of CreateTable(): only segment 0 materializes external files.
    for (TableDef& def : defs) {
      if (def.storage == StorageKind::kExternal) def.external_path = "";
      if (def.partitions.has_value()) {
        for (auto& range : def.partitions->ranges) {
          if (range.storage == StorageKind::kExternal) range.external_path = "";
        }
      }
    }
  }
  return defs;
}

Status Cluster::CrashSegment(int index) {
  if (index < 0 || index >= num_segments()) {
    return Status::InvalidArgument("no segment " + std::to_string(index));
  }
  return segment(index)->Crash();
}

Segment::InDoubtDecision Cluster::ResolveInDoubt(Gxid gxid) {
  if (HasDistributedCommitRecord(gxid)) return Segment::InDoubtDecision::kCommit;
  // Still running on the coordinator: phase two has not been decided yet, so
  // keep the prepared transaction; COMMIT PREPARED or ABORT will arrive.
  if (dtm_.IsRunning(gxid)) return Segment::InDoubtDecision::kKeepPrepared;
  return Segment::InDoubtDecision::kAbort;
}

Status Cluster::RecoverSegment(int index) {
  if (index < 0 || index >= num_segments()) {
    return Status::InvalidArgument("no segment " + std::to_string(index));
  }
  Status s = segment(index)->Recover(DefsForSegment(index),
                                     [this](Gxid gxid) { return ResolveInDoubt(gxid); });
  if (s.ok() && breaker(index) != nullptr) breaker(index)->Reset();
  return s;
}

Status Cluster::FailoverToMirror(int index) {
  if (index < 0 || index >= num_segments()) {
    return Status::InvalidArgument("no segment " + std::to_string(index));
  }
  std::lock_guard<std::mutex> failover_guard(failover_mu_);
  MirrorSegment* m = mirror(index);
  if (m == nullptr) return Status::NotSupported("segment has no mirror");
  if (m->promoted()) {
    return Status::NotSupported("mirror of segment " + std::to_string(index) +
                                " already promoted");
  }
  Segment* seg = segment(index);
  // Fence the primary so it stops producing while we promote.
  if (seg->up()) GPHTAP_RETURN_IF_ERROR(seg->Crash());
  // Drain the log into the mirror, then freeze it.
  GPHTAP_RETURN_IF_ERROR(m->CatchUp());
  m->Stop();
  m->MarkPromoted();
  // Rebuild the primary in place from the log the mirror replayed, through
  // the same Recover as a restart: the mirror's copy is that log applied, so
  // this is "the mirror takes over" without moving table objects between
  // nodes.
  Status s = seg->Recover(DefsForSegment(index),
                          [this](Gxid gxid) { return ResolveInDoubt(gxid); });
  if (s.ok() && breaker(index) != nullptr) breaker(index)->Reset();
  return s;
}

ClusterHealth Cluster::Health() {
  const int n = num_segments();
  const std::vector<TableDef> defs = ListTables();
  ClusterHealth health;
  health.segments.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Segment* seg = segment(i);
    SegmentHealthInfo info;
    info.index = seg->index();
    info.up = seg->up();
    info.change_log_size = seg->change_log() != nullptr ? seg->change_log()->size() : 0;
    MirrorSegment* m = mirror(seg->index());
    if (m != nullptr) {
      info.has_mirror = true;
      info.mirror_promoted = m->promoted();
      info.mirror_applied = m->applied();
      info.mirror_health = m->health();
    }
    // AO bloat under clog-only rules: a row is dead once its inserter aborted
    // or a deleter committed (whether it is *reclaimable* additionally depends
    // on the snapshot horizon; this column reports bloat, not reclaimability).
    const CommitLog& clog = seg->clog();
    AoRowDeadFn dead = [&clog](LocalXid xmin, LocalXid xmax) {
      if (clog.GetState(xmin) == TxnState::kAborted) return true;
      return xmax != kInvalidLocalXid && clog.IsCommitted(xmax);
    };
    for (const TableDef& def : defs) {
      auto* ao = dynamic_cast<AoColumnTable*>(seg->GetTable(def.id));
      if (ao == nullptr) continue;
      for (const AoGroupInfo& group : ao->GroupInfos(dead)) {
        info.ao_live_rows += group.live;
        info.ao_dead_rows += group.dead;
        if (group.freed) ++info.ao_reclaimed_groups;
      }
    }
    health.segments.push_back(std::move(info));
  }
  if (fts_) health.fts = fts_->stats();
  return health;
}

MetricsSnapshot Cluster::StatsSnapshot() {
  // Refresh level gauges that no subsystem maintains incrementally.
  metrics_.gauge("txn.running")->Set(static_cast<int64_t>(dtm_.NumRunning()));
  int64_t resident = 0;
  for (int i = 0; i < num_segments(); ++i) {
    resident += static_cast<int64_t>(segment(i)->pool().resident_pages());
  }
  metrics_.gauge("bufferpool.resident_pages")->Set(resident);
  return metrics_.TakeSnapshot();
}

std::string Cluster::StatsDump() { return StatsSnapshot().ToString(); }

void Cluster::CaptureHistoryTick() {
  metrics_history_.Capture(StatsSnapshot(), MonotonicMicros());
}

Status Cluster::DumpHistoryCsv(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f.is_open()) return Status::Internal("cannot open " + path);
  f << metrics_history_.ToCsv();
  f.close();
  if (!f.good()) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

}  // namespace gphtap
