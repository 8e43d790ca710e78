// Online reorganization and elastic expansion: transactional CLUSTER rewrites,
// AO row-group compaction for VACUUM, and per-table online rebalancing onto a
// grown segment set (snapshot copy + change-log catchup + brief AccessExclusive
// cutover). Everything here runs under ordinary MVCC inside the calling
// session's transaction, so BEGIN; CLUSTER; ABORT — or a crash mid-rebalance —
// leaves the table intact and the operation retryable.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cluster/session.h"
#include "common/fault_injector.h"
#include "common/clock.h"
#include "storage/column_store.h"
#include "storage/heap_table.h"

namespace gphtap {

namespace {

// A sealed AO group is compacted once at least this fraction of its rows is
// dead: frequent enough to bound bloat, rare enough that a handful of deletes
// does not trigger a rewrite.
constexpr uint64_t kDeadHeavyPercent = 10;

bool ReorgEligible(const TableDef& def) {
  return !def.is_system_view && !def.partitions.has_value() &&
         def.storage != StorageKind::kExternal;
}

}  // namespace

Status Session::MarkDeletedResolved(Table* table, TupleId tid, LocalXid xid) {
  if (auto* heap = dynamic_cast<HeapTable*>(table)) {
    MarkDeleteResult r = heap->TryMarkDeleted(tid, xid);
    switch (r.outcome) {
      case MarkDeleteOutcome::kOk:
      case MarkDeleteOutcome::kSelfUpdated:
        return Status::OK();
      case MarkDeleteOutcome::kWait:
      case MarkDeleteOutcome::kFollow:
        // Callers hold ExclusiveLock or AccessExclusiveLock on the relation,
        // so every concurrent writer has resolved; a live xmax here means a
        // lock was skipped somewhere.
        return Status::Internal("concurrent writer surfaced during reorg");
    }
    return Status::Internal("unhandled mark-delete outcome");
  }
  return table->MarkDeleted(tid, xid);
}

// ---------------------------------------------------------------------------
// AO VACUUM: whole-group reclamation + dead-heavy compaction
// ---------------------------------------------------------------------------

Status Session::VacuumAppendOptimizedSegment(Segment* seg, Table* table,
                                             int64_t* reclaimed) {
  auto* ao = dynamic_cast<AoColumnTable*>(table);
  if (ao == nullptr) return Status::OK();

  // A row is reclaimable only when no live snapshot anywhere can still see it:
  // aborted xmin, or committed xmax whose distributed transaction precedes the
  // oldest live snapshot (a truncated dlog mapping means it long precedes it).
  const Gxid oldest_gxid = cluster_->dtm().OldestVisibleGxid();
  const CommitLog& clog = seg->clog();
  const DistributedLog& dlog = seg->dlog();
  AoRowDeadFn dead = [&](LocalXid xmin, LocalXid xmax) {
    if (clog.GetState(xmin) == TxnState::kAborted) return true;
    if (xmax == kInvalidLocalXid || !clog.IsCommitted(xmax)) return false;
    auto gxid = dlog.Lookup(xmax);
    return !gxid.has_value() || *gxid < oldest_gxid;
  };

  // Pass 1: free groups that are dead end to end. Replayed as kFreeGroup, so
  // the group keeps its index slot and tids stay reproducible.
  AoReclaimResult freed = ao->ReclaimDeadGroups(dead);
  *reclaimed += static_cast<int64_t>(freed.rows_freed);

  // Pass 2: compact dead-heavy sealed groups — rewrite their live rows into
  // the open tail under this vacuum's transaction. The drained groups go
  // all-dead once it commits and the next vacuum frees them whole.
  std::unordered_set<size_t> heavy;
  for (const AoGroupInfo& info : ao->GroupInfos(dead)) {
    if (!info.sealed || info.freed || info.live == 0 || info.rows == 0) continue;
    if (info.dead * 100 >= info.rows * kDeadHeavyPercent) heavy.insert(info.index);
  }
  if (heavy.empty()) return Status::OK();

  GPHTAP_RETURN_IF_ERROR(EnsureSegmentWrite(seg));
  GPHTAP_ASSIGN_OR_RETURN(LocalXid my_xid, seg->txns().AssignXid(gxid_));
  VisibilityContext vis;
  vis.clog = &seg->clog();
  vis.dlog = &seg->dlog();
  vis.dsnap = &snapshot_;
  LocalSnapshot lsnap = seg->txns().TakeLocalSnapshot();
  vis.lsnap = &lsnap;
  vis.my_xid = my_xid;

  std::vector<std::pair<TupleId, Row>> movers;
  GPHTAP_RETURN_IF_ERROR(table->Scan(vis, [&](TupleId tid, const Row& row) {
    if (heavy.count(static_cast<size_t>(tid / AoColumnTable::kRowGroupSize)) != 0) {
      movers.emplace_back(tid, row);
    }
    return true;
  }));
  for (auto& [tid, row] : movers) {
    GPHTAP_RETURN_IF_ERROR(MarkDeletedResolved(table, tid, my_xid));
    GPHTAP_RETURN_IF_ERROR(table->Insert(my_xid, row).status());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CLUSTER <table> [USING <col>]
// ---------------------------------------------------------------------------

Status Session::ClusterSegment(Segment* seg, const TableDef& def, int order_col,
                               int64_t* rewritten) {
  Table* table = seg->GetTable(def.id);
  if (table == nullptr) return Status::NotFound("table missing on segment");
  GPHTAP_RETURN_IF_ERROR(EnsureSegmentWrite(seg));
  GPHTAP_ASSIGN_OR_RETURN(LocalXid my_xid, seg->txns().AssignXid(gxid_));

  VisibilityContext vis;
  vis.clog = &seg->clog();
  vis.dlog = &seg->dlog();
  vis.dsnap = &snapshot_;
  LocalSnapshot lsnap = seg->txns().TakeLocalSnapshot();
  vis.lsnap = &lsnap;
  vis.my_xid = my_xid;

  // Collect first (Halloween protection: the rewrite appends to the same
  // table the scan walks), then delete + re-insert under this transaction.
  std::vector<std::pair<TupleId, Row>> rows;
  GPHTAP_RETURN_IF_ERROR(table->Scan(vis, [&](TupleId tid, const Row& row) {
    rows.emplace_back(tid, row);
    return true;
  }));
  if (order_col >= 0) {
    std::stable_sort(rows.begin(), rows.end(),
                     [order_col](const auto& a, const auto& b) {
                       return a.second[static_cast<size_t>(order_col)].Compare(
                                  b.second[static_cast<size_t>(order_col)]) < 0;
                     });
  }
  for (auto& [tid, row] : rows) {
    GPHTAP_RETURN_IF_ERROR(MarkDeletedResolved(table, tid, my_xid));
    GPHTAP_RETURN_IF_ERROR(table->Insert(my_xid, row).status());
    ++*rewritten;
  }
  return Status::OK();
}

StatusOr<QueryResult> Session::ExecuteCluster(const TableDef& def, int order_col) {
  if (!ReorgEligible(def)) {
    return Status::NotSupported("CLUSTER supports plain heap/AO/AO-column tables");
  }
  return RunStatementErased([&]() -> StatusOr<QueryResult> {
    // ExclusiveLock: writers drain and stay out, readers keep flowing against
    // the pre-rewrite versions until we commit.
    GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(def, LockMode::kExclusive));
    // Lock-then-rescan: writers that committed while we queued for the lock
    // must be visible to the rewrite, or their versions would look live-but-
    // undeletable (kFollow) and abort the CLUSTER spuriously.
    GPHTAP_RETURN_IF_ERROR(TakeStatementSnapshot());
    ProgressRegistry::Handle progress =
        cluster_->progress().Begin(ProgressOp::kCluster, def.name);
    progress.SetPhase("rewrite");
    progress.SetTotal(cluster_->num_segments());
    int64_t rewritten = 0;
    for (int i = 0; i < cluster_->num_segments(); ++i) {
      progress.SetNode(i);
      Segment* seg = cluster_->segment(i);
      GPHTAP_ASSIGN_OR_RETURN(SegmentPin pin, seg->Pin());
      GPHTAP_RETURN_IF_ERROR(LockRelationSegment(seg, def, LockMode::kExclusive));
      GPHTAP_RETURN_IF_ERROR(ClusterSegment(seg, def, order_col, &rewritten));
      progress.Advance();
    }
    QueryResult r;
    r.affected = rewritten;
    return r;
  });
}

// ---------------------------------------------------------------------------
// REBALANCE TABLE — online expansion
// ---------------------------------------------------------------------------

Status Session::RebalanceHashTable(const TableDef& def, int new_span,
                                   RebalanceReport* report,
                                   ProgressRegistry::Handle* progress) {
  const int64_t copy_start = MonotonicMicros();
  progress->SetPhase("copy");
  const std::vector<int>& key_cols = def.distribution.key_cols;
  // Scan every serving segment, not just the recorded span: a previously
  // aborted attempt can leave rows at mixed homes, and this pass must herd
  // them all to hash % new_span wherever they sit.
  const int src_span = cluster_->num_segments();

  GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(def, LockMode::kRowExclusive));
  // Fresh snapshot under the lock: anything committed while we queued is
  // copied now instead of left for the cutover catchup.
  GPHTAP_RETURN_IF_ERROR(TakeStatementSnapshot());
  std::vector<SegmentPin> pins;
  for (int i = 0; i < src_span; ++i) {
    GPHTAP_ASSIGN_OR_RETURN(SegmentPin pin, cluster_->segment(i)->Pin());
    pins.push_back(std::move(pin));
  }

  // One local xid per segment we write (targets now, sources at cutover).
  std::vector<LocalXid> xids(static_cast<size_t>(src_span), kInvalidLocalXid);
  std::vector<bool> write_locked(static_cast<size_t>(src_span), false);
  auto writer_xid = [&](int i) -> StatusOr<LocalXid> {
    Segment* seg = cluster_->segment(i);
    if (!write_locked[static_cast<size_t>(i)]) {
      GPHTAP_RETURN_IF_ERROR(
          LockRelationSegment(seg, def, LockMode::kRowExclusive));
      GPHTAP_RETURN_IF_ERROR(EnsureSegmentWrite(seg));
      write_locked[static_cast<size_t>(i)] = true;
    }
    if (xids[static_cast<size_t>(i)] == kInvalidLocalXid) {
      GPHTAP_ASSIGN_OR_RETURN(LocalXid xid, seg->txns().AssignXid(gxid_));
      xids[static_cast<size_t>(i)] = xid;
    }
    return xids[static_cast<size_t>(i)];
  };

  // ---- Copy phase: writers keep flowing (sources under AccessShare). ----
  // Staged copies carry this transaction's xid, so they are invisible to
  // everyone until the cutover commits.
  struct Staged {
    int dst_seg;
    TupleId dst_tid;
  };
  // Per source segment: src_tid -> staged copy location.
  std::vector<std::unordered_map<TupleId, Staged>> staged(
      static_cast<size_t>(src_span));
  std::vector<size_t> marks(static_cast<size_t>(src_span), 0);

  auto stage_copy = [&](int src, TupleId src_tid, const Row& row,
                        int dst) -> Status {
    GPHTAP_ASSIGN_OR_RETURN(LocalXid dst_xid, writer_xid(dst));
    Table* dst_table = cluster_->segment(dst)->GetTable(def.id);
    if (dst_table == nullptr) return Status::NotFound("table missing on segment");
    GPHTAP_ASSIGN_OR_RETURN(TupleId dst_tid, dst_table->Insert(dst_xid, row));
    staged[static_cast<size_t>(src)][src_tid] = Staged{dst, dst_tid};
    ++report->rows_moved;
    progress->Advance();  // units = rows staged onto their new homes
    return Status::OK();
  };

  for (int s = 0; s < src_span; ++s) {
    progress->SetNode(s);
    Segment* src = cluster_->segment(s);
    if (cluster_->faults().Evaluate(fault_points::kCrashDuringRebalanceCopy, s)) {
      (void)src->Crash();
      return Status::Unavailable("segment " + std::to_string(s) +
                                 " crashed during rebalance copy");
    }
    GPHTAP_RETURN_IF_ERROR(LockRelationSegment(src, def, LockMode::kAccessShare));
    marks[static_cast<size_t>(s)] = src->change_log() != nullptr
                                        ? src->change_log()->size()
                                        : 0;
    Table* table = src->GetTable(def.id);
    if (table == nullptr) return Status::NotFound("table missing on segment");

    VisibilityContext vis;
    vis.clog = &src->clog();
    vis.dlog = &src->dlog();
    vis.dsnap = &snapshot_;
    LocalSnapshot lsnap = src->txns().TakeLocalSnapshot();
    vis.lsnap = &lsnap;

    // Collect before staging: staging inserts into sibling segments while this
    // scan holds the source latch, so keep the two steps apart.
    std::vector<std::pair<TupleId, Row>> movers;
    GPHTAP_RETURN_IF_ERROR(table->Scan(vis, [&](TupleId tid, const Row& row) {
      int dst = Cluster::SegmentForHash(HashRowKey(row, key_cols), new_span);
      if (dst != s) movers.emplace_back(tid, row);
      return true;
    }));
    for (auto& [tid, row] : movers) {
      int dst = Cluster::SegmentForHash(HashRowKey(row, key_cols), new_span);
      GPHTAP_RETURN_IF_ERROR(stage_copy(s, tid, row, dst));
    }
  }
  report->copy_us = MonotonicMicros() - copy_start;

  // ---- Cutover: brief AccessExclusive everywhere. ----
  // Acquisition drains in-flight writers (they hold RowExclusive until their
  // commit), so from here every xmin/xmax on this table is resolved and the
  // local clog alone decides visibility.
  const int64_t cutover_start = MonotonicMicros();
  progress->SetPhase("cutover");
  GPHTAP_RETURN_IF_ERROR(
      LockRelationCoordinator(def, LockMode::kAccessExclusive));
  for (int s = 0; s < src_span; ++s) {
    GPHTAP_RETURN_IF_ERROR(LockRelationSegment(cluster_->segment(s), def,
                                               LockMode::kAccessExclusive));
  }
  // The catchup delta: what writers appended to each change log mid-copy.
  for (int s = 0; s < src_span; ++s) {
    ChangeLog* log = cluster_->segment(s)->change_log();
    if (log == nullptr) continue;
    const size_t end = log->size();
    for (size_t pos = marks[static_cast<size_t>(s)]; pos < end; ++pos) {
      const ChangeRecord& rec = log->At(pos);
      if (rec.table != def.id) continue;
      if (rec.kind == ChangeKind::kInsert || rec.kind == ChangeKind::kSetXmax) {
        ++report->catchup_records;
      }
    }
  }
  // Catchup + delete originals, one resolved-visibility rescan per source:
  //   - a visible moving row already staged: delete the original;
  //   - a visible moving row not staged (committed mid-copy): stage it now,
  //     then delete the original;
  //   - a staged original no longer visible (deleted mid-copy): kill the
  //     staged copy by self-deleting it.
  for (int s = 0; s < src_span; ++s) {
    Segment* src = cluster_->segment(s);
    Table* table = src->GetTable(def.id);
    if (table == nullptr) return Status::NotFound("table missing on segment");
    GPHTAP_ASSIGN_OR_RETURN(LocalXid src_xid, writer_xid(s));

    VisibilityContext vis;
    vis.clog = &src->clog();
    vis.dlog = &src->dlog();
    vis.dsnap = nullptr;  // utility mode: clog + fresh local snapshot
    LocalSnapshot lsnap = src->txns().TakeLocalSnapshot();
    vis.lsnap = &lsnap;
    vis.my_xid = src_xid;

    std::vector<std::pair<TupleId, Row>> movers;
    GPHTAP_RETURN_IF_ERROR(table->Scan(vis, [&](TupleId tid, const Row& row) {
      int dst = Cluster::SegmentForHash(HashRowKey(row, key_cols), new_span);
      if (dst != s) movers.emplace_back(tid, row);
      return true;
    }));
    std::unordered_set<TupleId> seen;
    for (auto& [tid, row] : movers) {
      seen.insert(tid);
      if (staged[static_cast<size_t>(s)].count(tid) == 0) {
        int dst = Cluster::SegmentForHash(HashRowKey(row, key_cols), new_span);
        GPHTAP_RETURN_IF_ERROR(stage_copy(s, tid, row, dst));
      }
      GPHTAP_RETURN_IF_ERROR(MarkDeletedResolved(table, tid, src_xid));
    }
    for (const auto& [src_tid, st] : staged[static_cast<size_t>(s)]) {
      if (seen.count(src_tid) != 0) continue;
      // The original vanished after the copy snapshot; its staged copy must
      // never become visible. xmin == xmax == this transaction: dead on
      // arrival whichever way the transaction ends.
      GPHTAP_ASSIGN_OR_RETURN(LocalXid dst_xid, writer_xid(st.dst_seg));
      Table* dst_table = cluster_->segment(st.dst_seg)->GetTable(def.id);
      if (dst_table == nullptr) return Status::NotFound("table missing on segment");
      GPHTAP_RETURN_IF_ERROR(MarkDeletedResolved(dst_table, st.dst_tid, dst_xid));
    }
  }
  // Widen the routing span while writers are still fenced out. If the commit
  // below fails, the table is mixed-span but stays correct: the rebalancing
  // flag keeps reads full-fan-out, inserts route to valid segments either
  // way, and a retry herds everything to the new homes.
  GPHTAP_RETURN_IF_ERROR(cluster_->SetTableDistSegments(def.name, new_span));
  report->cutover_us = MonotonicMicros() - cutover_start;
  return Status::OK();
}

Status Session::RebalanceReplicatedTable(const TableDef& def, int new_span,
                                         RebalanceReport* report,
                                         ProgressRegistry::Handle* progress) {
  const int64_t start = MonotonicMicros();
  progress->SetPhase("copy");
  // Replicated sync is not online: the table is fenced for the duration of
  // the copy (it is expected to be small — that is why it is replicated).
  GPHTAP_RETURN_IF_ERROR(
      LockRelationCoordinator(def, LockMode::kAccessExclusive));
  std::vector<SegmentPin> pins;
  for (int i = 0; i < new_span; ++i) {
    GPHTAP_ASSIGN_OR_RETURN(SegmentPin pin, cluster_->segment(i)->Pin());
    pins.push_back(std::move(pin));
    GPHTAP_RETURN_IF_ERROR(LockRelationSegment(cluster_->segment(i), def,
                                               LockMode::kAccessExclusive));
  }
  const int old_span = std::max(1, std::min(def.dist_segments <= 0
                                                ? new_span
                                                : def.dist_segments,
                                            new_span));

  // Segment 0 always carries a complete copy; snapshot it with resolved
  // visibility (writers are drained by the AccessExclusive acquisition).
  Segment* src = cluster_->segment(0);
  Table* src_table = src->GetTable(def.id);
  if (src_table == nullptr) return Status::NotFound("table missing on segment");
  VisibilityContext src_vis;
  src_vis.clog = &src->clog();
  src_vis.dlog = &src->dlog();
  LocalSnapshot src_lsnap = src->txns().TakeLocalSnapshot();
  src_vis.lsnap = &src_lsnap;
  std::vector<Row> content;
  GPHTAP_RETURN_IF_ERROR(src_table->Scan(src_vis, [&](TupleId, const Row& row) {
    content.push_back(row);
    return true;
  }));

  // Resync each new segment from scratch: delete whatever is visible there
  // (leftovers from writer fan-out while the rebalancing flag was up, or from
  // an earlier completed copy) and re-stage the full content. Deletes and
  // inserts commit atomically with this transaction, so a retry after any
  // failure starts from the same clean rule.
  for (int t = old_span; t < new_span; ++t) {
    progress->SetNode(t);
    Segment* dst = cluster_->segment(t);
    Table* dst_table = dst->GetTable(def.id);
    if (dst_table == nullptr) return Status::NotFound("table missing on segment");
    GPHTAP_RETURN_IF_ERROR(EnsureSegmentWrite(dst));
    GPHTAP_ASSIGN_OR_RETURN(LocalXid dst_xid, dst->txns().AssignXid(gxid_));

    VisibilityContext vis;
    vis.clog = &dst->clog();
    vis.dlog = &dst->dlog();
    LocalSnapshot lsnap = dst->txns().TakeLocalSnapshot();
    vis.lsnap = &lsnap;
    vis.my_xid = dst_xid;
    std::vector<TupleId> existing;
    GPHTAP_RETURN_IF_ERROR(dst_table->Scan(vis, [&](TupleId tid, const Row&) {
      existing.push_back(tid);
      return true;
    }));
    for (TupleId tid : existing) {
      GPHTAP_RETURN_IF_ERROR(MarkDeletedResolved(dst_table, tid, dst_xid));
    }
    for (const Row& row : content) {
      GPHTAP_RETURN_IF_ERROR(dst_table->Insert(dst_xid, row).status());
      ++report->rows_moved;
      progress->Advance();
    }
  }
  report->copy_us = MonotonicMicros() - start;
  report->cutover_us = report->copy_us;
  return Status::OK();
}

StatusOr<RebalanceReport> Session::RebalanceTable(const std::string& name) {
  if (in_txn()) {
    return Status::InvalidArgument(
        "REBALANCE TABLE cannot run inside a transaction block");
  }
  GPHTAP_ASSIGN_OR_RETURN(TableDef def, cluster_->LookupTable(name));
  if (!ReorgEligible(def)) {
    return Status::NotSupported("REBALANCE supports plain heap/AO/AO-column tables");
  }
  const int new_span = cluster_->num_segments();
  Cluster::TableDistInfo dist = cluster_->TableDist(def.id);
  def.dist_segments = dist.dist_segments;  // fresh span, not the cached def's

  RebalanceReport report;
  if (dist.dist_segments == new_span && !dist.rebalancing) {
    report.cutover_complete = true;
    report.horizon_cleared = true;
    return report;  // already spans every serving segment
  }

  // Raise the flag before any row moves: direct dispatch goes off cluster-wide
  // and replicated writes fan to every serving segment. The flag only drops
  // after a successful cutover once the snapshot horizon has passed it, so an
  // abort or crash anywhere below leaves reads correct and the command
  // retryable.
  GPHTAP_RETURN_IF_ERROR(cluster_->SetTableRebalancing(def.name, true));

  Gxid rebalance_gxid = kInvalidGxid;
  const bool replicated = def.distribution.kind == DistributionKind::kReplicated;
  ProgressRegistry::Handle progress =
      cluster_->progress().Begin(ProgressOp::kRebalance, def.name);
  auto body = RunStatementErased([&]() -> StatusOr<QueryResult> {
    rebalance_gxid = gxid_;
    switch (def.distribution.kind) {
      case DistributionKind::kHash:
        GPHTAP_RETURN_IF_ERROR(RebalanceHashTable(def, new_span, &report, &progress));
        break;
      case DistributionKind::kReplicated:
        GPHTAP_RETURN_IF_ERROR(
            RebalanceReplicatedTable(def, new_span, &report, &progress));
        break;
      case DistributionKind::kRandom:
        // Round-robin placement has nothing to restore; widening the modulus
        // under a writer fence is the whole job.
        progress.SetPhase("cutover");
        GPHTAP_RETURN_IF_ERROR(
            LockRelationCoordinator(def, LockMode::kAccessExclusive));
        GPHTAP_RETURN_IF_ERROR(cluster_->SetTableDistSegments(def.name, new_span));
        break;
    }
    return QueryResult{};
  });
  if (!body.ok()) return body.status();
  progress.SetPhase("horizon-wait");

  // Clear the flag only when no live snapshot predates the cutover: an older
  // snapshot must keep full-fan-out reads (it still sees rows at their old
  // homes). Bounded wait — leaving the flag up is always correct, just slower.
  const int64_t deadline = MonotonicMicros() + 10'000'000;
  bool horizon_passed = true;
  while (cluster_->dtm().OldestVisibleGxid() <= rebalance_gxid) {
    if (MonotonicMicros() >= deadline) {
      horizon_passed = false;
      break;
    }
    PreciseSleepUs(200);
  }
  if (horizon_passed) {
    // Replicated tables widen their recorded span only now: until every live
    // snapshot postdates the copy, readers must stay bounded to the old span
    // (the new copies are invisible to older snapshots).
    if (replicated) {
      GPHTAP_RETURN_IF_ERROR(cluster_->SetTableDistSegments(def.name, new_span));
    }
    GPHTAP_RETURN_IF_ERROR(cluster_->SetTableRebalancing(def.name, false));
    report.horizon_cleared = true;
  }
  report.cutover_complete = true;
  return report;
}

StatusOr<QueryResult> Session::ExecuteRebalance(const std::string& name) {
  GPHTAP_ASSIGN_OR_RETURN(RebalanceReport report, RebalanceTable(name));
  QueryResult r;
  r.columns = {"rows_moved", "catchup_records", "copy_us", "cutover_us",
               "cutover_complete", "horizon_cleared"};
  r.rows.push_back(Row{Datum(static_cast<int64_t>(report.rows_moved)),
                       Datum(static_cast<int64_t>(report.catchup_records)),
                       Datum(report.copy_us), Datum(report.cutover_us),
                       Datum(static_cast<int64_t>(report.cutover_complete ? 1 : 0)),
                       Datum(static_cast<int64_t>(report.horizon_cleared ? 1 : 0))});
  r.affected = static_cast<int64_t>(report.rows_moved);
  return r;
}

}  // namespace gphtap
