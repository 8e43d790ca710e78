// The ModifyTable node (UPDATE / DELETE) on a segment. It collects every
// target from its scan child before it stamps any, so rows it writes never
// re-enter its target list (the Halloween problem). Heap versions are stamped
// under PostgreSQL's tuple-lock protocol, append-optimized rows through the
// visibility map under the relation's ExclusiveLock.
#include "common/clock.h"
#include "common/wait_event.h"
#include "exec/executor.h"
#include "storage/heap_table.h"
#include "storage/partitioned_table.h"

namespace gphtap {

namespace {

// One version the scan matched, with its contents as scanned.
struct Target {
  Table* table;  // the leaf, for a partitioned root
  TupleId tid;
  Row row;
};

// The UPDATE's new row over `old`, in its columns' declared types.
StatusOr<Row> NewRow(const PlanNode& node, const Schema& schema, const Row& old) {
  Row row = old;
  for (size_t c = 0; c < node.exprs.size(); ++c) {
    if (node.exprs[c] != nullptr) {
      GPHTAP_ASSIGN_OR_RETURN(row[c], EvalExpr(*node.exprs[c], old));
    }
  }
  schema.CoerceRow(&row);
  GPHTAP_RETURN_IF_ERROR(schema.CheckRow(row));
  return row;
}

// Write-dependency barrier: blocks until `xid`'s distributed transaction (if
// any) has left the coordinator's in-progress set. Honors cancellation and the
// statement deadline.
Status WaitForDistributedCommitOf(ExecContext& ctx, LocalXid xid) {
  if (xid == kInvalidLocalXid) return Status::OK();
  Segment* seg = ctx.segment;
  LockOwner& owner = *ctx.owner;
  auto gxid = seg->dlog().Lookup(xid);
  // No mapping: a purely local / long-truncated transaction — by the
  // truncation horizon it finished before any live snapshot.
  if (!gxid.has_value()) return Status::OK();
  DistributedTxnManager& dtm = ctx.cluster->dtm();
  while (dtm.IsRunning(*gxid)) {
    if (owner.cancelled()) return owner.cancel_reason();
    if (owner.DeadlineExpired(MonotonicMicros())) {
      Status timeout = Status::TimedOut(
          "statement timeout while waiting for distributed commit of txn " +
          std::to_string(*gxid));
      owner.Cancel(timeout);
      return timeout;
    }
    // The committer holds its transaction lock on this segment until it is
    // marked distributively committed, so a share-lock wait blocks exactly
    // until then (and shows up as a solid GDD edge; the committer itself
    // never waits on locks here, so no cycle can form through it).
    WaitEventScope wait(WaitEvent::kLockTransaction, seg->index());
    GPHTAP_RETURN_IF_ERROR(
        seg->locks().Acquire(ctx.owner, LockTag::Transaction(*gxid), LockMode::kShare));
    seg->locks().Release(owner, LockTag::Transaction(*gxid), LockMode::kShare);
    // The dtx recovery daemon owns the locks of a half-acked commit and may
    // briefly leave the gxid in-progress with this segment's lock already
    // free; don't spin hot while it finishes phase two elsewhere.
    if (dtm.IsRunning(*gxid)) PreciseSleepUs(200);
  }
  return Status::OK();
}

// Stamps `t` on a heap, waiting out concurrent writers as PostgreSQL does.
// Returns whether this statement modified the row.
StatusOr<bool> StampHeap(const PlanNode& node, ExecContext& ctx, HeapTable* heap,
                         LocalXid xid, Target& t) {
  LockManager& locks = ctx.segment->locks();
  TupleId cur = t.tid;
  Row& row = t.row;  // the contents of `cur`: a version never changes
  while (true) {
    if (ctx.owner->cancelled()) return ctx.owner->cancel_reason();
    MarkDeleteResult r = heap->TryMarkDeleted(cur, xid);
    if (r.outcome == MarkDeleteOutcome::kWait) {
      // Tuple lock first (short-term; dotted wait edges hang off it), then the
      // holder's transaction lock (solid edge), then retry.
      LockTag tuple_tag = LockTag::Tuple(node.table, cur);
      GPHTAP_RETURN_IF_ERROR(locks.Acquire(ctx.owner, tuple_tag, LockMode::kExclusive));
      r = heap->TryMarkDeleted(cur, xid);
      if (r.outcome == MarkDeleteOutcome::kWait) {
        auto holder_gxid = ctx.segment->txns().GxidOfRunning(r.wait_xid);
        if (holder_gxid.has_value()) {
          LockTag holder = LockTag::Transaction(*holder_gxid);
          Status s = locks.Acquire(ctx.owner, holder, LockMode::kShare);
          if (!s.ok()) {
            locks.Release(*ctx.owner, tuple_tag, LockMode::kExclusive);
            return s;
          }
          locks.Release(*ctx.owner, holder, LockMode::kShare);
        }
        locks.Release(*ctx.owner, tuple_tag, LockMode::kExclusive);
        continue;  // holder finished; retry the stamp
      }
      locks.Release(*ctx.owner, tuple_tag, LockMode::kExclusive);
    }
    if (r.outcome == MarkDeleteOutcome::kSelfUpdated) return false;
    if (r.outcome == MarkDeleteOutcome::kFollow) {
      // A committed writer replaced the row: follow the version chain and
      // re-check the predicate against the new version (EvalPlanQual).
      // "Committed" means the segment-local clog, but the commit point is the
      // distributed one: if the replacer's phase two is still in flight
      // elsewhere and we committed first, a concurrent snapshot could see us
      // finished while our dependency still looks running — the pre-image
      // and our post-image visible at once. Wait out its distributed commit.
      GPHTAP_RETURN_IF_ERROR(WaitForDistributedCommitOf(ctx, r.wait_xid));
      if (r.next == kInvalidTupleId) return false;  // deleted outright
      cur = r.next;
      auto v = heap->Get(cur);
      if (!v.ok()) return false;
      if (node.filter != nullptr) {
        GPHTAP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node.filter, v->row));
        if (!pass) return false;
      }
      row = std::move(v->row);
      continue;
    }
    // kOk: we own the delete of `cur`.
    if (!node.exprs.empty()) {
      GPHTAP_ASSIGN_OR_RETURN(Row new_row, NewRow(node, heap->schema(), row));
      GPHTAP_ASSIGN_OR_RETURN(TupleId new_tid, heap->Insert(xid, new_row));
      heap->LinkNewVersion(cur, new_tid);
    }
    return true;
  }
}

// Stamps `t` on an append-optimized table: a visibility-map delete, plus the
// new row for an UPDATE. The relation's ExclusiveLock excludes other writers;
// an external table refuses.
StatusOr<bool> StampAppendOptimized(const PlanNode& node, Table* table, LocalXid xid,
                                    const Target& t) {
  GPHTAP_RETURN_IF_ERROR(table->MarkDeleted(t.tid, xid));
  if (!node.exprs.empty()) {
    GPHTAP_ASSIGN_OR_RETURN(Row new_row, NewRow(node, table->schema(), t.row));
    GPHTAP_RETURN_IF_ERROR(table->Insert(xid, new_row).status());
  }
  return true;
}

}  // namespace

Status ExecModifyTable(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  Table* table = nullptr;
  GPHTAP_RETURN_IF_ERROR(TableForNode(ctx, node.table, &table));
  Segment* seg = ctx.segment;
  const LockTag relation = LockTag::Relation(node.table);
  GPHTAP_RETURN_IF_ERROR(seg->locks().Acquire(ctx.owner, relation, LockMode::kRowExclusive));
  // AO writers serialize on the relation, so none can race the visibility map.
  if (table->def().append_optimized()) {
    GPHTAP_RETURN_IF_ERROR(seg->locks().Acquire(ctx.owner, relation, LockMode::kExclusive));
  }
  // The session registered this segment as a write participant before
  // dispatch, which assigned the local xid.
  std::optional<LocalXid> xid = seg->txns().LookupXid(ctx.gxid);
  if (!xid.has_value()) return Status::Internal("ModifyTable without a local xid");

  auto* part = dynamic_cast<PartitionedTable*>(table);
  const size_t ncols = table->schema().num_columns();
  std::vector<Target> targets;
  GPHTAP_RETURN_IF_ERROR(ExecuteNode(*node.children[0], ctx, [&](Row&& row) -> Status {
    // Strip the junk columns: the TupleId, then the partition leaf.
    Table* leaf = part != nullptr ? part->leaf(static_cast<size_t>(row[ncols + 1].int_val()))
                                  : table;
    const TupleId tid = static_cast<TupleId>(row[ncols].int_val());
    row.resize(ncols);
    targets.push_back(Target{leaf, tid, std::move(row)});
    return Status::OK();
  }));

  // Every copy of a replicated table takes the write; the first gang member
  // (segment 0, which always holds a complete copy) counts the rows.
  const bool counts = table->def().distribution.kind != DistributionKind::kReplicated ||
                      ctx.receiver_index == 0;
  int64_t affected = 0;
  for (Target& t : targets) {
    auto* heap = dynamic_cast<HeapTable*>(t.table);
    GPHTAP_ASSIGN_OR_RETURN(bool modified, heap != nullptr
                                               ? StampHeap(node, ctx, heap, *xid, t)
                                               : StampAppendOptimized(node, t.table, *xid, t));
    affected += modified ? 1 : 0;
  }
  return sink(Row{Datum(counts ? affected : int64_t{0})});
}

}  // namespace gphtap
