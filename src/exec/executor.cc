#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/clock.h"
#include "common/gang_runner.h"
#include "common/logging.h"
#include "common/trace.h"
#include "common/wait_event.h"
#include "exec/agg_ops.h"
#include "storage/heap_table.h"
#include "storage/partitioned_table.h"
#include "vec/vec_executor.h"
#include "vec/vec_kernels.h"

namespace gphtap {

Status TableForNode(ExecContext& ctx, TableId id, Table** out) {
  Table* t = nullptr;
  if (ctx.segment != nullptr) {
    t = ctx.segment->GetTable(id);
  }
  if (t == nullptr) {
    return Status::NotFound("table id " + std::to_string(id) + " on node");
  }
  *out = t;
  return Status::OK();
}

Status AcquireScanLock(ExecContext& ctx, TableId table) {
  LockManager& locks =
      ctx.segment != nullptr ? ctx.segment->locks() : ctx.cluster->coordinator_locks();
  return locks.Acquire(ctx.owner, LockTag::Relation(table), LockMode::kAccessShare);
}

namespace {

// ---------- helpers ----------

uint64_t HashKeys(const Row& row, const std::vector<int>& keys) {
  return HashRowKey(row, keys);
}

bool KeysHaveNull(const Row& row, const std::vector<int>& keys) {
  for (int k : keys) {
    if (row[static_cast<size_t>(k)].is_null()) return true;
  }
  return false;
}

int64_t RowFootprint(const Row& row) {
  int64_t bytes = 32;
  for (const Datum& d : row) bytes += static_cast<int64_t>(d.FootprintBytes());
  return bytes;
}

// ---------- node execution ----------
// (Aggregation accumulators live in exec/agg_ops.h, shared with src/vec/.)

// A partitioned root scans leaf by leaf, so EXPLAIN ANALYZE credits each
// leaf's visible rows to its own store.
Status ExecScanCommon(const PlanNode& node, ExecContext& ctx, Table* table,
                      const RowSink& sink) {
  Status inner = Status::OK();
  VisibilityContext vis = ctx.Vis();
  int64_t visible_rows = 0;
  int64_t leaf = 0;
  auto cb = [&](TupleId tid, const Row& row) {
    Status t = ctx.Tick();
    if (!t.ok()) {
      inner = t;
      return false;
    }
    ++visible_rows;
    if (node.filter) {
      auto pass = EvalPredicate(*node.filter, row);
      if (!pass.ok()) {
        inner = pass.status();
        return false;
      }
      if (!*pass) return true;
    }
    Row out = row;
    if (node.emit_tid) {
      out.push_back(Datum(static_cast<int64_t>(tid)));
      out.push_back(Datum(leaf));
    }
    Status s = sink(std::move(out));
    if (!s.ok()) {
      inner = s;
      return false;
    }
    return true;
  };
  // A leaf's TupleIds are its own, so a ModifyTable's scan names the leaf
  // beside each.
  auto scan_one = [&](Table* t) {
    visible_rows = 0;
    Status s =
        node.scan_cols.empty() ? t->Scan(vis, cb) : t->ScanColumns(vis, node.scan_cols, cb);
    if (StatementRecord* actuals = ctx.actuals(); actuals != nullptr && visible_rows > 0) {
      actuals->AddStoreRows(node.node_id, ScanStoreLabel(t->def().storage), visible_rows);
    }
    return s;
  };
  Status scan;
  if (auto* part = dynamic_cast<PartitionedTable*>(table); part != nullptr) {
    for (; leaf < static_cast<int64_t>(part->num_leaves()) && scan.ok() && inner.ok();
         ++leaf) {
      scan = scan_one(part->leaf(static_cast<size_t>(leaf)));
    }
  } else {
    scan = scan_one(table);
  }
  if (!inner.ok()) return inner;
  return scan;
}

Status ExecIndexScan(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  Table* table = nullptr;
  GPHTAP_RETURN_IF_ERROR(TableForNode(ctx, node.table, &table));
  auto* heap = dynamic_cast<HeapTable*>(table);
  if (heap == nullptr || !heap->HasIndexOn(node.index_col)) {
    // Fall back to a filtered sequential scan.
    return ExecScanCommon(node, ctx, table, sink);
  }
  // `col = NULL` matches nothing; a NULL key can only come from a parameter.
  GPHTAP_ASSIGN_OR_RETURN(Datum key, EvalExpr(*node.index_key, Row{}));
  if (key.is_null()) return Status::OK();
  VisibilityContext vis = ctx.Vis();
  int64_t visible_rows = 0;
  for (TupleId tid : heap->IndexLookup(node.index_col, key)) {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick());
    std::optional<Row> row = heap->GetVisible(tid, vis);  // nullopt once vacuumed
    if (!row.has_value()) continue;
    ++visible_rows;
    if (node.filter) {
      GPHTAP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node.filter, *row));
      if (!pass) continue;
    }
    if (node.emit_tid) {
      row->push_back(Datum(static_cast<int64_t>(tid)));
      row->push_back(Datum(int64_t{0}));
    }
    GPHTAP_RETURN_IF_ERROR(sink(std::move(*row)));
  }
  if (StatementRecord* actuals = ctx.actuals(); actuals != nullptr && visible_rows > 0) {
    actuals->AddStoreRows(node.node_id, ScanStoreLabel(heap->def().storage), visible_rows);
  }
  return Status::OK();
}

// generate_series() calls zipped as PostgreSQL's ProjectSet zips them: the
// longest series sets the row count and shorter ones pad with NULL. Zero
// series yield one row with no columns, a FROM-less SELECT's input.
Status ExecFunctionScan(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  struct Series {
    int64_t next, end;
    bool done;
  };
  std::vector<Series> series;
  bool more = node.exprs.empty();
  for (size_t i = 0; i + 1 < node.exprs.size(); i += 2) {
    GPHTAP_ASSIGN_OR_RETURN(Datum start, EvalExpr(*node.exprs[i], Row{}));
    GPHTAP_ASSIGN_OR_RETURN(Datum end, EvalExpr(*node.exprs[i + 1], Row{}));
    if (!start.is_int() || !end.is_int()) {
      return Status::InvalidArgument("generate_series expects integers");
    }
    series.push_back({start.int_val(), end.int_val(), start.int_val() > end.int_val()});
    more |= !series.back().done;
  }
  while (more) {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick());
    Row row;
    row.reserve(series.size());
    more = false;
    for (Series& s : series) {
      if (s.done) {
        row.push_back(Datum::Null());
        continue;
      }
      row.push_back(Datum(s.next));
      s.done = s.next == s.end;  // never step past `end`: no overflow at INT64_MAX
      if (!s.done) ++s.next;
      more |= !s.done;
    }
    if (node.filter) {
      GPHTAP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node.filter, row));
      if (!pass) continue;
    }
    GPHTAP_RETURN_IF_ERROR(sink(std::move(row)));
  }
  return Status::OK();
}

Status ExecHashJoin(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  // Build side = children[1] (inner), fully materialized first — this is also
  // the Appendix-B network-deadlock prophylactic.
  std::unordered_multimap<uint64_t, Row> build;
  int64_t reserved = 0;
  Status st = ExecuteNode(*node.children[1], ctx, [&](Row&& row) -> Status {
    if (KeysHaveNull(row, node.right_keys)) return Status::OK();
    int64_t bytes = RowFootprint(row);
    if (ctx.mem != nullptr) {
      GPHTAP_RETURN_IF_ERROR(ctx.mem->Reserve(bytes));
      reserved += bytes;
    }
    build.emplace(HashKeys(row, node.right_keys), std::move(row));
    return Status::OK();
  });
  GPHTAP_RETURN_IF_ERROR(st);

  // Probe side streams.
  return ExecuteNode(*node.children[0], ctx, [&](Row&& probe) -> Status {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick());
    if (KeysHaveNull(probe, node.left_keys)) return Status::OK();
    auto range = build.equal_range(HashKeys(probe, node.left_keys));
    for (auto it = range.first; it != range.second; ++it) {
      // Verify key equality (hash collisions).
      bool match = true;
      for (size_t k = 0; k < node.left_keys.size(); ++k) {
        if (probe[static_cast<size_t>(node.left_keys[k])].Compare(
                it->second[static_cast<size_t>(node.right_keys[k])]) != 0) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Row combined = probe;
      combined.insert(combined.end(), it->second.begin(), it->second.end());
      if (node.filter) {
        GPHTAP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node.filter, combined));
        if (!pass) continue;
      }
      GPHTAP_RETURN_IF_ERROR(sink(std::move(combined)));
    }
    return Status::OK();
  });
}

Status ExecNestLoop(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  std::vector<Row> inner;
  auto join_with_inner = [&](const Row& outer) -> Status {
    for (const Row& irow : inner) {
      GPHTAP_RETURN_IF_ERROR(ctx.Tick());
      Row combined = outer;
      combined.insert(combined.end(), irow.begin(), irow.end());
      if (node.filter) {
        GPHTAP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node.filter, combined));
        if (!pass) continue;
      }
      GPHTAP_RETURN_IF_ERROR(sink(std::move(combined)));
    }
    return Status::OK();
  };

  if (node.prefetch_inner) {
    // Safe order: drain the inner motion entirely before touching the outer.
    GPHTAP_RETURN_IF_ERROR(ExecuteNode(*node.children[1], ctx, [&](Row&& row) -> Status {
      if (ctx.mem != nullptr) GPHTAP_RETURN_IF_ERROR(ctx.mem->Reserve(RowFootprint(row)));
      inner.push_back(std::move(row));
      return Status::OK();
    }));
    return ExecuteNode(*node.children[0], ctx, [&](Row&& outer) -> Status {
      return join_with_inner(outer);
    });
  }

  // Deadlock-prone order (what Appendix B warns about): consume ONE outer
  // tuple, then drain the inner — while other slices' outer senders may be
  // blocked on full buffers.
  bool inner_loaded = false;
  return ExecuteNode(*node.children[0], ctx, [&](Row&& outer) -> Status {
    if (!inner_loaded) {
      inner_loaded = true;
      GPHTAP_RETURN_IF_ERROR(
          ExecuteNode(*node.children[1], ctx, [&](Row&& row) -> Status {
            inner.push_back(std::move(row));
            return Status::OK();
          }));
    }
    return join_with_inner(outer);
  });
}

Status ExecHashAgg(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  struct Group {
    Row key;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;

  Status mem_status = Status::OK();
  auto group_for = [&](const Row& row, const std::vector<int>& cols) -> Group& {
    std::string key = GroupKeyString(row, cols);
    auto it = groups.find(key);
    if (it == groups.end()) {
      Group g;
      for (int c : cols) g.key.push_back(row[static_cast<size_t>(c)]);
      g.states.resize(node.aggs.size());
      // Memory grows with the number of groups, not the number of input rows.
      if (ctx.mem != nullptr && mem_status.ok()) {
        mem_status = ctx.mem->Reserve(RowFootprint(g.key) +
                                      64 * static_cast<int64_t>(node.aggs.size()));
      }
      it = groups.emplace(std::move(key), std::move(g)).first;
    }
    return it->second;
  };

  if (node.agg_phase == AggPhase::kFinal) {
    // Input layout: group cols, then each agg's partial state columns.
    std::vector<int> gcols(node.group_cols.size());
    for (size_t i = 0; i < gcols.size(); ++i) gcols[i] = static_cast<int>(i);
    GPHTAP_RETURN_IF_ERROR(ExecuteNode(*node.children[0], ctx, [&](Row&& row) -> Status {
      GPHTAP_RETURN_IF_ERROR(ctx.Tick());
      Group& g = group_for(row, gcols);
      GPHTAP_RETURN_IF_ERROR(mem_status);
      int col = static_cast<int>(node.group_cols.size());
      for (size_t a = 0; a < node.aggs.size(); ++a) {
        GPHTAP_RETURN_IF_ERROR(AggMergePartial(node.aggs[a], &g.states[a], row, col));
        col += AggStateArity(node.aggs[a].fn);
      }
      return Status::OK();
    }));
  } else {
    GPHTAP_RETURN_IF_ERROR(ExecuteNode(*node.children[0], ctx, [&](Row&& row) -> Status {
      GPHTAP_RETURN_IF_ERROR(ctx.Tick());
      Group& g = group_for(row, node.group_cols);
      GPHTAP_RETURN_IF_ERROR(mem_status);
      for (size_t a = 0; a < node.aggs.size(); ++a) {
        GPHTAP_RETURN_IF_ERROR(AggUpdate(node.aggs[a], &g.states[a], row));
      }
      return Status::OK();
    }));
  }

  // Global aggregates with zero input rows still produce one output group.
  if (groups.empty() && node.group_cols.empty()) {
    Group g;
    g.states.resize(node.aggs.size());
    groups.emplace("", std::move(g));
  }

  for (auto& [key, g] : groups) {
    Row out = g.key;
    for (size_t a = 0; a < node.aggs.size(); ++a) {
      if (node.agg_phase == AggPhase::kPartial) {
        AggEmitPartial(node.aggs[a], g.states[a], &out);
      } else {
        AggEmitFinal(node.aggs[a], g.states[a], &out);
      }
    }
    Status s = sink(std::move(out));
    if (s.code() == StatusCode::kStopIteration) return s;
    GPHTAP_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status ExecSort(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  std::vector<Row> rows;
  GPHTAP_RETURN_IF_ERROR(ExecuteNode(*node.children[0], ctx, [&](Row&& row) -> Status {
    if (ctx.mem != nullptr) GPHTAP_RETURN_IF_ERROR(ctx.mem->Reserve(RowFootprint(row)));
    rows.push_back(std::move(row));
    return Status::OK();
  }));
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const SortKey& k : node.sort_keys) {
      int c = a[static_cast<size_t>(k.column)].Compare(b[static_cast<size_t>(k.column)]);
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  for (Row& r : rows) {
    Status s = sink(std::move(r));
    if (s.code() == StatusCode::kStopIteration) return s;
    GPHTAP_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status ExecMotionRecv(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  auto it = ctx.exchanges->find(node.motion_id);
  if (it == ctx.exchanges->end()) {
    return Status::Internal("no exchange for motion " + std::to_string(node.motion_id));
  }
  MotionExchange& ex = *it->second;
  while (auto row = ex.Recv(ctx.receiver_index)) {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick());
    Status s = sink(std::move(*row));
    if (s.code() == StatusCode::kStopIteration) {
      // LIMIT satisfied: stop consuming; the exchange gets aborted by the
      // query driver once the top slice finishes.
      return s;
    }
    GPHTAP_RETURN_IF_ERROR(s);
  }
  if (ex.aborted() && !(ctx.owner && ctx.owner->cancelled())) {
    return Status::Aborted("motion exchange aborted");
  }
  if (ctx.owner && ctx.owner->cancelled()) return ctx.owner->cancel_reason();
  return Status::OK();
}

// The raw dispatch; the public ExecuteNode wraps it with optional per-operator
// instrumentation (EXPLAIN ANALYZE).
Status ExecuteNodeImpl(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  switch (node.kind) {
    case PlanKind::kSeqScan: {
      Table* table = nullptr;
      GPHTAP_RETURN_IF_ERROR(TableForNode(ctx, node.table, &table));
      // Under a ModifyTable the scan reads under the writer's own lock.
      if (!node.emit_tid) GPHTAP_RETURN_IF_ERROR(AcquireScanLock(ctx, node.table));
      return ExecScanCommon(node, ctx, table, sink);
    }
    case PlanKind::kIndexScan: {
      if (!node.emit_tid) GPHTAP_RETURN_IF_ERROR(AcquireScanLock(ctx, node.table));
      return ExecIndexScan(node, ctx, sink);
    }
    case PlanKind::kVirtualScan: {
      // System views materialize on the coordinator from live cluster state;
      // the planner never puts them in a segment slice.
      if (ctx.segment != nullptr) {
        return Status::Internal("virtual scan dispatched to a segment");
      }
      GPHTAP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              ctx.cluster->SystemViewRows(node.table));
      for (Row& row : rows) {
        GPHTAP_RETURN_IF_ERROR(ctx.Tick());
        if (node.filter) {
          GPHTAP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node.filter, row));
          if (!pass) continue;
        }
        Status s = sink(std::move(row));
        if (s.code() == StatusCode::kStopIteration) return s;
        GPHTAP_RETURN_IF_ERROR(s);
      }
      return Status::OK();
    }
    case PlanKind::kFunctionScan:
      return ExecFunctionScan(node, ctx, sink);
    case PlanKind::kFilter:
      return ExecuteNode(*node.children[0], ctx, [&](Row&& row) -> Status {
        GPHTAP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node.filter, row));
        if (!pass) return Status::OK();
        return sink(std::move(row));
      });
    case PlanKind::kProject:
      return ExecuteNode(*node.children[0], ctx, [&](Row&& row) -> Status {
        Row out;
        out.reserve(node.exprs.size());
        for (const ExprPtr& e : node.exprs) {
          GPHTAP_ASSIGN_OR_RETURN(Datum d, EvalExpr(*e, row));
          out.push_back(std::move(d));
        }
        return sink(std::move(out));
      });
    case PlanKind::kHashJoin:
      return ExecHashJoin(node, ctx, sink);
    case PlanKind::kNestLoop:
      return ExecNestLoop(node, ctx, sink);
    case PlanKind::kHashAgg:
      return ExecHashAgg(node, ctx, sink);
    case PlanKind::kSort:
      return ExecSort(node, ctx, sink);
    case PlanKind::kLimit: {
      int64_t remaining = node.limit;
      if (remaining == 0) return Status::OK();
      Status s = ExecuteNode(*node.children[0], ctx, [&](Row&& row) -> Status {
        GPHTAP_RETURN_IF_ERROR(sink(std::move(row)));
        if (--remaining <= 0) return Status::StopIteration();
        return Status::OK();
      });
      if (s.code() == StatusCode::kStopIteration) return Status::OK();
      return s;
    }
    case PlanKind::kMotion:
      return ExecMotionRecv(node, ctx, sink);
    case PlanKind::kModifyTable:
      return ExecModifyTable(node, ctx, sink);
  }
  return Status::Internal("bad plan node");
}

}  // namespace

Status ExecuteNode(const PlanNode& node, ExecContext& ctx, const RowSink& sink) {
  // Vectorize-marked subtrees run on the batch engine; when the consumer is a
  // row operator (this call), batches are exploded back into rows at the
  // boundary. ExecuteNodeVec does its own per-operator instrumentation.
  if (node.vectorize && VecEngineSupports(node.kind)) {
    if (&node != ctx.slice_root) {
      if (ctx.cluster != nullptr) {
        ctx.cluster->metrics().counter("vec.fallbacks")->Add(1);
      }
      if (ctx.record != nullptr) {
        ctx.record->vec_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return ExecuteNodeVec(node, ctx, [&](ColumnBatch&& batch) -> Status {
      for (int32_t r : batch.sel) {
        Status s = sink(batch.MaterializeRow(r));
        if (!s.ok()) return s;
      }
      return Status::OK();
    });
  }
  StatementRecord* actuals = ctx.actuals();
  if (actuals == nullptr || node.node_id < 0) return ExecuteNodeImpl(node, ctx, sink);
  // Inclusive timing (children execute inside the parent's push pipeline),
  // same convention as PostgreSQL's EXPLAIN ANALYZE.
  int64_t rows = 0;
  Stopwatch sw;
  Status s = ExecuteNodeImpl(node, ctx, [&](Row&& row) -> Status {
    // A ModifyTable's one row is its affected count, which is what it reports.
    rows += node.kind == PlanKind::kModifyTable ? row[0].int_val() : 1;
    return sink(std::move(row));
  });
  actuals->AddOperator(node.node_id, rows, sw.ElapsedMicros());
  return s;
}

namespace {

// Collects motion nodes in the order producers must start (bottom-up).
void CollectMotions(const PlanNode& node, std::vector<const PlanNode*>* out) {
  for (const auto& c : node.children) CollectMotions(*c, out);
  if (node.kind == PlanKind::kMotion) out->push_back(&node);
}

}  // namespace

Status ExecutePlan(Cluster* cluster, const QueryPlan& plan, Gxid gxid,
                   const std::shared_ptr<LockOwner>& owner,
                   const DistributedSnapshot& snapshot, ResourceGroup* group,
                   QueryMemoryAccount* mem, const RowSink& sink) {
  // The statement's record and span parent ride the caller's wait context.
  const WaitContext* caller_wait = CurrentWaitContext();
  StatementRecord* record = caller_wait != nullptr ? caller_wait->record : nullptr;
  Trace* trace = record != nullptr ? record->trace : nullptr;
  const uint64_t parent_span = caller_wait != nullptr ? caller_wait->parent_span : 0;

  std::vector<const PlanNode*> motions;
  CollectMotions(*plan.root, &motions);

  ExchangeMap exchanges;
  for (const PlanNode* m : motions) {
    int senders = static_cast<int>(plan.gang.size());
    int receivers = m->motion == MotionKind::kGather ? 1 : static_cast<int>(plan.gang.size());
    exchanges[m->motion_id] = std::make_shared<MotionExchange>(
        senders, receivers, MotionExchange::kBufferRows, &cluster->net());
  }
  // Make the exchanges reachable from Cluster::CancelTxn (GDD kill, statement
  // timeout, user cancel) so receivers parked on an idle sender wake promptly.
  if (!exchanges.empty()) {
    std::vector<std::weak_ptr<MotionExchange>> weak_exchanges;
    weak_exchanges.reserve(exchanges.size());
    for (auto& [id, ex] : exchanges) weak_exchanges.push_back(ex);
    cluster->RegisterExchanges(gxid, std::move(weak_exchanges));
  }
  // The statement deadline travels in ExecContext (checked in Tick) and in the
  // ambient wait context (checked inside motion/fsync waits via the owner).
  const int64_t deadline_us = owner != nullptr ? owner->deadline_us() : 0;

  std::mutex err_mu;
  Status first_error;
  std::atomic<bool> query_done{false};  // set once the top slice succeeded
  auto record_error = [&](const Status& s) {
    if (s.ok() || s.code() == StatusCode::kStopIteration) return;
    // After a successful top slice we deliberately abort the exchanges to
    // unblock producers (LIMIT early-out); their resulting abort statuses are
    // expected, not query failures.
    if (query_done.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> g(err_mu);
    if (first_error.ok()) {
      first_error = s;
      for (auto& [id, ex] : exchanges) ex->Abort();
    }
  };

  // One slice's context; `segment` is null for the coordinator's top slice.
  auto slice_context = [&](Segment* segment, int receiver_index, const PlanNode* root) {
    ExecContext ctx;
    ctx.cluster = cluster;
    ctx.segment = segment;
    ctx.receiver_index = receiver_index;
    ctx.gxid = gxid;
    ctx.owner = owner;
    ctx.snapshot = &snapshot;
    ctx.lsnap = (segment != nullptr ? segment->txns() : cluster->coordinator_txns())
                    .TakeLocalSnapshot();
    ctx.exchanges = &exchanges;
    ctx.group = group;
    ctx.mem = mem;
    ctx.cpu_ns_per_row = cluster->options().exec_cpu_ns_per_row;
    ctx.deadline_us = deadline_us;
    ctx.record = record;
    ctx.slice_root = root;
    return ctx;
  };
  // One gang member's slice task around `body`, which runs the slice and
  // counts its rows: its own span, its waits interruptible through the owner,
  // a service pin for the whole slice (through the per-segment circuit
  // breaker, so a down segment fails the query retryably instead of serving
  // torn state), and its CPU charged before the task returns.
  auto run_slice = [&](int seg_index, size_t gi, const PlanNode& root,
                       const std::string& name, auto&& body) -> Status {
    const uint64_t span =
        trace != nullptr ? trace->StartSpan(name, parent_span, seg_index) : 0;
    WaitContext* slice_wait = CurrentWaitContext();
    slice_wait->parent_span = span;
    slice_wait->owner = owner.get();
    int64_t rows = 0;
    Status s;
    if (auto pin = cluster->PinSegment(seg_index); !pin.ok()) {
      s = pin.status();
    } else {
      ExecContext ctx =
          slice_context(cluster->segment(seg_index), static_cast<int>(gi), &root);
      StatementRecord::SliceScope charge(record);
      s = body(ctx, &rows);
      ctx.FlushCpu();
    }
    if (trace != nullptr) trace->EndSpan(span, rows);
    return s;
  };
  if (plan.root->kind == PlanKind::kModifyTable) {
    // No motion: every gang member runs the whole plan on its own rows, as one
    // gang task (member 0 on the caller's thread), and the caller's sink gets
    // each member's affected count. A member may block on another
    // transaction mid-statement while its siblings keep running.
    std::vector<Status> results(plan.gang.size());
    std::vector<Row> counts(plan.gang.size(), Row{Datum(int64_t{0})});
    cluster->gangs().FanOut(plan.gang, [&](size_t gi) {
      results[gi] = run_slice(plan.gang[gi], gi, *plan.root, "slice:modify",
                              [&](ExecContext& ctx, int64_t* rows) {
                                return ExecuteNode(*plan.root, ctx, [&](Row&& row) {
                                  *rows = row[0].int_val();
                                  counts[gi] = std::move(row);
                                  return Status::OK();
                                });
                              });
    });
    for (const Status& s : results) GPHTAP_RETURN_IF_ERROR(s);
    for (Row& count : counts) GPHTAP_RETURN_IF_ERROR(sink(std::move(count)));
    return Status::OK();
  }
  // Producers: one gang task per (motion, gang member). The runner gives each
  // the caller's ambient wait context (registry / session / record) relabelled
  // with its segment, so blocking inside a slice — motion back-pressure,
  // segment locks, buffer misses — is attributed to the owning statement.
  GangRunner::Gang producers(&cluster->gangs());
  for (const PlanNode* m : motions) {
    for (size_t gi = 0; gi < plan.gang.size(); ++gi) {
      int seg_index = plan.gang[gi];
      producers.Spawn(seg_index, [&, m, gi, seg_index] {
        const PlanNode& slice_root = *m->children[0];
        MotionExchange& ex = *exchanges[m->motion_id];
        const std::vector<int>& hash_cols = m->hash_cols;
        MotionKind kind = m->motion;
        int receivers = ex.num_receivers();
        Status s = run_slice(
            seg_index, gi, slice_root, "slice:motion" + std::to_string(m->motion_id),
            [&](ExecContext& ctx, int64_t* rows_out) -> Status {
              if (slice_root.vectorize && VecEngineSupports(slice_root.kind)) {
                // Vectorized slice: ship whole ColumnBatch chunks instead of rows.
                return ExecuteNodeVec(slice_root, ctx, [&](ColumnBatch&& batch) -> Status {
                  if (batch.ActiveRows() == 0) return Status::OK();
                  *rows_out += static_cast<int64_t>(batch.ActiveRows());
                  bool sent = true;
                  switch (kind) {
                    case MotionKind::kGather:
                      sent = ex.SendBatch(0, std::make_shared<ColumnBatch>(std::move(batch)));
                      break;
                    case MotionKind::kBroadcast:
                      sent = ex.SendBatchToAll(std::make_shared<ColumnBatch>(std::move(batch)));
                      break;
                    case MotionKind::kRedistribute: {
                      std::vector<ColumnBatch> parts;
                      GPHTAP_RETURN_IF_ERROR(
                          VecPartitionBatch(batch, hash_cols, receivers, &parts));
                      for (int t = 0; t < receivers && sent; ++t) {
                        if (parts[static_cast<size_t>(t)].ActiveRows() == 0) continue;
                        sent = ex.SendBatch(t, std::make_shared<ColumnBatch>(
                                                   std::move(parts[static_cast<size_t>(t)])));
                      }
                      break;
                    }
                  }
                  if (!sent) return Status::StopIteration();
                  return Status::OK();
                });
              }
              return ExecuteNode(slice_root, ctx, [&](Row&& row) -> Status {
                ++*rows_out;
                bool sent = true;
                switch (kind) {
                  case MotionKind::kGather:
                    sent = ex.Send(0, std::move(row));
                    break;
                  case MotionKind::kBroadcast:
                    sent = ex.SendToAll(row);
                    break;
                  case MotionKind::kRedistribute: {
                    int target = static_cast<int>(HashRowKey(row, hash_cols) %
                                                  static_cast<uint64_t>(receivers));
                    sent = ex.Send(target, std::move(row));
                    break;
                  }
                }
                // A closed exchange is either deliberate early termination
                // (LIMIT) or a failure someone else already recorded; stop
                // quietly.
                if (!sent) return Status::StopIteration();
                return Status::OK();
              });
            });
        record_error(s);
        ex.CloseSender();
      });
    }
  }

  // Top slice on the caller's thread (coordinator). Re-install the caller's
  // wait context with the owner attached so motion waits on this thread are
  // interruptible even when the caller never set one up (tests, benches).
  WaitContext top_wait;
  if (caller_wait != nullptr) top_wait = *caller_wait;
  top_wait.owner = owner.get();
  WaitContextGuard top_wait_guard(top_wait);
  ExecContext top = slice_context(nullptr, 0, plan.root.get());

  uint64_t top_span = 0;
  int64_t top_rows = 0;
  RowSink top_sink = sink;
  if (trace != nullptr) {
    top_span = trace->StartSpan("slice:top", parent_span, Trace::kCoordinatorNode);
    top_sink = [&](Row&& row) -> Status {
      ++top_rows;
      return sink(std::move(row));
    };
  }
  Status top_status;
  {
    StatementRecord::SliceScope charge(record);
    top_status = ExecuteNode(*plan.root, top, top_sink);
  }
  if (top_status.code() == StatusCode::kStopIteration) top_status = Status::OK();
  top.FlushCpu();
  if (trace != nullptr) trace->EndSpan(top_span, top_rows);
  // A cancellation (GDD kill, statement timeout) aborts the exchanges, which a
  // receiver observes as a clean end-of-stream — so an ok top status does not
  // prove completeness. Surface the cancel instead of truncated results.
  if (top_status.ok() && owner != nullptr && owner->cancelled()) {
    top_status = owner->cancel_reason();
  }
  if (top_status.ok()) {
    query_done.store(true, std::memory_order_release);
  } else {
    record_error(top_status);
  }
  // Unblock any still-running producers (error path, or LIMIT stopped the
  // consumer before draining) and join them.
  for (auto& [id, ex] : exchanges) ex->Abort();
  producers.Join();
  cluster->UnregisterExchanges(gxid);

  // Interconnect blocked time, attributed per motion so EXPLAIN ANALYZE can
  // report "how long did this exchange stall" apart from operator time.
  if (StatementRecord* actuals = top.actuals()) {
    for (const PlanNode* m : motions) {
      MotionExchange& ex = *exchanges[m->motion_id];
      actuals->AddMotionWait(m->node_id, ex.send_wait_us(), ex.recv_wait_us());
    }
  }
  // Gang network attribution: total payload bytes shipped by this statement's
  // exchanges (same tally SimNet was charged with).
  if (record != nullptr) {
    for (auto& [id, ex] : exchanges) {
      record->net_bytes.fetch_add(ex->bytes_sent(), std::memory_order_relaxed);
    }
  }

  // The first recorded error is the root cause; later errors (e.g. the top
  // slice seeing "motion exchange aborted") are its echoes.
  if (!first_error.ok()) return first_error;
  return top_status;
}

}  // namespace gphtap
