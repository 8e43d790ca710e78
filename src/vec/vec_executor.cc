#include "vec/vec_executor.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/wait_event.h"
#include "delta/delta_index.h"
#include "exec/agg_ops.h"
#include "exec/executor.h"
#include "storage/column_store.h"
#include "storage/heap_table.h"
#include "vec/vec_kernels.h"

namespace gphtap {

bool VecEngineSupports(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kHashAgg:
    case PlanKind::kHashJoin:
    case PlanKind::kMotion:
      return true;
    default:
      return false;
  }
}

namespace {

Status ExecuteNodeVecImpl(const PlanNode& node, ExecContext& ctx, const BatchSink& sink);

int64_t VecRowFootprint(const Row& row) {
  int64_t bytes = 32;
  for (const Datum& d : row) bytes += static_cast<int64_t>(d.FootprintBytes());
  return bytes;
}

// Footprint of physical row `r` of a batch, mirroring the row engine's
// RowFootprint without materializing the Row.
int64_t BatchRowFootprint(const ColumnBatch& b, int32_t r) {
  int64_t bytes = 32;
  for (const ColumnVector& col : b.columns) {
    bytes += static_cast<int64_t>(col.FootprintAt(static_cast<size_t>(r)));
  }
  return bytes;
}

// The vec-over-row fallback, counted in vec.fallbacks: packs rows into full
// batches for `sink`.
class RowPacker {
 public:
  RowPacker(ExecContext& ctx, const BatchSink& sink) : sink_(sink) {
    if (ctx.cluster != nullptr) ctx.cluster->metrics().counter("vec.fallbacks")->Add(1);
    if (ctx.record != nullptr) {
      ctx.record->vec_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Status Add(Row row) {
    if (!shaped_) {
      batch_.Reset(row.size());
      shaped_ = true;
    }
    batch_.AppendRow(std::move(row));
    if (batch_.rows < ColumnBatch::kDefaultCapacity) return Status::OK();
    ColumnBatch full = std::exchange(batch_, ColumnBatch());
    batch_.Reset(full.NumColumns());
    return sink_(std::move(full));
  }

  Status Flush() { return batch_.rows > 0 ? sink_(std::move(batch_)) : Status::OK(); }

 private:
  const BatchSink& sink_;
  ColumnBatch batch_;
  bool shaped_ = false;
};

// Runs a child subtree as a batch producer: the vec path when the child is
// marked, otherwise the row engine with rows packed into batches.
Status ExecuteChildVec(const PlanNode& child, ExecContext& ctx, const BatchSink& sink) {
  if (child.vectorize && VecEngineSupports(child.kind)) {
    return ExecuteNodeVec(child, ctx, sink);
  }
  RowPacker packer(ctx, sink);
  GPHTAP_RETURN_IF_ERROR(
      ExecuteNode(child, ctx, [&](Row&& row) { return packer.Add(std::move(row)); }));
  return packer.Flush();
}

// Row-scan fallback for a marked scan whose table turns out not to be an AO
// column store (packs filtered rows into batches). Inlined here rather than
// bouncing through ExecuteNode, which would re-enter the vec dispatch.
Status ExecSeqScanVecFallback(const PlanNode& node, ExecContext& ctx, Table* table,
                              const BatchSink& sink) {
  RowPacker packer(ctx, sink);
  VisibilityContext vis = ctx.Vis();
  int64_t visible_rows = 0;
  Status inner = Status::OK();
  auto cb = [&](TupleId, const Row& row) -> bool {
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
    inner = packer.Add(row);
    return inner.ok();
  };
  Status scan = node.scan_cols.empty() ? table->Scan(vis, cb)
                                       : table->ScanColumns(vis, node.scan_cols, cb);
  if (StatementRecord* actuals = ctx.actuals(); actuals != nullptr && visible_rows > 0) {
    actuals->AddStoreRows(node.node_id, ScanStoreLabel(table->def().storage), visible_rows);
  }
  if (!inner.ok()) return inner;
  GPHTAP_RETURN_IF_ERROR(scan);
  return packer.Flush();
}

// One batch of a vectorized scan: a Tick per batch (amortizing cancellation
// checks and simulated-CPU charging over the group), the scan's filter, then
// the sink. Returns false, with the reason in `*inner`, to stop the scan.
bool FilterIntoSink(const PlanNode& node, ExecContext& ctx, const BatchSink& sink,
                    ColumnBatch&& batch, Status* inner) {
  Status s = ctx.Tick(static_cast<int>(batch.rows));
  if (s.ok() && node.filter) s = VecFilterBatch(*node.filter, &batch);
  if (s.ok() && batch.ActiveRows() > 0) s = sink(std::move(batch));
  *inner = s;
  return s.ok();
}

// Vectorized delta-merged scan of a heap table: wait for the delta feed to
// reach the log position captured at scan start, then scan the table's
// columnar delta store (sealed groups + open tail) under the statement's own
// visibility context. The wait makes the scan snapshot-exact: every record of
// every transaction the snapshot can see was appended before `target`.
// Sets `served=false` (without consuming the sink) when the delta path cannot
// run — no delta index here, or the feed missed the freshness deadline — so
// the caller falls back to the row engine.
Status ExecSeqScanDeltaMerged(const PlanNode& node, ExecContext& ctx,
                              const std::vector<int>& cols, const BatchSink& sink,
                              bool* served) {
  *served = false;
  if (ctx.cluster == nullptr || ctx.segment == nullptr) return Status::OK();
  DeltaIndex* di = ctx.cluster->delta_index(ctx.segment->index());
  ChangeLog* log = ctx.segment->change_log();
  if (di == nullptr || log == nullptr) return Status::OK();
  MetricsRegistry& m = ctx.cluster->metrics();

  const uint64_t target = log->size();
  const int64_t t0 = MonotonicMicros();
  Status fresh;
  {
    WaitEventScope scope(WaitEvent::kDeltaFreshness, ctx.segment->index());
    fresh = di->WaitForApplied(target,
                               ctx.cluster->options().delta_freshness_timeout_us);
  }
  m.counter("delta.freshness_wait_us")->Add(
      static_cast<uint64_t>(MonotonicMicros() - t0));
  if (!fresh.ok()) {
    m.counter("delta.freshness_timeouts")->Add(1);
    return Status::OK();  // the row engine serves this scan instead
  }

  *served = true;
  m.counter("delta.merged_scans")->Add(1);
  DeltaStore* ds = di->store(node.table);
  // No store after a successful freshness wait means no record ever touched
  // the table on this segment: it is empty here.
  if (ds == nullptr) return Status::OK();

  VisibilityContext vis = ctx.Vis();
  uint64_t sealed_rows = 0;
  uint64_t open_rows = 0;
  Status inner = Status::OK();
  Status scan = ds->ScanBatches(
      vis, cols,
      [&](ColumnBatch&& batch) {
        return FilterIntoSink(node, ctx, sink, std::move(batch), &inner);
      },
      &sealed_rows, &open_rows);
  if (StatementRecord* actuals = ctx.actuals()) {
    actuals->AddStoreRows(node.node_id, "delta-merged",
                          static_cast<int64_t>(sealed_rows + open_rows));
    if (sealed_rows > 0) {
      actuals->AddStoreRows(node.node_id, "delta-sealed", static_cast<int64_t>(sealed_rows));
    }
    if (open_rows > 0) {
      actuals->AddStoreRows(node.node_id, "delta-open", static_cast<int64_t>(open_rows));
    }
  }
  if (!inner.ok()) return inner;
  return scan;
}

Status ExecSeqScanVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  Table* table = nullptr;
  GPHTAP_RETURN_IF_ERROR(TableForNode(ctx, node.table, &table));
  GPHTAP_RETURN_IF_ERROR(AcquireScanLock(ctx, node.table));
  std::vector<int> cols = node.scan_cols;
  if (cols.empty()) {
    cols.resize(table->schema().num_columns());
    for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
  }
  auto* aoc = dynamic_cast<AoColumnTable*>(table);
  if (aoc == nullptr) {
    if (dynamic_cast<HeapTable*>(table) != nullptr) {
      bool served = false;
      Status s = ExecSeqScanDeltaMerged(node, ctx, cols, sink, &served);
      if (served) return s;
      if (ctx.cluster != nullptr) {
        ctx.cluster->metrics().counter("delta.fallback_scans")->Add(1);
      }
    }
    return ExecSeqScanVecFallback(node, ctx, table, sink);
  }

  Status inner = Status::OK();
  int64_t visible_rows = 0;
  Status scan = aoc->ScanBatches(ctx.Vis(), cols, [&](ColumnBatch&& batch) {
    visible_rows += static_cast<int64_t>(batch.ActiveRows());
    return FilterIntoSink(node, ctx, sink, std::move(batch), &inner);
  });
  if (StatementRecord* actuals = ctx.actuals(); actuals != nullptr && visible_rows > 0) {
    actuals->AddStoreRows(node.node_id, "ao-column", visible_rows);
  }
  if (!inner.ok()) return inner;
  return scan;
}

// ---------- vectorized hash join ----------
//
// Mirrors the row engine's ExecHashJoin exactly (null keys never match, hash
// collisions verified by Datum::Compare, combined layout = probe columns then
// build columns, node.filter applied to the combined row, same memory
// accounting) — but the build store is one dense ColumnBatch addressed by row
// index, and probe/emit work batch-at-a-time by column copy.
Status ExecHashJoinVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  // Build side = children[1] (inner), fully materialized first — this is also
  // the Appendix-B network-deadlock prophylactic.
  ColumnBatch build;
  std::unordered_multimap<uint64_t, int32_t> ht;
  Status st = ExecuteChildVec(*node.children[1], ctx, [&](ColumnBatch&& b) -> Status {
    if (build.columns.empty()) build.Reset(b.NumColumns());
    for (int32_t r : b.sel) {
      bool null_key = false;
      for (int k : node.right_keys) {
        if (b.columns[static_cast<size_t>(k)].IsNull(static_cast<size_t>(r))) {
          null_key = true;
          break;
        }
      }
      if (null_key) continue;
      if (ctx.mem != nullptr) {
        GPHTAP_RETURN_IF_ERROR(ctx.mem->Reserve(BatchRowFootprint(b, r)));
      }
      ht.emplace(VecHashRowKey(b, node.right_keys, r),
                 static_cast<int32_t>(build.rows));
      build.AppendSelectedFrom(b, r);
    }
    return Status::OK();
  });
  GPHTAP_RETURN_IF_ERROR(st);

  // Probe side streams; matches accumulate into output batches.
  ColumnBatch out;
  bool shaped = false;
  auto flush = [&]() -> Status {
    if (node.filter) {
      GPHTAP_RETURN_IF_ERROR(VecFilterBatch(*node.filter, &out));
    }
    size_t ncols = out.NumColumns();
    ColumnBatch full = std::move(out);
    out = ColumnBatch();
    out.Reset(ncols);
    if (full.ActiveRows() == 0) return Status::OK();
    return sink(std::move(full));
  };
  Status ps = ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& p) -> Status {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(p.ActiveRows())));
    if (!shaped) {
      out.Reset(p.NumColumns() + build.NumColumns());
      shaped = true;
    }
    for (int32_t r : p.sel) {
      bool null_key = false;
      for (int k : node.left_keys) {
        if (p.columns[static_cast<size_t>(k)].IsNull(static_cast<size_t>(r))) {
          null_key = true;
          break;
        }
      }
      if (null_key) continue;
      auto range = ht.equal_range(VecHashRowKey(p, node.left_keys, r));
      for (auto it = range.first; it != range.second; ++it) {
        const size_t m = static_cast<size_t>(it->second);
        // Verify key equality (hash collisions).
        bool match = true;
        for (size_t k = 0; k < node.left_keys.size(); ++k) {
          if (p.columns[static_cast<size_t>(node.left_keys[k])]
                  .GetDatum(static_cast<size_t>(r))
                  .Compare(build.columns[static_cast<size_t>(node.right_keys[k])]
                               .GetDatum(m)) != 0) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        for (size_t c = 0; c < p.NumColumns(); ++c) {
          out.columns[c].AppendFrom(p.columns[c], static_cast<size_t>(r));
        }
        for (size_t c = 0; c < build.NumColumns(); ++c) {
          out.columns[p.NumColumns() + c].AppendFrom(build.columns[c], m);
        }
        out.sel.push_back(static_cast<int32_t>(out.rows));
        ++out.rows;
        if (out.rows >= ColumnBatch::kDefaultCapacity) {
          GPHTAP_RETURN_IF_ERROR(flush());
        }
      }
    }
    return Status::OK();
  });
  GPHTAP_RETURN_IF_ERROR(ps);
  if (out.rows > 0) return flush();
  return Status::OK();
}

Status ExecHashAggVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  struct Group {
    Row key;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;
  Status mem_status = Status::OK();

  auto new_group = [&](Row key) -> Group {
    Group g;
    g.key = std::move(key);
    g.states.resize(node.aggs.size());
    // Memory grows with the number of groups, not the number of input rows
    // (same accounting as the row engine's hash agg).
    if (ctx.mem != nullptr && mem_status.ok()) {
      mem_status = ctx.mem->Reserve(VecRowFootprint(g.key) +
                                    64 * static_cast<int64_t>(node.aggs.size()));
    }
    return g;
  };

  Status s;
  if (node.agg_phase == AggPhase::kFinal) {
    // Final phase: merge partial states. Input layout: group cols first, then
    // each agg's partial state columns (AggStateArity wide). Input volume is
    // one row per (group, sender), so per-row materialization is cheap.
    std::vector<int> gcols(node.group_cols.size());
    for (size_t i = 0; i < gcols.size(); ++i) gcols[i] = static_cast<int>(i);
    s = ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
      GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(b.ActiveRows())));
      for (int32_t r : b.sel) {
        Row row = b.MaterializeRow(r);
        std::string key = GroupKeyString(row, gcols);
        auto it = groups.find(key);
        if (it == groups.end()) {
          Row gkey;
          gkey.reserve(gcols.size());
          for (int c : gcols) gkey.push_back(row[static_cast<size_t>(c)]);
          it = groups.emplace(std::move(key), new_group(std::move(gkey))).first;
          GPHTAP_RETURN_IF_ERROR(mem_status);
        }
        int col = static_cast<int>(node.group_cols.size());
        for (size_t a = 0; a < node.aggs.size(); ++a) {
          GPHTAP_RETURN_IF_ERROR(
              AggMergePartial(node.aggs[a], &it->second.states[a], row, col));
          col += AggStateArity(node.aggs[a].fn);
        }
      }
      return Status::OK();
    });
  } else {
    s = ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
      GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(b.ActiveRows())));
      // Evaluate each aggregate's argument once over the whole batch.
      std::vector<ColumnVector> argvals(node.aggs.size());
      for (size_t a = 0; a < node.aggs.size(); ++a) {
        if (node.aggs[a].arg != nullptr) {
          GPHTAP_RETURN_IF_ERROR(VecEval(*node.aggs[a].arg, b, b.sel, &argvals[a]));
        }
      }

      if (node.group_cols.empty()) {
        // Global aggregation: one group, column-at-a-time accumulation.
        auto it = groups.find("");
        if (it == groups.end()) {
          it = groups.emplace("", new_group({})).first;
          GPHTAP_RETURN_IF_ERROR(mem_status);
        }
        for (size_t a = 0; a < node.aggs.size(); ++a) {
          GPHTAP_RETURN_IF_ERROR(
              VecAggUpdate(node.aggs[a].fn, argvals[a], b.sel, &it->second.states[a]));
        }
        return Status::OK();
      }

      std::string key;
      for (int32_t r : b.sel) {
        key.clear();
        for (int c : node.group_cols) {
          AppendGroupKeyPart(
              b.columns[static_cast<size_t>(c)].GetDatum(static_cast<size_t>(r)),
              &key);
        }
        auto it = groups.find(key);
        if (it == groups.end()) {
          Row gkey;
          gkey.reserve(node.group_cols.size());
          for (int c : node.group_cols) {
            gkey.push_back(
                b.columns[static_cast<size_t>(c)].GetDatum(static_cast<size_t>(r)));
          }
          it = groups.emplace(key, new_group(std::move(gkey))).first;
          GPHTAP_RETURN_IF_ERROR(mem_status);
        }
        for (size_t a = 0; a < node.aggs.size(); ++a) {
          AggState& st = it->second.states[a];
          if (node.aggs[a].fn == AggFunc::kCountStar) {
            ++st.count;
          } else {
            GPHTAP_RETURN_IF_ERROR(AggUpdateValue(
                node.aggs[a].fn, &st, argvals[a].GetDatum(static_cast<size_t>(r))));
          }
        }
      }
      return Status::OK();
    });
  }
  GPHTAP_RETURN_IF_ERROR(s);

  // Global aggregates with zero input rows still produce one output group.
  if (groups.empty() && node.group_cols.empty()) {
    Group g;
    g.states.resize(node.aggs.size());
    groups.emplace("", std::move(g));
  }

  ColumnBatch out;
  bool shaped = false;
  for (auto& [key, g] : groups) {
    Row row = g.key;
    for (size_t a = 0; a < node.aggs.size(); ++a) {
      if (node.agg_phase == AggPhase::kPartial) {
        AggEmitPartial(node.aggs[a], g.states[a], &row);
      } else {
        AggEmitFinal(node.aggs[a], g.states[a], &row);
      }
    }
    if (!shaped) {
      out.Reset(row.size());
      shaped = true;
    }
    out.AppendRow(std::move(row));
    if (out.rows >= ColumnBatch::kDefaultCapacity) {
      size_t ncols = out.NumColumns();
      ColumnBatch full = std::move(out);
      out = ColumnBatch();
      out.Reset(ncols);
      Status es = sink(std::move(full));
      if (es.code() == StatusCode::kStopIteration) return es;
      GPHTAP_RETURN_IF_ERROR(es);
    }
  }
  if (out.rows > 0) {
    Status es = sink(std::move(out));
    if (es.code() == StatusCode::kStopIteration) return es;
    GPHTAP_RETURN_IF_ERROR(es);
  }
  return Status::OK();
}

Status ExecMotionRecvVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  auto it = ctx.exchanges->find(node.motion_id);
  if (it == ctx.exchanges->end()) {
    return Status::Internal("no exchange for motion " + std::to_string(node.motion_id));
  }
  MotionExchange& ex = *it->second;
  while (auto batch = ex.RecvBatch(ctx.receiver_index)) {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(batch->ActiveRows())));
    Status s = sink(std::move(*batch));
    if (s.code() == StatusCode::kStopIteration) return s;
    GPHTAP_RETURN_IF_ERROR(s);
  }
  if (ex.aborted() && !(ctx.owner && ctx.owner->cancelled())) {
    return Status::Aborted("motion exchange aborted");
  }
  if (ctx.owner && ctx.owner->cancelled()) return ctx.owner->cancel_reason();
  return Status::OK();
}

Status ExecuteNodeVecImpl(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  switch (node.kind) {
    case PlanKind::kSeqScan:
      return ExecSeqScanVec(node, ctx, sink);
    case PlanKind::kFilter:
      return ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
        GPHTAP_RETURN_IF_ERROR(VecFilterBatch(*node.filter, &b));
        if (b.ActiveRows() == 0) return Status::OK();
        return sink(std::move(b));
      });
    case PlanKind::kProject:
      return ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
        ColumnBatch out;
        GPHTAP_RETURN_IF_ERROR(VecProjectBatch(node.exprs, b, &out));
        if (out.ActiveRows() == 0) return Status::OK();
        return sink(std::move(out));
      });
    case PlanKind::kHashAgg:
      return ExecHashAggVec(node, ctx, sink);
    case PlanKind::kHashJoin:
      return ExecHashJoinVec(node, ctx, sink);
    case PlanKind::kMotion:
      return ExecMotionRecvVec(node, ctx, sink);
    default:
      return Status::Internal("plan node kind not vectorized");
  }
}

}  // namespace

Status ExecuteNodeVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  int64_t rows = 0, batches = 0;
  auto counting = [&](ColumnBatch&& b) -> Status {
    ++batches;
    rows += static_cast<int64_t>(b.ActiveRows());
    return sink(std::move(b));
  };
  Stopwatch sw;
  Status s = ExecuteNodeVecImpl(node, ctx, counting);
  if (StatementRecord* actuals = ctx.actuals(); actuals != nullptr && node.node_id >= 0) {
    actuals->AddOperator(node.node_id, rows, sw.ElapsedMicros(), batches);
  }
  if (ctx.cluster != nullptr) {
    MetricsRegistry& m = ctx.cluster->metrics();
    m.counter("vec.batches")->Add(static_cast<uint64_t>(batches));
    m.counter("vec.rows")->Add(static_cast<uint64_t>(rows));
  }
  if (ctx.record != nullptr && batches > 0) {
    // Same per-node semantics as the vec.batches counter (nested marked nodes
    // each count their output), so the view column joins against the metric.
    ctx.record->vec_batches.fetch_add(static_cast<uint64_t>(batches),
                                      std::memory_order_relaxed);
  }
  return s;
}

}  // namespace gphtap
