#include "plan/planner.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace gphtap {

namespace {

// Rebases an expression that references the combined layout so that column i
// becomes column remap[i]. Returns null if the expr references an unmapped col.
ExprPtr RemapExpr(const ExprPtr& e, const std::vector<int>& remap) {
  if (!e) return nullptr;
  switch (e->kind) {
    case ExprKind::kConst:
    case ExprKind::kParam:  // no column references; survives remapping as-is
      return e;
    case ExprKind::kColumn: {
      if (e->column < 0 || static_cast<size_t>(e->column) >= remap.size() ||
          remap[static_cast<size_t>(e->column)] < 0) {
        return nullptr;
      }
      return Expr::Column(remap[static_cast<size_t>(e->column)]);
    }
    case ExprKind::kNot: {
      ExprPtr l = RemapExpr(e->left, remap);
      return l ? Expr::Not(l) : nullptr;
    }
    case ExprKind::kIsNull: {
      ExprPtr l = RemapExpr(e->left, remap);
      return l ? Expr::IsNull(l) : nullptr;
    }
    case ExprKind::kBinary: {
      ExprPtr l = RemapExpr(e->left, remap);
      ExprPtr r = RemapExpr(e->right, remap);
      return (l && r) ? Expr::Binary(e->op, l, r) : nullptr;
    }
  }
  return nullptr;
}

void CollectColumns(const Expr& e, std::set<int>* out) {
  switch (e.kind) {
    case ExprKind::kColumn:
      out->insert(e.column);
      break;
    case ExprKind::kNot:
    case ExprKind::kIsNull:
      CollectColumns(*e.left, out);
      break;
    case ExprKind::kBinary:
      CollectColumns(*e.left, out);
      CollectColumns(*e.right, out);
      break;
    default:
      break;
  }
}

ExprPtr AndAll(const std::vector<ExprPtr>& quals) {
  ExprPtr acc;
  for (const ExprPtr& q : quals) {
    if (!q) continue;
    acc = acc ? Expr::Binary(BinOp::kAnd, acc, q) : q;
  }
  return acc;
}

// Is `e` an equality between a column of table range [al, ar) and one of
// [bl, br)? Outputs the two combined-layout column indexes.
bool IsJoinQual(const Expr& e, int al, int ar, int bl, int br, int* a_col, int* b_col) {
  if (e.kind != ExprKind::kBinary || e.op != BinOp::kEq) return false;
  if (e.left->kind != ExprKind::kColumn || e.right->kind != ExprKind::kColumn) {
    return false;
  }
  int l = e.left->column, r = e.right->column;
  if (l >= al && l < ar && r >= bl && r < br) {
    *a_col = l;
    *b_col = r;
    return true;
  }
  if (r >= al && r < ar && l >= bl && l < br) {
    *a_col = r;
    *b_col = l;
    return true;
  }
  return false;
}

struct RelState {
  PlanPtr plan;
  // For each combined-layout column index: its position in this plan's output,
  // or -1 if this relation does not produce it.
  std::vector<int> col_map;
  // Distribution: the combined-layout columns this stream is hash-distributed
  // by; empty + replicated=false means "gathered/unknown".
  std::vector<int> hash_dist;
  bool replicated = false;
  uint64_t rows = 1000;
};

// Bottom-up vectorizability marking. A node is marked when the batch engine
// can run its whole input side: SeqScans over AO-column tables, and
// Filter/Project/Motion/HashAgg/HashJoin chains above them (all agg phases —
// the batch engine merges partial state itself). Unmarked parents over marked
// children are fine — the executor bridges the boundary by materializing rows
// out of batches.
bool MarkVectorizable(PlanNode* n, const std::set<TableId>& vec_tables) {
  bool children_marked = !n->children.empty();
  for (auto& c : n->children) {
    children_marked &= MarkVectorizable(c.get(), vec_tables);
  }
  switch (n->kind) {
    case PlanKind::kSeqScan:
      n->vectorize = vec_tables.count(n->table) > 0;
      break;
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kMotion:
    case PlanKind::kHashAgg:
    case PlanKind::kHashJoin:
      n->vectorize = children_marked;
      break;
    default:
      n->vectorize = false;
      break;
  }
  return n->vectorize;
}

// The store that serves a scan of `def`, for EXPLAIN transparency: a
// vectorized heap scan under the delta store is served by the delta-merged
// path, everything else by its table's physical storage.
std::string StoreLabel(const TableDef& def, bool delta_merged) {
  if (def.partitions.has_value()) return "partitioned";
  if (def.storage == StorageKind::kHeap && delta_merged) return "delta-merged";
  return ScanStoreLabel(def.storage);
}

// Labels every scan node with the store that will serve it.
void LabelScanStores(PlanNode* n, const std::vector<TableDef>& tables,
                     const PlannerOptions& opts) {
  if (n == nullptr) return;
  for (auto& c : n->children) LabelScanStores(c.get(), tables, opts);
  if (n->kind == PlanKind::kVirtualScan) {
    n->scan_store = "virtual";
    return;
  }
  if (n->kind != PlanKind::kSeqScan && n->kind != PlanKind::kIndexScan) return;
  for (const TableDef& t : tables) {
    if (t.id == n->table) {
      n->scan_store = StoreLabel(t, n->vectorize && opts.delta_store);
      return;
    }
  }
}

// Elastic expansion: the span a table's rows actually occupy, and whether a
// rebalance is moving them. Prefers the live-catalog callback (cached
// TableDefs go stale across a rebalance cutover); falls back to the def's own
// field, then to "all segments".
std::pair<int, bool> TableSpan(const TableDef& t, const PlannerOptions& opts) {
  if (opts.table_dist) {
    std::pair<int, bool> d = opts.table_dist(t.id);
    if (d.first > 0 && d.first <= opts.num_segments) return d;
  }
  int ds = t.dist_segments;
  if (ds <= 0 || ds > opts.num_segments) ds = opts.num_segments;
  return {ds, t.rebalancing};
}

// The one segment a fully pinned distribution key routes to when its table
// spans `span` segments: at plan time for constants, after EXECUTE's
// substitution for parameters.
int DirectDispatchSegment(const Row& key, int span) {
  std::vector<int> idx(key.size());
  std::iota(idx.begin(), idx.end(), 0);
  return static_cast<int>(HashRowKey(key, idx) % static_cast<uint64_t>(span));
}

// The gang of a statement over `def` alone: [0, width), or the one segment a
// fully pinned distribution key routes to. The routing modulus is the table's
// own span, not the cluster width — and while a rebalance is in flight the
// row may visibly live at either the old or the new home depending on
// snapshot, so dispatch goes wide. A key pinned by parameters keeps the wide
// gang and waits in `out->param_dispatch` for EXECUTE's values.
void DispatchGang(const TableDef& def, const ExprPtr& quals, int width,
                  const PlannerOptions& opts, CachedPlan* out) {
  out->gang.resize(static_cast<size_t>(width));
  std::iota(out->gang.begin(), out->gang.end(), 0);
  if (!opts.direct_dispatch || quals == nullptr ||
      def.distribution.kind != DistributionKind::kHash) {
    return;
  }
  auto [span, rebalancing] = TableSpan(def, opts);
  if (rebalancing) return;
  ParamDispatch pinned{{}, span};
  bool has_params = false;
  for (int col : def.distribution.key_cols) {
    ExprPtr key = ExtractEqualityKey(*quals, col);
    if (key == nullptr) return;
    has_params |= key->kind == ExprKind::kParam;
    pinned.key.push_back(std::move(key));
  }
  if (has_params) {
    out->param_dispatch = std::move(pinned);
    return;
  }
  Row key;
  for (const ExprPtr& k : pinned.key) key.push_back(k->value);
  out->gang = {DirectDispatchSegment(key, span)};
}

// The access path for one table: a point lookup through the first index in
// def.indexed_cols whose column `quals` pin by equality (to a constant or a
// parameter), else a SeqScan. `offset` is the table's first column in the
// quals' layout; `filter` is already rebased onto the table's own columns.
PlanPtr ScanFor(const TableDef& def, const ExprPtr& quals, int offset, ExprPtr filter) {
  const int ncols = static_cast<int>(def.schema.num_columns());
  if (quals) {
    for (int icol : def.indexed_cols) {
      if (ExprPtr key = ExtractEqualityKey(*quals, offset + icol)) {
        return MakeIndexScan(def.id, ncols, icol, std::move(key), std::move(filter));
      }
    }
  }
  return MakeSeqScan(def.id, ncols, std::move(filter));
}

}  // namespace

StatusOr<CachedPlan> PlanSelect(const SelectQuery& query, const PlannerOptions& opts) {
  if (query.tables.empty()) return Status::Internal("a SELECT binds at least one FROM item");
  const int num_tables = static_cast<int>(query.tables.size());

  // A FROM of only function scans, or a system view, runs coordinator-only: an
  // empty gang, no motion, single-phase aggregation. Joining a system view —
  // with anything — would need virtual rows on segments, which is out of scope.
  bool coordinator_only = true;
  bool any_view = false;
  for (const TableDef& t : query.tables) {
    coordinator_only &= t.is_function_scan;
    any_view |= t.is_system_view;
  }
  if (any_view && num_tables > 1) {
    return Status::NotSupported("system views cannot be joined with other tables");
  }
  coordinator_only |= any_view;

  // Combined-layout offsets.
  std::vector<int> offset(static_cast<size_t>(num_tables) + 1, 0);
  for (int t = 0; t < num_tables; ++t) {
    offset[static_cast<size_t>(t) + 1] =
        offset[static_cast<size_t>(t)] +
        static_cast<int>(query.tables[static_cast<size_t>(t)].schema.num_columns());
  }
  const int total_cols = offset[static_cast<size_t>(num_tables)];

  // Partition quals: single-table quals push into scans; two-table equality
  // quals become join keys; the rest are residual filters.
  std::vector<std::vector<ExprPtr>> table_quals(static_cast<size_t>(num_tables));
  struct JoinQual {
    int ta, tb;       // table indexes
    int ca, cb;       // combined-layout columns
    bool used = false;
  };
  std::vector<JoinQual> join_quals;
  std::vector<ExprPtr> residual;

  auto table_of_col = [&](int col) {
    for (int t = 0; t < num_tables; ++t) {
      if (col >= offset[static_cast<size_t>(t)] && col < offset[static_cast<size_t>(t) + 1]) {
        return t;
      }
    }
    return -1;
  };

  for (const ExprPtr& q : query.quals) {
    std::set<int> cols;
    CollectColumns(*q, &cols);
    std::set<int> tables_touched;
    for (int c : cols) tables_touched.insert(table_of_col(c));
    if (tables_touched.size() <= 1) {
      int t = tables_touched.empty() ? 0 : *tables_touched.begin();
      table_quals[static_cast<size_t>(t)].push_back(q);
      continue;
    }
    if (tables_touched.size() == 2) {
      auto it = tables_touched.begin();
      int ta = *it++;
      int tb = *it;
      int ca, cb;
      if (IsJoinQual(*q, offset[static_cast<size_t>(ta)], offset[static_cast<size_t>(ta) + 1],
                     offset[static_cast<size_t>(tb)], offset[static_cast<size_t>(tb) + 1],
                     &ca, &cb)) {
        join_quals.push_back(JoinQual{ta, tb, ca, cb});
        continue;
      }
    }
    residual.push_back(q);
  }

  // A coordinator-only query has an empty gang. A query over only replicated
  // tables runs on one segment (any copy); segment 0 always holds a copy
  // regardless of expansion state. Otherwise direct dispatch: a single
  // hash-distributed table with a fully pinned key.
  CachedPlan out;
  out.tables = query.tables;
  bool all_replicated = true;
  for (const TableDef& t : query.tables) {
    all_replicated &= t.distribution.kind == DistributionKind::kReplicated;
  }
  if (all_replicated && !coordinator_only) {
    out.gang = {0};
  } else if (!coordinator_only) {
    DispatchGang(query.tables[0], num_tables == 1 ? AndAll(table_quals[0]) : nullptr,
                 opts.num_segments, opts, &out);
    // A replicated table only has complete copies on [0, dist_segments). When
    // the gang must span wider (a hash table occupies the new segments too),
    // the join would silently lose rows on segments with no replica — fail
    // retryably; expansion syncs replicated tables before rebalancing hash
    // tables, so a retry lands after the sync.
    for (const TableDef& t : query.tables) {
      if (t.distribution.kind != DistributionKind::kReplicated || t.is_function_scan) continue;
      // The recorded span is authoritative even mid-rebalance: the sync flips
      // it only after every live snapshot can see the new copies, so until
      // then a wide gang would read missing rows on the added segments.
      if (TableSpan(t, opts).first < opts.num_segments) {
        return Status::Unavailable("replicated table " + t.name +
                                   " not yet synced to expanded segments; retry");
      }
    }
  }

  // Build per-table scans.
  auto estimate = [&](const TableDef& t) -> uint64_t {
    return opts.row_estimate && !t.is_function_scan ? opts.row_estimate(t.id) : 1000;
  };

  std::vector<RelState> rels;
  size_t function_scans = 0;
  for (int t = 0; t < num_tables; ++t) {
    const TableDef& def = query.tables[static_cast<size_t>(t)];
    int ncols = static_cast<int>(def.schema.num_columns());
    // Scan-local remap: combined col -> scan output col.
    std::vector<int> remap(static_cast<size_t>(total_cols), -1);
    for (int c = 0; c < ncols; ++c) {
      remap[static_cast<size_t>(offset[static_cast<size_t>(t)] + c)] = c;
    }
    ExprPtr quals = AndAll(table_quals[static_cast<size_t>(t)]);
    ExprPtr scan_filter = RemapExpr(quals, remap);
    PlanPtr scan;
    if (def.is_system_view) {
      scan = MakeVirtualScan(def.id, ncols, scan_filter);
    } else if (def.is_function_scan) {
      scan = MakeFunctionScan(query.series_bounds[function_scans++], scan_filter);
    } else {
      scan = ScanFor(def, quals, offset[static_cast<size_t>(t)], scan_filter);
    }

    RelState rel;
    rel.plan = std::move(scan);
    rel.col_map.assign(static_cast<size_t>(total_cols), -1);
    for (int c = 0; c < ncols; ++c) {
      rel.col_map[static_cast<size_t>(offset[static_cast<size_t>(t)] + c)] = c;
    }
    if (def.distribution.kind == DistributionKind::kHash) {
      // Collocation only holds when the table's hash modulus matches the
      // cluster width: a table still routed modulo its pre-expansion span (or
      // mid-rebalance, with rows transiently at both homes) does not place a
      // key on the segment a full-width redistribute would, so its
      // distribution is treated as unknown and joins add a motion.
      auto [mod, rebalancing] = TableSpan(def, opts);
      if (mod == opts.num_segments && !rebalancing) {
        for (int kc : def.distribution.key_cols) {
          rel.hash_dist.push_back(offset[static_cast<size_t>(t)] + kc);
        }
      }
    } else if (def.distribution.kind == DistributionKind::kReplicated) {
      rel.replicated = true;
    }
    rel.rows = estimate(def);
    rels.push_back(std::move(rel));
  }

  // Join order: FROM order (heuristic), or by descending cardinality with the
  // largest relation first (cost-based "Orca" mode). Replicated relations go
  // last so they end up on the build side.
  std::vector<int> order(static_cast<size_t>(num_tables));
  std::iota(order.begin(), order.end(), 0);
  if (opts.use_orca) {
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return rels[static_cast<size_t>(a)].rows > rels[static_cast<size_t>(b)].rows;
    });
  }
  std::stable_partition(order.begin(), order.end(),
                        [&](int t) { return !rels[static_cast<size_t>(t)].replicated; });

  // Left-deep join chain.
  RelState current = std::move(rels[static_cast<size_t>(order[0])]);
  for (size_t oi = 1; oi < order.size(); ++oi) {
    RelState next = std::move(rels[static_cast<size_t>(order[oi])]);

    // Join keys between `current` and `next`.
    std::vector<int> left_keys_combined, right_keys_combined;
    for (auto& jq : join_quals) {
      if (jq.used) continue;
      bool a_in_cur = current.col_map[static_cast<size_t>(jq.ca)] >= 0;
      bool b_in_cur = current.col_map[static_cast<size_t>(jq.cb)] >= 0;
      bool a_in_next = next.col_map[static_cast<size_t>(jq.ca)] >= 0;
      bool b_in_next = next.col_map[static_cast<size_t>(jq.cb)] >= 0;
      if (a_in_cur && b_in_next) {
        left_keys_combined.push_back(jq.ca);
        right_keys_combined.push_back(jq.cb);
        jq.used = true;
      } else if (b_in_cur && a_in_next) {
        left_keys_combined.push_back(jq.cb);
        right_keys_combined.push_back(jq.ca);
        jq.used = true;
      }
    }

    auto needs_motion = [&](const RelState& rel,
                            const std::vector<int>& join_cols) -> bool {
      if (rel.replicated) return false;
      if (rel.hash_dist.empty()) return true;
      // Collocated iff its hash distribution equals the join key set.
      std::set<int> dist(rel.hash_dist.begin(), rel.hash_dist.end());
      std::set<int> keys(join_cols.begin(), join_cols.end());
      return dist != keys;
    };

    if (!left_keys_combined.empty()) {
      // Hash join. Decide motions. A replicated side is collocated with
      // anything, so joins against it never move data.
      bool left_motion = needs_motion(current, left_keys_combined);
      bool right_motion = needs_motion(next, right_keys_combined);
      if (current.replicated || next.replicated) {
        left_motion = false;
        right_motion = false;
      }
      bool broadcast_right = false;
      if (opts.use_orca && (left_motion || right_motion) &&
          next.rows * 10 < current.rows) {
        // Small build side: replicate it instead of moving either stream.
        broadcast_right = true;
        left_motion = false;
        right_motion = true;
      }

      auto add_motion = [&](RelState& rel, const std::vector<int>& keys_combined,
                            bool broadcast) {
        std::vector<int> local_keys;
        for (int kc : keys_combined) {
          local_keys.push_back(rel.col_map[static_cast<size_t>(kc)]);
        }
        rel.plan = MakeMotion(broadcast ? MotionKind::kBroadcast : MotionKind::kRedistribute,
                              std::move(rel.plan), opts.next_motion_id(), local_keys);
        if (broadcast) {
          rel.replicated = true;
          rel.hash_dist.clear();
        } else {
          rel.hash_dist = keys_combined;
          rel.replicated = false;
        }
      };
      if (left_motion) add_motion(current, left_keys_combined, false);
      if (right_motion) add_motion(next, right_keys_combined, broadcast_right);

      auto join = std::make_unique<PlanNode>();
      join->kind = PlanKind::kHashJoin;
      for (int kc : left_keys_combined) {
        join->left_keys.push_back(current.col_map[static_cast<size_t>(kc)]);
      }
      for (int kc : right_keys_combined) {
        join->right_keys.push_back(next.col_map[static_cast<size_t>(kc)]);
      }
      int left_arity = current.plan->output_arity;
      join->output_arity = left_arity + next.plan->output_arity;
      join->children.push_back(std::move(current.plan));
      join->children.push_back(std::move(next.plan));
      current.plan = std::move(join);
      // Merge column maps: next's outputs shift by left_arity.
      for (int c = 0; c < total_cols; ++c) {
        if (next.col_map[static_cast<size_t>(c)] >= 0) {
          current.col_map[static_cast<size_t>(c)] =
              left_arity + next.col_map[static_cast<size_t>(c)];
        }
      }
      // Distribution of the join output: the probe side's, unless the probe
      // was replicated — then matches live where the build rows live.
      if (current.replicated && !next.replicated) {
        current.replicated = false;
        current.hash_dist = next.hash_dist;
      }
      current.rows = std::max(current.rows, next.rows);
    } else {
      // No equi-join: cartesian nested loop; broadcast the inner side.
      if (!next.replicated) {
        next.plan = MakeMotion(MotionKind::kBroadcast, std::move(next.plan),
                               opts.next_motion_id());
        next.replicated = true;
      }
      auto join = std::make_unique<PlanNode>();
      join->kind = PlanKind::kNestLoop;
      join->prefetch_inner = true;
      int left_arity = current.plan->output_arity;
      join->output_arity = left_arity + next.plan->output_arity;
      join->children.push_back(std::move(current.plan));
      join->children.push_back(std::move(next.plan));
      current.plan = std::move(join);
      for (int c = 0; c < total_cols; ++c) {
        if (next.col_map[static_cast<size_t>(c)] >= 0) {
          current.col_map[static_cast<size_t>(c)] =
              left_arity + next.col_map[static_cast<size_t>(c)];
        }
      }
      current.rows *= next.rows;
    }
  }

  // Residual filters (multi-table, non-equi).
  if (!residual.empty()) {
    ExprPtr remapped = RemapExpr(AndAll(residual), current.col_map);
    if (!remapped) return Status::Internal("failed to remap residual predicate");
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->filter = remapped;
    filter->output_arity = current.plan->output_arity;
    filter->children.push_back(std::move(current.plan));
    current.plan = std::move(filter);
  }

  PlanPtr root;
  if (query.HasAggregates()) {
    // Aggregation with group columns / agg arguments rebased onto the current
    // stream layout. Stored tables aggregate in two phases (partial on the
    // segments, final above a Gather); a coordinator-only query already runs
    // on the coordinator, so one single-phase HashAgg suffices.
    auto partial = std::make_unique<PlanNode>();
    partial->kind = PlanKind::kHashAgg;
    partial->agg_phase = coordinator_only ? AggPhase::kSingle : AggPhase::kPartial;
    for (int gc : query.group_by) {
      int local = current.col_map[static_cast<size_t>(gc)];
      if (local < 0) return Status::Internal("group-by column lost in join");
      partial->group_cols.push_back(local);
    }
    int state_arity = 0;
    for (const SelectItem& item : query.items) {
      if (!item.is_agg) continue;
      AggSpec spec = item.agg;
      if (spec.arg) {
        spec.arg = RemapExpr(spec.arg, current.col_map);
        if (!spec.arg) return Status::Internal("agg argument lost in join");
      }
      state_arity += AggStateArity(spec.fn);
      partial->aggs.push_back(std::move(spec));
    }
    partial->output_arity = static_cast<int>(partial->group_cols.size()) + state_arity;
    std::vector<AggSpec> final_aggs = partial->aggs;
    size_t num_groups = partial->group_cols.size();

    PlanPtr agg_out;
    if (coordinator_only) {
      partial->output_arity =
          static_cast<int>(num_groups + partial->aggs.size());
      partial->children.push_back(std::move(current.plan));
      agg_out = std::move(partial);
    } else {
      partial->children.push_back(std::move(current.plan));

      PlanPtr gathered = MakeMotion(MotionKind::kGather, std::move(partial),
                                    opts.next_motion_id());

      auto final_agg = std::make_unique<PlanNode>();
      final_agg->kind = PlanKind::kHashAgg;
      final_agg->agg_phase = AggPhase::kFinal;
      for (size_t i = 0; i < num_groups; ++i) {
        final_agg->group_cols.push_back(static_cast<int>(i));
      }
      final_agg->aggs = std::move(final_aggs);
      final_agg->output_arity =
          static_cast<int>(num_groups + final_agg->aggs.size());
      final_agg->children.push_back(std::move(gathered));
      agg_out = std::move(final_agg);
    }

    // Final projection: every item (visible + HAVING-hidden) in order.
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanKind::kProject;
    int agg_index = 0;
    int num_visible = query.NumVisible();
    for (int item_index = 0; item_index < static_cast<int>(query.items.size());
         ++item_index) {
      const SelectItem& item = query.items[static_cast<size_t>(item_index)];
      if (item.is_agg) {
        project->exprs.push_back(
            Expr::Column(static_cast<int>(num_groups) + agg_index));
        ++agg_index;
      } else {
        // Must be one of the group-by columns.
        if (item.expr->kind != ExprKind::kColumn) {
          return Status::InvalidArgument(
              "non-aggregate select item must be a grouped column");
        }
        int pos = -1;
        for (size_t g = 0; g < query.group_by.size(); ++g) {
          if (query.group_by[g] == item.expr->column) {
            pos = static_cast<int>(g);
            break;
          }
        }
        if (pos < 0) {
          return Status::InvalidArgument("column " + item.name +
                                         " must appear in GROUP BY");
        }
        project->exprs.push_back(Expr::Column(pos));
      }
      if (item_index < num_visible) out.columns.push_back(item.name);
    }
    project->output_arity = static_cast<int>(project->exprs.size());
    project->children.push_back(std::move(agg_out));
    root = std::move(project);

    // HAVING filters over the item layout, then hidden items are chopped off.
    if (query.having != nullptr) {
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanKind::kFilter;
      filter->filter = query.having;
      filter->output_arity = root->output_arity;
      filter->children.push_back(std::move(root));
      root = std::move(filter);
    }
    if (static_cast<int>(query.items.size()) > num_visible) {
      auto chop = std::make_unique<PlanNode>();
      chop->kind = PlanKind::kProject;
      for (int i = 0; i < num_visible; ++i) chop->exprs.push_back(Expr::Column(i));
      chop->output_arity = num_visible;
      chop->children.push_back(std::move(root));
      root = std::move(chop);
    }
  } else {
    // Plain select: project on segments, gather to coordinator.
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanKind::kProject;
    for (const SelectItem& item : query.items) {
      ExprPtr remapped = RemapExpr(item.expr, current.col_map);
      if (!remapped) return Status::Internal("select item lost in join");
      project->exprs.push_back(remapped);
      out.columns.push_back(item.name);
    }
    project->output_arity = static_cast<int>(project->exprs.size());
    project->children.push_back(std::move(current.plan));
    if (coordinator_only) {
      root = std::move(project);  // already on the coordinator; no Gather
    } else {
      root =
          MakeMotion(MotionKind::kGather, std::move(project), opts.next_motion_id());
    }
  }

  // DISTINCT: dedupe on the coordinator (a grouping with no aggregates).
  if (query.distinct) {
    auto dedup = std::make_unique<PlanNode>();
    dedup->kind = PlanKind::kHashAgg;
    dedup->agg_phase = AggPhase::kSingle;
    for (int i = 0; i < root->output_arity; ++i) dedup->group_cols.push_back(i);
    dedup->output_arity = root->output_arity;
    dedup->children.push_back(std::move(root));
    root = std::move(dedup);
  }

  // ORDER BY / LIMIT on the coordinator.
  if (!query.order_by.empty()) {
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PlanKind::kSort;
    for (const OrderItem& o : query.order_by) {
      sort->sort_keys.push_back(SortKey{o.select_index, o.ascending});
    }
    sort->output_arity = root->output_arity;
    sort->children.push_back(std::move(root));
    root = std::move(sort);
  }
  if (query.limit >= 0) {
    auto limit = std::make_unique<PlanNode>();
    limit->kind = PlanKind::kLimit;
    limit->limit = query.limit;
    limit->output_arity = root->output_arity;
    limit->children.push_back(std::move(root));
    root = std::move(limit);
  }

  if (opts.vectorize) {
    std::set<TableId> vec_tables;
    for (const TableDef& def : query.tables) {
      // Partitioned roots fan out to heterogeneous leaves, so they stay on the
      // row path, as do the relations with no storage.
      if (def.partitions.has_value() || def.is_system_view || def.is_function_scan) continue;
      // AO-column tables scan as ColumnBatches. With the delta store on, plain
      // heap tables scan as delta-merged batches (sealed delta groups + open
      // columnar tail) — the fresh-data vectorization path.
      if (def.storage == StorageKind::kAoColumn ||
          (opts.delta_store && def.storage == StorageKind::kHeap)) {
        vec_tables.insert(def.id);
      }
    }
    if (!vec_tables.empty()) MarkVectorizable(root.get(), vec_tables);
  }
  LabelScanStores(root.get(), query.tables, opts);
  AssignPlanNodeIds(root.get());
  out.root = std::move(root);
  return out;
}

StatusOr<CachedPlan> PlanModify(const TableDef& def,
                                const std::vector<std::pair<int, ExprPtr>>* sets,
                                const ExprPtr& where, const PlannerOptions& opts) {
  if (def.storage == StorageKind::kExternal && !def.partitions.has_value()) {
    return Status::NotSupported("UPDATE/DELETE on external storage");
  }
  const int ncols = static_cast<int>(def.schema.num_columns());
  auto modify = std::make_unique<PlanNode>();
  modify->kind = PlanKind::kModifyTable;
  modify->table = def.id;
  modify->filter = where;
  modify->output_arity = 1;  // the gang member's affected count
  if (sets != nullptr) {
    modify->exprs.resize(static_cast<size_t>(ncols));
    for (const auto& [col, expr] : *sets) {
      // Updating the distribution key would move rows across segments; like
      // classic Greenplum we reject it.
      if (def.distribution.kind == DistributionKind::kHash &&
          std::count(def.distribution.key_cols.begin(), def.distribution.key_cols.end(),
                     col) > 0) {
        return Status::NotSupported("UPDATE of the distribution key column " +
                                    def.schema.column(static_cast<size_t>(col)).name);
      }
      modify->exprs[static_cast<size_t>(col)] = expr;
    }
  }
  // The scan stays on the row engine: the ModifyTable stamps row versions.
  PlanPtr scan = ScanFor(def, where, 0, where);
  scan->emit_tid = true;
  scan->output_arity = ncols + 2;
  scan->scan_store = StoreLabel(def, /*delta_merged=*/false);
  modify->children.push_back(std::move(scan));

  // Every copy of a replicated table, every segment the table spans, or every
  // serving segment while a rebalance may hold a row at either home.
  auto [span, rebalancing] = TableSpan(def, opts);
  CachedPlan out;
  out.tables = {def};
  DispatchGang(def, where, rebalancing ? opts.num_segments : span, opts, &out);
  AssignPlanNodeIds(modify.get());
  out.root = std::move(modify);
  return out;
}

StatusOr<std::shared_ptr<const CachedPlan>> BindPlanParams(
    std::shared_ptr<const CachedPlan> generic, const std::vector<Datum>& params) {
  if (params.empty()) return generic;
  auto plan = std::make_shared<CachedPlan>(*generic);
  GPHTAP_ASSIGN_OR_RETURN(plan->root, ClonePlanWithParams(*generic->root, params));
  if (!plan->param_dispatch.key.empty()) {
    Row key;
    for (const ExprPtr& e : plan->param_dispatch.key) {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr value, CloneExprWithParams(e, params));
      GPHTAP_ASSIGN_OR_RETURN(Datum d, EvalExpr(*value, Row{}));
      key.push_back(std::move(d));
    }
    plan->gang = {DirectDispatchSegment(key, plan->param_dispatch.span)};
    plan->param_dispatch = {};
  }
  return std::shared_ptr<const CachedPlan>(std::move(plan));
}

}  // namespace gphtap
