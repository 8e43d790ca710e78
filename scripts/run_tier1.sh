#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrency-heavy
# subset (xid tables and visibility, locks, GDD, commit protocol, mirrors,
# crash recovery, the change-log tailer, metrics) again under
# ThreadSanitizer, the expression, SQL and column-codec subset under
# UndefinedBehaviorSanitizer, the executor, DML, change-log reader,
# column-codec and group-store scan subset under AddressSanitizer, then
# smoke-mode benchmarks whose BENCH_*.json output is validated for the
# required keys.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

cmake -B build-tsan -S . -DGPHTAP_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)"
(cd build-tsan && ctest --output-on-failure -j "$(nproc)" -R \
  'gang_runner_test|periodic_task_test|log_tailer_test|txn_manager_test|visibility_test|snapshot_stress_test|executor_test|lock_manager_test|lock_modes_test|gdd_daemon_test|gdd_algorithm_test|gdd_cases_test|commit_protocol_test|mirror_test|fault_injector_test|crash_recovery_test|failover_test|metrics_test|observability_test|motion_exchange_test|column_batch_test|vec_executor_test|vec_differential_test|ao_visibility_test|ao_compaction_test|reorg_test|expand_test|wait_event_test|system_views_test|timeout_test|chaos_test|plan_cache_test|prepare_execute_test|delta_store_test|delta_scan_test|delta_differential_test|stats_test|stats_views_test|frontend_test')

# Integer arithmetic, literals and both expression engines under UBSan, and
# the prepared-statement and plan-cache tests, since every EXECUTE evaluates
# its parameters through cloned plans, and the column codecs, whose decoder
# walks raw block bytes with shifts and memcpy: signed overflow or any other
# undefined behaviour stops the run at its first report.
cmake -B build-ubsan -S . -DGPHTAP_SANITIZE=undefined
cmake --build build-ubsan -j "$(nproc)" --target expr_test parser_test vec_executor_test \
  vec_differential_test sql_end_to_end_test prepare_execute_test plan_cache_test \
  compression_test column_group_store_test
(cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --output-on-failure -j "$(nproc)" -R \
  'expr_test|parser_test|vec_executor_test|vec_differential_test|sql_end_to_end_test|prepare_execute_test|plan_cache_test|compression_test|column_group_store_test')

# The executor, the planner and the UPDATE/DELETE paths under
# AddressSanitizer, LeakSanitizer included: the ModifyTable node holds tuple
# copies across lock waits. So do the change log's readers (mirror replay,
# recovery, failover, the delta feed): they read records by reference from
# the log's deque. So do the column codecs, whose decoder walks block bytes
# by pointer arithmetic and must stop at their end. So do the group-store
# scans of both AO orientations and of the delta store: each group decodes
# under its own latch hold while seals, frees and truncates change the store
# between groups, so a batch must never point into freed blocks or a
# reallocated open run. The first report stops the run.
cmake -B build-asan -S . -DGPHTAP_SANITIZE=address
cmake --build build-asan -j "$(nproc)" --target executor_test planner_test \
  sql_end_to_end_test prepare_execute_test gdd_cases_test commit_protocol_test \
  mirror_test crash_recovery_test failover_test delta_store_test \
  compression_test column_group_store_test storage_kinds_test ao_compaction_test \
  ao_visibility_test delta_scan_test
(cd build-asan && ASAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j "$(nproc)" -R \
  '^(executor_test|planner_test|sql_end_to_end_test|prepare_execute_test|gdd_cases_test|commit_protocol_test|mirror_test|crash_recovery_test|failover_test|delta_store_test|compression_test|column_group_store_test|storage_kinds_test|ao_compaction_test|ao_visibility_test|delta_scan_test)$')

# Advisory bench diffing: the previous run's BENCH_*.json is kept as .prev and
# a per-series tps/p99 delta table is printed after each fresh run. Informative
# only — smoke numbers are too noisy to gate on — so regressions surface in
# the log without failing the build.
snapshot_prev() { if [ -f "build/$1" ]; then cp "build/$1" "build/$1.prev"; fi; }
diff_prev() {
  if [ -f "build/$1.prev" ]; then
    python3 scripts/bench_diff.py "build/$1.prev" "build/$1"
  fi
}

# Smoke-run one benchmark and validate its machine-readable output. The run
# also exports a Chrome trace_event dump of the traced queries, validated
# below (loadable in Perfetto / about:tracing).
snapshot_prev BENCH_fig12_tpcb.json
(cd build && GPHTAP_BENCH_MS=100 GPHTAP_TRACE_OUT=TRACE_fig12_tpcb.json \
  ./bench/bench_fig12_tpcb --smoke)
diff_prev BENCH_fig12_tpcb.json
python3 - build/BENCH_fig12_tpcb.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "fig12_tpcb", doc
assert doc["points"], "no points recorded"
required = {"throughput_tps", "p50_us", "p95_us", "p99_us"}
for point in doc["points"]:
    missing = required - set(point)
    assert not missing, f"point {point.get('series')} missing {missing}"
print(f"BENCH json OK: {len(doc['points'])} points")
EOF

# Validate the Chrome trace export: well-formed trace_event JSON where every
# event is a complete ("X") span carrying ts + dur.
python3 - build/TRACE_fig12_tpcb.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "no trace events exported"
for ev in events:
    assert ev["ph"] == "X", ev
    assert isinstance(ev["ts"], int) and ev["ts"] >= 0, ev
    assert isinstance(ev["dur"], int) and ev["dur"] >= 0, ev
    assert "pid" in ev and "tid" in ev and "name" in ev, ev
names = {ev["name"] for ev in events}
assert any(n == "query" for n in names), f"no root query span in {sorted(names)[:10]}"
print(f"TRACE json OK: {len(events)} spans across {len({e['pid'] for e in events})} queries")
EOF

# Chaos smoke: a 10-second seeded fault schedule (crashes + failover + delay
# + drop) over concurrent transfers and scans. The binary exits non-zero on
# any safety-invariant violation; the JSON carries the resilience rates.
snapshot_prev BENCH_chaos.json
(cd build && GPHTAP_CHAOS_MS=10000 ./bench/bench_chaos --smoke)
diff_prev BENCH_chaos.json
python3 - build/BENCH_chaos.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "chaos", doc
assert doc["points"], "no points recorded"
required = {"throughput_tps", "p50_us", "p95_us", "p99_us",
            "abort_rate", "retry_rate", "shed_rate", "recovery_p95_us"}
for point in doc["points"]:
    missing = required - set(point)
    assert not missing, f"point {point.get('series')} missing {missing}"
    assert point["faults_injected"] > 0, f"no faults injected in {point['series']}"
print(f"BENCH chaos json OK: {len(doc['points'])} points")
EOF

# Expansion smoke: transfers flow while the cluster grows 3 -> 5 segments and
# rebalances online. Validates throughput before/during/after, a bounded
# cutover pause, rows actually moved, and data served from the new segments.
snapshot_prev BENCH_expand.json
(cd build && GPHTAP_BENCH_MS=300 ./bench/bench_expand --smoke)
diff_prev BENCH_expand.json
python3 - build/BENCH_expand.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "expand", doc
points = {p["series"]: p for p in doc["points"]}
required = {"throughput_tps", "p50_us", "p95_us", "p99_us"}
for name in ("Expand/Online/Before", "Expand/Online/During", "Expand/Online/After"):
    assert name in points, f"missing {name} in {sorted(points)}"
    missing = required - set(points[name])
    assert not missing, f"{name} missing {missing}"
during = points["Expand/Online/During"]
assert during["rows_moved"] > 0, "rebalance moved no rows"
assert during["new_segment_rows"] > 0, "new segments serve no data"
assert during["cutover_pause_us"] > 0, "no cutover pause recorded"
for name in ("Expand/Online/Before", "Expand/Online/After"):
    assert points[name]["throughput_tps"] > 0, f"{name} made no progress"
print(f"BENCH expand json OK: cutover pause p99 {during['cutover_pause_us']:.0f}us, "
      f"{during['rows_moved']:.0f} rows moved")
EOF

# Vectorized-kernel microbench: smoke-run, validate the JSON, and assert the
# vectorized path actually wins — every Vectorized series must beat (or tie)
# its RowEngine twin at every swept arg.
snapshot_prev BENCH_vec_kernels.json
(cd build && GPHTAP_BENCH_MS=100 ./bench/bench_vec_kernels --smoke)
diff_prev BENCH_vec_kernels.json
python3 - build/BENCH_vec_kernels.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "vec_kernels", doc
assert doc["points"], "no points recorded"
required = {"throughput_tps", "p50_us", "p95_us", "p99_us"}
series = {p["series"] for p in doc["points"]}
for point in doc["points"]:
    missing = required - set(point)
    assert not missing, f"point {point.get('series')} missing {missing}"
by_key = {(p["series"], p["arg"]): p for p in doc["points"]}
for pair in ("Filter", "Agg", "ScanQuery", "Partition"):
    vec_name = f"VecKernels/{pair}/Vectorized"
    row_name = f"VecKernels/{pair}/RowEngine"
    assert vec_name in series, f"missing {pair} vec series"
    assert row_name in series, f"missing {pair} row series"
    for (name, arg), point in sorted(by_key.items()):
        if name != vec_name:
            continue
        row = by_key.get((row_name, arg))
        assert row is not None, f"{row_name} has no point at arg {arg}"
        vec_tps, row_tps = point["throughput_tps"], row["throughput_tps"]
        assert vec_tps >= row_tps, (
            f"{pair}@{arg}: vectorized {vec_tps:.0f} tps < row {row_tps:.0f} tps")
        print(f"  {pair}@{arg}: vec {vec_tps:.0f} tps vs row {row_tps:.0f} tps "
              f"({vec_tps / row_tps:.2f}x)")
# The codec decode series: one point per codec, each decoding its blocks
# back to exactly the values encoded.
decode = {p["arg"]: p for p in doc["points"] if p["series"] == "VecKernels/Decode"}
codecs = {0: "none", 1: "rle", 2: "delta", 3: "dict", 4: "lz"}
for arg, name in codecs.items():
    assert arg in decode, f"missing VecKernels/Decode point for {name}"
    point = decode[arg]
    assert point["wrong"] == 0, f"{name} decoded {point['wrong']:.0f} wrong values"
    print(f"  Decode/{name}: {point['ns_per_value']:.2f} ns/value")
print(f"BENCH vec json OK: {len(doc['points'])} points, vectorized wins everywhere")
EOF

# Delta-store bench: smoke-run, validate the JSON, and assert the vectorized
# delta-merged scan over fresh heap rows beats (or ties) the row engine on the
# same data at every swept arg, that the freshness lag was measured, and that
# forced seal passes actually drained rows.
snapshot_prev BENCH_delta.json
(cd build && GPHTAP_BENCH_MS=100 ./bench/bench_delta --smoke)
diff_prev BENCH_delta.json
python3 - build/BENCH_delta.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "delta", doc
assert doc["points"], "no points recorded"
required = {"throughput_tps", "p50_us", "p95_us", "p99_us"}
for point in doc["points"]:
    missing = required - set(point)
    assert not missing, f"point {point.get('series')} missing {missing}"
by_key = {(p["series"], p["arg"]): p for p in doc["points"]}
series = {p["series"] for p in doc["points"]}
assert "Delta/Freshness/Lag" in series, f"missing lag series in {sorted(series)}"
lag = next(p for p in doc["points"] if p["series"] == "Delta/Freshness/Lag")
assert lag["p95_us"] >= lag["p50_us"] >= 0, lag
merged_args = sorted(a for (n, a) in by_key if n == "Delta/Freshness/Merged")
assert merged_args, f"missing merged series in {sorted(series)}"
for arg in merged_args:
    merged = by_key[("Delta/Freshness/Merged", arg)]
    row = by_key.get(("Delta/Freshness/RowEngine", arg))
    assert row is not None, f"Delta/Freshness/RowEngine has no point at arg {arg}"
    m_tps, r_tps = merged["throughput_tps"], row["throughput_tps"]
    assert m_tps >= r_tps, (
        f"Freshness@{arg}: delta-merged {m_tps:.0f} tps < row engine {r_tps:.0f} tps")
    print(f"  Freshness@{arg}: merged {m_tps:.0f} tps vs row {r_tps:.0f} tps "
          f"({m_tps / r_tps:.2f}x), lag p50 {lag['p50_us']:.0f}us")
seal = next(p for p in doc["points"] if p["series"] == "Delta/Seal/Throughput")
assert seal["rows_sealed"] > 0, "seal passes drained no rows"
print(f"BENCH delta json OK: {len(doc['points'])} points, "
      f"seal {seal['throughput_tps']:.0f} rows/s")
EOF

# Visibility micro bench: the per-xid check beside one writer, and one column
# group's visibility pass. Validates the keys, and that no check disagreed
# with "committed before the snapshot".
snapshot_prev BENCH_visibility.json
(cd build && GPHTAP_BENCH_MS=100 ./bench/bench_visibility --smoke)
diff_prev BENCH_visibility.json
python3 - build/BENCH_visibility.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "visibility", doc
by_key = {(p["series"], p["arg"]): p for p in doc["points"]}
required = {"throughput_tps", "p50_us", "p95_us", "p99_us", "wrong"}
for key, per in ((("Visibility/Check", 1), "ns_per_check"),
                 (("Visibility/Check", 4), "ns_per_check"),
                 (("Visibility/GroupDecode", 1), "ns_per_row"),
                 (("Visibility/GroupDecode", 1024), "ns_per_row")):
    point = by_key.get(key)
    assert point is not None, f"missing {key} in {sorted(by_key)}"
    missing = (required | {per}) - set(point)
    assert not missing, f"{key} missing {missing}"
    assert point["wrong"] == 0, f"{key}: {point['wrong']:.0f} wrong verdicts"
    assert point[per] > 0, f"{key}: no {per} measured"
    print(f"  {key[0]}/{key[1]}: {point[per]:.1f} {per}")
print(f"BENCH visibility json OK: {len(doc['points'])} points")
EOF

# Stats-collector overhead: TPC-B with gp_stat_statements + the history
# daemon on vs off, interleaved repeats, median per mode. Gate: the collector
# costs at most 2% throughput (with slack for smoke-run noise handled by the
# interleaved-median measurement itself).
snapshot_prev BENCH_stats.json
(cd build && GPHTAP_BENCH_MS=200 ./bench/bench_stats --smoke)
diff_prev BENCH_stats.json
python3 - build/BENCH_stats.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "stats", doc
points = {p["series"]: p for p in doc["points"]}
required = {"throughput_tps", "p50_us", "p95_us", "p99_us", "best_tps"}
for name in ("Stats/Overhead/StatsOn", "Stats/Overhead/StatsOff"):
    assert name in points, f"missing {name} in {sorted(points)}"
    missing = required - set(points[name])
    assert not missing, f"{name} missing {missing}"
on = points["Stats/Overhead/StatsOn"]
off = points["Stats/Overhead/StatsOff"]
assert on["best_tps"] > 0 and off["best_tps"] > 0, (on, off)
overhead = on["overhead_pct"]
print(f"BENCH stats json OK: stats-on {on['best_tps']:.0f} tps vs "
      f"stats-off {off['best_tps']:.0f} tps ({overhead:+.2f}% overhead)")
assert overhead <= 2.0, (
    f"stats collector overhead {overhead:.2f}% exceeds the 2% budget")
EOF

# Front-door session scaling: 50k logical sessions must be admitted and
# sustained over the fixed 8-worker pool with zero invariant violations and a
# bounded shed rate, every shed classified as retryable (the binary itself
# exits non-zero on a violation), and steady-state front-door TPC-B tps must
# land within 10% of the direct-session baseline at equal worker count.
snapshot_prev BENCH_sessions.json
(cd build && GPHTAP_BENCH_MS=500 ./bench/bench_sessions --smoke)
diff_prev BENCH_sessions.json
python3 - build/BENCH_sessions.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "sessions", doc
assert doc["points"], "no points recorded"
by_key = {(p["series"], p["arg"]): p for p in doc["points"]}
required = {"throughput_tps", "p50_us", "p95_us", "p99_us"}
for point in doc["points"]:
    missing = required - set(point)
    assert not missing, f"point {point.get('series')} missing {missing}"

storm = by_key.get(("Sessions/Storm/Connect", 50000))
assert storm is not None, f"missing 50k storm point in {sorted(by_key)}"
assert storm["violations"] == 0, f"invariant violations under storm: {storm}"
assert storm["connect_ok"] >= 45000, (
    f"storm admitted only {storm['connect_ok']:.0f} of 50000 sessions")
assert storm["committed"] > 0, "storm made no forward progress"
assert storm["connect_p99_us"] > 0, "no connect latency recorded"
assert storm["shed_rate"] <= 0.95, (
    f"shed rate {storm['shed_rate']:.3f} unbounded under storm")

steady = next((p for p in doc["points"]
               if p["series"] == "Sessions/Steady/Frontend"), None)
assert steady is not None, "missing steady front-door point"
assert steady["violations"] == 0, f"steady-state invariant violation: {steady}"
assert steady["connect_ok"] == steady["sessions"], (
    f"steady ramp incomplete: {steady['connect_ok']:.0f}/{steady['sessions']:.0f}")
assert steady["pool_utilization"] > 0.5, (
    f"pool underutilized at saturation: {steady['pool_utilization']:.2f}")

front = by_key.get(("Sessions/Compare/Frontend", 1000))
direct = by_key.get(("Sessions/Direct/Baseline", 8))
assert front is not None, "missing front-door compare point"
assert direct is not None, "missing direct-session baseline point"
ratio = front["best_tps"] / direct["best_tps"]
assert ratio >= 0.9, (
    f"front-door tps {front['best_tps']:.0f} is {ratio:.2f}x the direct "
    f"baseline {direct['best_tps']:.0f} (must be >= 0.9x)")
print(f"BENCH sessions json OK: storm admitted {storm['connect_ok']:.0f} sessions "
      f"(connect p99 {storm['connect_p99_us']:.0f}us, shed rate "
      f"{storm['shed_rate']:.2f}), front-door {front['best_tps']:.0f} tps = "
      f"{ratio:.2f}x direct baseline, pool {steady['pool_utilization']:.0%} busy")
EOF
