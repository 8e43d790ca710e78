// Microbenchmarks for MVCC visibility (Section 5.1): the per-xid check that
// every scan, seal pass and VACUUM predicate pays, and the visibility pass of
// one column group.
//
//   Visibility/Check/<readers>: ns per XidCommittedForSnapshot over 100,000
//     committed xids picked at random, by 1 or 4 reader threads that each hold
//     one snapshot, while one writer registers, records and commits fresh
//     xids on the same commit log and xid map.
//   Visibility/GroupDecode/<xmins>: ns per row of the visibility pass over one
//     sealed 1,024-row group (ColumnGroupStore::Decode of no columns), whose
//     rows carry 1 or 1,024 distinct xmins.
//
// Each point carries the required keys plus ns_per_check or ns_per_row, and
// `wrong`: the checks (or decodes) whose verdict differed from "committed
// before the snapshot", which must be 0.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "storage/column_group_store.h"
#include "txn/distributed_txn_manager.h"
#include "txn/local_txn_manager.h"
#include "txn/visibility.h"
#include "txn/wal.h"

namespace gphtap {
namespace {

// One segment's transaction state with `committed` finished transactions and
// a snapshot taken after them.
struct TxnFixture {
  explicit TxnFixture(int committed) {
    for (int i = 0; i < committed; ++i) xids.push_back(CommitOne());
    dsnap = dtm.TakeSnapshot();
    lsnap = mgr.TakeLocalSnapshot();
  }

  LocalXid CommitOne() {
    Gxid gxid = dtm.Begin(owner);
    LocalXid xid = *mgr.AssignXid(gxid);
    mgr.Commit(gxid);
    dtm.MarkCommitted(gxid);
    return xid;
  }

  VisibilityContext Ctx() const {
    VisibilityContext ctx;
    ctx.clog = &clog;
    ctx.dlog = &dlog;
    ctx.dsnap = &dsnap;
    ctx.lsnap = &lsnap;
    return ctx;
  }

  CommitLog clog;
  DistributedLog dlog;
  Wal wal{0};
  LocalTxnManager mgr{&clog, &dlog, &wal};
  DistributedTxnManager dtm;
  std::shared_ptr<LockOwner> owner = std::make_shared<LockOwner>(1);
  std::vector<LocalXid> xids;
  DistributedSnapshot dsnap;
  LocalSnapshot lsnap;
};

void BM_Check(benchmark::State& state) {
  constexpr int kXids = 100'000;
  constexpr int kBatch = 1024;  // checks per timed batch
  const int readers = static_cast<int>(state.range(0));
  TxnFixture f(kXids);
  const VisibilityContext ctx = f.Ctx();
  Histogram merged_ns;  // per-batch ns
  int64_t checks = 0, wrong = 0, active_ns = 0, writer_commits = 0;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::atomic<int> ready{0};
    std::mutex mu;  // guards the merged totals
    std::thread writer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        f.CommitOne();
        ++writer_commits;
      }
    });
    std::vector<std::thread> threads;
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        Rng rng(static_cast<uint64_t>(r) + 1);
        std::vector<LocalXid> picks(kBatch);
        Histogram my_ns;
        int64_t my_checks = 0, my_wrong = 0, my_active = 0;
        ready.fetch_add(1);
        while (ready.load() < readers) std::this_thread::yield();
        Stopwatch run;
        while (run.ElapsedNanos() < bench::PointMs() * 1'000'000) {
          for (LocalXid& x : picks) x = f.xids[rng.Next() % f.xids.size()];
          Stopwatch sw;
          int visible = 0;
          for (LocalXid x : picks) visible += XidCommittedForSnapshot(x, ctx);
          const int64_t ns = sw.ElapsedNanos();
          my_ns.Record(ns);
          my_active += ns;
          my_checks += kBatch;
          my_wrong += kBatch - visible;
        }
        std::lock_guard<std::mutex> g(mu);
        merged_ns.Merge(my_ns);
        checks += my_checks;
        wrong += my_wrong;
        active_ns += my_active;
      });
    }
    for (auto& t : threads) t.join();
    stop.store(true);
    writer.join();
  }
  auto us = [&](double p) {
    return static_cast<double>(merged_ns.Percentile(p)) / kBatch / 1000.0;
  };
  const double ns_per_check = checks > 0 ? static_cast<double>(active_ns) / checks : 0;
  state.counters["ns_per_check"] = ns_per_check;
  bench::RecordPoint(
      "Visibility/Check", readers,
      {{"throughput_tps", ns_per_check > 0 ? readers * 1e9 / ns_per_check : 0},
       {"p50_us", us(50)},
       {"p95_us", us(95)},
       {"p99_us", us(99)},
       {"ns_per_check", ns_per_check},
       {"checks", static_cast<double>(checks)},
       {"wrong", static_cast<double>(wrong)},
       {"writer_commits", static_cast<double>(writer_commits)}});
}
BENCHMARK(BM_Check)->Arg(1)->Arg(4)->Iterations(1)->UseRealTime();

void BM_GroupDecode(benchmark::State& state) {
  constexpr size_t kRows = ColumnGroupStore::kGroupRows;
  const size_t xmins = static_cast<size_t>(state.range(0));
  TxnFixture f(static_cast<int>(xmins));
  const VisibilityContext ctx = f.Ctx();
  Schema schema({{"k", TypeId::kInt64}});
  ColumnGroupStore store(schema, CompressionKind::kNone);
  for (size_t i = 0; i < kRows; ++i) {
    store.Append(Row{Datum(static_cast<int64_t>(i))}, f.xids[i * xmins / kRows]);
  }
  store.SealFront();
  Histogram lat_ns;
  int64_t active_ns = 0, wrong = 0;
  for (auto _ : state) {
    ColumnBatch batch;
    Stopwatch sw;
    auto any = store.Decode(0, {}, ctx, &batch);
    const int64_t ns = sw.ElapsedNanos();
    lat_ns.Record(ns);
    active_ns += ns;
    if (!any.ok() || !*any || batch.sel.size() != kRows) ++wrong;
  }
  const double groups = static_cast<double>(lat_ns.count());
  const double ns_per_row = groups > 0 ? static_cast<double>(active_ns) / groups / kRows : 0;
  auto us = [&](double p) { return static_cast<double>(lat_ns.Percentile(p)) / 1000.0; };
  state.counters["ns_per_row"] = ns_per_row;
  bench::RecordPoint(
      "Visibility/GroupDecode", static_cast<int64_t>(xmins),
      {{"throughput_tps", active_ns > 0 ? groups * 1e9 / static_cast<double>(active_ns) : 0},
       {"p50_us", us(50)},
       {"p95_us", us(95)},
       {"p99_us", us(99)},
       {"ns_per_row", ns_per_row},
       {"iterations", groups},
       {"wrong", static_cast<double>(wrong)}});
}
BENCHMARK(BM_GroupDecode)->Arg(1)->Arg(1024);

}  // namespace
}  // namespace gphtap

int main(int argc, char** argv) {
  return gphtap::bench::BenchMain(argc, argv, "visibility", nullptr);
}
