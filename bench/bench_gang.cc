// Gang-runner micro benches: what starting a gang costs on the paths that
// start one per statement or per commit.
//
//   Gang/Commit/TwoSegment        — a zero-cost 2PC COMMIT of a transaction
//                                   that updated one row on each of two
//                                   segments (arg = concurrent sessions; the
//                                   others run the same loop untimed).
//   Gang/Commit/TwoSegmentGpdb6   — the same COMMIT under Gpdb6Options()'
//                                   30 us message and fsync costs, one session.
//   Gang/TinyScan/CountStar       — SELECT count(*) over 100 rows
//                                   (arg = segments, one producer each).
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace gphtap {
namespace bench {
namespace {

// The first key (counting up from `start`) that hashes to segment `seg`.
int64_t KeyOnSegment(const Cluster& cluster, int seg, int64_t start) {
  Row row(1);
  for (int64_t k = start;; ++k) {
    row[0] = Datum(k);
    if (cluster.SegmentForHash(HashRowKey(row, {0})) == seg) return k;
  }
}

// One session's transaction: BEGIN, then one single-row UPDATE on segment 0
// and one on segment 1. Its COMMIT is therefore two-phase.
struct TwoSegmentTxn {
  std::unique_ptr<Session> session;
  int64_t key_a = 0;
  int64_t key_b = 0;

  void Begin() {
    for (const std::string& sql :
         {std::string("BEGIN"),
          "UPDATE acct SET v = v + 1 WHERE k = " + std::to_string(key_a),
          "UPDATE acct SET v = v + 1 WHERE k = " + std::to_string(key_b)}) {
      if (!session->Execute(sql).ok()) std::abort();
    }
  }
  void Commit() {
    if (!session->Execute("COMMIT").ok()) std::abort();
  }
};

void RunCommit(::benchmark::State& state, const std::string& series,
               ClusterOptions options, int sessions) {
  options.num_segments = 4;
  Cluster cluster(options);
  auto setup = cluster.Connect();
  if (!setup->Execute("CREATE TABLE acct (k int, v int) DISTRIBUTED BY (k)").ok()) {
    state.SkipWithError("create failed");
    return;
  }
  // Disjoint rows per session: the sessions contend for the gang runner and
  // the CPU, never for a row lock.
  std::vector<TwoSegmentTxn> txns(static_cast<size_t>(sessions));
  int64_t next_key = 0;
  for (TwoSegmentTxn& txn : txns) {
    txn.session = cluster.Connect();
    txn.key_a = KeyOnSegment(cluster, 0, next_key);
    txn.key_b = KeyOnSegment(cluster, 1, next_key);
    next_key = std::max(txn.key_a, txn.key_b) + 1;
    for (int64_t k : {txn.key_a, txn.key_b}) {
      auto r = setup->Execute("INSERT INTO acct VALUES (" + std::to_string(k) + ", 0)");
      if (!r.ok()) std::abort();
    }
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> background;
  for (size_t i = 1; i < txns.size(); ++i) {
    background.emplace_back([&, i] {
      while (!stop.load(std::memory_order_relaxed)) {
        txns[i].Begin();
        txns[i].Commit();
      }
    });
  }
  RunMicro(state, series, sessions, [&] { txns[0].Begin(); }, [&] { txns[0].Commit(); });
  stop = true;
  for (auto& t : background) t.join();
}

void BM_CommitZeroCost(::benchmark::State& state) {
  RunCommit(state, "Gang/Commit/TwoSegment", ClusterOptions(),
            static_cast<int>(state.range(0)));
}

void BM_CommitGpdb6(::benchmark::State& state) {
  RunCommit(state, "Gang/Commit/TwoSegmentGpdb6", Gpdb6Options(),
            static_cast<int>(state.range(0)));
}

void BM_TinyScan(::benchmark::State& state) {
  const int segments = static_cast<int>(state.range(0));
  ClusterOptions options;
  options.num_segments = segments;
  Cluster cluster(options);
  auto session = cluster.Connect();
  if (!session->Execute("CREATE TABLE tiny (k int, v int) DISTRIBUTED BY (k)").ok() ||
      !session->Execute("INSERT INTO tiny SELECT i, i FROM generate_series(1, 100) i")
           .ok()) {
    state.SkipWithError("load failed");
    return;
  }
  RunMicro(state, "Gang/TinyScan/CountStar", segments, [&] {
    auto r = session->Execute("SELECT count(*) FROM tiny");
    if (!r.ok() || r->rows[0][0].int_val() != 100) std::abort();
  });
}

void RegisterAll() {
  {
    auto* b = ::benchmark::RegisterBenchmark("Gang/Commit/TwoSegment", BM_CommitZeroCost);
    for (int64_t sessions : Points({1, 4})) b->Args({sessions});
    b->Unit(::benchmark::kMicrosecond);
  }
  {
    auto* b =
        ::benchmark::RegisterBenchmark("Gang/Commit/TwoSegmentGpdb6", BM_CommitGpdb6);
    b->Args({1});
    b->Unit(::benchmark::kMicrosecond);
  }
  {
    auto* b = ::benchmark::RegisterBenchmark("Gang/TinyScan/CountStar", BM_TinyScan);
    for (int64_t segments : Points({2, 16})) b->Args({segments});
    b->Unit(::benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace bench
}  // namespace gphtap

int main(int argc, char** argv) {
  return gphtap::bench::BenchMain(argc, argv, "gang", gphtap::bench::RegisterAll);
}
