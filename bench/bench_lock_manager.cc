// Microbenchmarks for the lock manager (Table 1 machinery): conflict checks,
// uncontended acquire/release, wait-graph collection.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "lock/lock_manager.h"

namespace gphtap {
namespace {

void BM_ConflictCheck(benchmark::State& state) {
  int i = 0;
  bench::RunMicro(state, "LockManager/ConflictCheck", 0, [&] {
    LockMode a = static_cast<LockMode>(1 + (i % 8));
    LockMode b = static_cast<LockMode>(1 + ((i / 8) % 8));
    benchmark::DoNotOptimize(LockConflicts(a, b));
    ++i;
  });
}
BENCHMARK(BM_ConflictCheck);

void BM_UncontendedAcquireRelease(benchmark::State& state) {
  LockManager lm(0);
  auto owner = std::make_shared<LockOwner>(1);
  LockTag tag = LockTag::Relation(42);
  bench::RunMicro(state, "LockManager/UncontendedAcquireRelease", 0, [&] {
    lm.Acquire(owner, tag, LockMode::kRowExclusive);
    lm.Release(*owner, tag, LockMode::kRowExclusive);
  });
}
BENCHMARK(BM_UncontendedAcquireRelease);

void BM_SharedAcquireManyHolders(benchmark::State& state) {
  LockManager lm(0);
  std::vector<std::shared_ptr<LockOwner>> owners;
  LockTag tag = LockTag::Relation(42);
  for (int i = 0; i < state.range(0); ++i) {
    owners.push_back(std::make_shared<LockOwner>(static_cast<uint64_t>(i + 1)));
    lm.Acquire(owners.back(), tag, LockMode::kAccessShare);
  }
  auto me = std::make_shared<LockOwner>(9999);
  bench::RunMicro(state, "LockManager/SharedAcquireManyHolders", state.range(0), [&] {
    lm.Acquire(me, tag, LockMode::kAccessShare);
    lm.Release(*me, tag, LockMode::kAccessShare);
  });
  for (auto& o : owners) lm.ReleaseAll(*o);
}
BENCHMARK(BM_SharedAcquireManyHolders)->Arg(1)->Arg(16)->Arg(128);

void BM_ReleaseAll(benchmark::State& state) {
  LockManager lm(0);
  int64_t num_locks = state.range(0);
  Histogram lat;
  Stopwatch total;
  for (auto _ : state) {
    state.PauseTiming();
    auto owner = std::make_shared<LockOwner>(1);
    for (int64_t i = 0; i < num_locks; ++i) {
      lm.Acquire(owner, LockTag::Relation(static_cast<uint32_t>(i)),
                 LockMode::kAccessShare);
    }
    state.ResumeTiming();
    Stopwatch sw;
    lm.ReleaseAll(*owner);
    lat.Record(sw.ElapsedNanos());
  }
  bench::RecordMicroPoint("LockManager/ReleaseAll", num_locks, lat, total.ElapsedSeconds(),
                          nullptr, /*lat_per_us=*/1000);
}
BENCHMARK(BM_ReleaseAll)->Arg(4)->Arg(64);

void BM_CollectWaitGraph(benchmark::State& state) {
  // N blocked waiters on one lock (a realistic hot-table pileup).
  LockManager lm(0);
  auto holder = std::make_shared<LockOwner>(1);
  LockTag tag = LockTag::Relation(42);
  lm.Acquire(holder, tag, LockMode::kAccessExclusive);
  std::vector<std::thread> waiters;
  std::vector<std::shared_ptr<LockOwner>> owners;
  int n = static_cast<int>(state.range(0));
  // Create every owner before spawning: the threads index into `owners`, so it
  // must not reallocate underneath them.
  for (int i = 0; i < n; ++i) {
    owners.push_back(std::make_shared<LockOwner>(static_cast<uint64_t>(i + 2)));
  }
  for (int i = 0; i < n; ++i) {
    waiters.emplace_back(
        [&, i] { lm.Acquire(owners[static_cast<size_t>(i)], tag, LockMode::kAccessShare); });
  }
  while (lm.CollectWaitGraph().edges.size() < static_cast<size_t>(n)) {
    std::this_thread::yield();
  }
  bench::RunMicro(state, "LockManager/CollectWaitGraph", state.range(0), [&] {
    benchmark::DoNotOptimize(lm.CollectWaitGraph());
  });
  lm.ReleaseAll(*holder);
  for (auto& t : waiters) t.join();
  for (auto& o : owners) lm.ReleaseAll(*o);
}
BENCHMARK(BM_CollectWaitGraph)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gphtap

int main(int argc, char** argv) {
  return gphtap::bench::BenchMain(argc, argv, "lock_manager", nullptr);
}
