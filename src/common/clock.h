// Wall-clock helpers and a stopwatch for measurements.
#ifndef GPHTAP_COMMON_CLOCK_H_
#define GPHTAP_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <thread>

namespace gphtap {

/// Monotonic nanoseconds since an arbitrary epoch.
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t MonotonicMicros() { return MonotonicNanos() / 1000; }

/// CPU time the calling thread has consumed, in nanoseconds; blocked time does
/// not count. Each read is a system call (a few hundred ns), so callers read it
/// once per task, never per row.
inline int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Sleeps for `us` microseconds; busy-spins below 30us for accuracy at small costs.
inline void PreciseSleepUs(int64_t us) {
  if (us <= 0) return;
  if (us < 30) {
    const int64_t until = MonotonicNanos() + us * 1000;
    while (MonotonicNanos() < until) {
      // spin
    }
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Measures elapsed time since construction or the last Restart().
class Stopwatch {
 public:
  Stopwatch() : start_(MonotonicNanos()) {}
  void Restart() { start_ = MonotonicNanos(); }
  int64_t ElapsedNanos() const { return MonotonicNanos() - start_; }
  int64_t ElapsedMicros() const { return ElapsedNanos() / 1000; }
  double ElapsedSeconds() const { return static_cast<double>(ElapsedNanos()) / 1e9; }

 private:
  int64_t start_;
};

}  // namespace gphtap

#endif  // GPHTAP_COMMON_CLOCK_H_
