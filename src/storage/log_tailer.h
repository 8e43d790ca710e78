// One reader of a segment's change log on its own thread: the primitive under
// the mirror replayer and the delta feed, in the idiom of a PostgreSQL standby
// whose startup process replays WAL as it arrives. The tailer applies every
// record in log order from position 0, publishes how many it has applied, and
// wakes the callers of WaitForApplied. Stopping a tailer stops only that
// tailer: the log stays open for its other readers.
#ifndef GPHTAP_STORAGE_LOG_TAILER_H_
#define GPHTAP_STORAGE_LOG_TAILER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stop_token>
#include <thread>

#include "common/status.h"
#include "storage/change_log.h"

namespace gphtap {

class LogTailer {
 public:
  /// Applies one record, read in place from the log. `stop` is requested
  /// when the tailer is stopping, so an apply that waits on something else
  /// can stop waiting; the record counts as applied once Apply returns. The
  /// first non-OK result is kept as error(); the records after it are still
  /// applied.
  using Apply = std::function<Status(const ChangeRecord& record, std::stop_token stop)>;

  /// Starts the thread; it applies records from position 0 on.
  LogTailer(const ChangeLog* log, Apply apply);
  ~LogTailer() { Stop(); }

  LogTailer(const LogTailer&) = delete;
  LogTailer& operator=(const LogTailer&) = delete;

  /// Returns once the record in flight, if any, is applied; never waits for
  /// an append. Idempotent; call from one thread at a time.
  void Stop();

  /// Records [0, applied()) are applied.
  uint64_t applied() const { return applied_.load(std::memory_order_acquire); }

  /// Blocks until applied() >= target. TimedOut after `timeout_us`,
  /// Unavailable once the tailer is stopped short of `target`.
  Status WaitForApplied(uint64_t target, int64_t timeout_us);

  /// The first error an Apply returned; OK while there is none.
  Status error() const;

 private:
  void Run(std::stop_token stop);

  const ChangeLog* const log_;
  const Apply apply_;
  mutable std::mutex mu_;  // guards the next three; applied() reads without it
  std::atomic<uint64_t> applied_{0};
  // The lowest target of a WaitForApplied call asleep, so Run wakes waiters
  // when one of them can return, not once per record.
  uint64_t wake_at_ = UINT64_MAX;
  Status error_;
  std::condition_variable_any applied_cv_;  // an advance, or a stop
  std::jthread thread_;  // last: starts once every member above exists
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_LOG_TAILER_H_
