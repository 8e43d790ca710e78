// Blocking bounded MPMC queue with close semantics, used by the interconnect.
// Closing wakes all waiters; Pop returns nullopt once drained.
//
// The bound counts units of `Weigh(item)`, one per item by default. A push is
// admitted while fewer units than the capacity are queued, so an item that
// alone outweighs the capacity still moves once the queue drains. An item's
// weight must not change while it is queued.
#ifndef GPHTAP_COMMON_BOUNDED_QUEUE_H_
#define GPHTAP_COMMON_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace gphtap {

template <typename T>
struct UnitWeight {
  size_t operator()(const T&) const { return 1; }
};

template <typename T, typename Weigh = UnitWeight<T>>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lk(mu_);
    not_full_.wait(lk, [&] { return closed_ || queued_ < capacity_; });
    if (closed_) return false;
    PutBack(std::move(item));
    return true;
  }

  /// Non-blocking push. Returns false if full or closed; on failure `item` is
  /// left unmoved, so the caller may retry with the blocking Push.
  bool TryPush(T&& item) {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_ || queued_ >= capacity_) return false;
    PutBack(std::move(item));
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    return TakeFront();
  }

  /// Result of a timed push attempt (distinguishes "no room yet" from closed).
  enum class PushResult { kPushed, kTimedOut, kClosed };

  /// Waits up to `timeout_us` for room. On kTimedOut the item is left unmoved
  /// so the caller can re-check its cancellation state and retry.
  PushResult PushFor(T& item, int64_t timeout_us) {
    std::unique_lock<std::mutex> lk(mu_);
    not_full_.wait_for(lk, std::chrono::microseconds(timeout_us),
                       [&] { return closed_ || queued_ < capacity_; });
    if (closed_) return PushResult::kClosed;
    if (queued_ >= capacity_) return PushResult::kTimedOut;
    PutBack(std::move(item));
    return PushResult::kPushed;
  }

  /// Waits up to `timeout_us` for an item. Returns nullopt on timeout or when
  /// closed and drained; use closed() to distinguish if needed.
  std::optional<T> PopFor(int64_t timeout_us) {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait_for(lk, std::chrono::microseconds(timeout_us),
                        [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    return TakeFront();
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (items_.empty()) return std::nullopt;
    return TakeFront();
  }

  /// After Close, pushes fail and pops drain remaining items then return nullopt.
  void Close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.size();
  }

 private:
  // Both require mu_ held; TakeFront also a non-empty queue.
  void PutBack(T&& item) {
    queued_ += Weigh()(item);
    items_.push_back(std::move(item));
    not_empty_.notify_one();
  }
  T TakeFront() {
    queued_ -= Weigh()(items_.front());
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  size_t queued_ = 0;  // sum of Weigh() over items_
  bool closed_ = false;
};

}  // namespace gphtap

#endif  // GPHTAP_COMMON_BOUNDED_QUEUE_H_
