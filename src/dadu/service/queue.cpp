#include "dadu/service/queue.hpp"

#include <algorithm>
#include <utility>

namespace dadu::service {

BoundedQueue::BoundedQueue(std::size_t capacity, const platform::Clock* clock)
    : capacity_(std::max<std::size_t>(capacity, 1)), clock_(clock) {}

PushResult BoundedQueue::tryPush(Job&& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return PushResult::kClosed;
    if (jobs_.size() >= capacity_) return PushResult::kFull;
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
  return PushResult::kAccepted;
}

std::size_t BoundedQueue::popMany(std::vector<Job>& out,
                                  std::size_t max_items,
                                  std::chrono::microseconds max_wait) {
  out.clear();
  if (max_items == 0) return 0;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
  if (jobs_.empty()) return 0;  // closed and drained
  takeLocked(out, max_items);

  // Coalescing window: whatever was ready went first (no added latency
  // for a deep queue); only an under-filled burst waits for company.
  // Taking immediately before any further wait keeps the usual
  // condition-variable invariant — nobody sleeps while work is queued.
  if (out.size() < max_items && max_wait.count() > 0 && !closed_) {
    const auto deadline = platform::clockNow(clock_) + max_wait;
    while (out.size() < max_items && !closed_) {
      if (!cv_.wait_until(lock, deadline,
                          [&] { return closed_ || !jobs_.empty(); }))
        break;  // window expired with nothing new
      takeLocked(out, max_items);
    }
  }
  return out.size();
}

std::size_t BoundedQueue::tryPopMany(std::vector<Job>& out,
                                     std::size_t max_items) {
  out.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  takeLocked(out, max_items);
  return out.size();
}

void BoundedQueue::takeLocked(std::vector<Job>& out, std::size_t max_items) {
  while (!jobs_.empty() && out.size() < max_items) {
    out.push_back(std::move(jobs_.front()));
    jobs_.pop_front();
  }
}

void BoundedQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<Job> BoundedQueue::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Job> out;
  out.reserve(jobs_.size());
  while (!jobs_.empty()) {
    out.push_back(std::move(jobs_.front()));
    jobs_.pop_front();
  }
  return out;
}

std::size_t BoundedQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

bool BoundedQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace dadu::service
