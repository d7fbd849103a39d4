// Bounded MPMC request queue with backpressure.
//
// The admission-control point of the serving layer: producers tryPush
// and are *never* blocked — a full queue rejects immediately so the
// caller can shed load (the alternative, blocking producers, turns an
// overload into unbounded latency for everyone).  Consumers take bursts:
// popMany() blocks until work arrives or the queue is closed and
// drained; tryPopMany() never waits.
//
// Implementation is a mutex + condition variable around a deque: the
// queue hand-off is microseconds against solves that are hundreds of
// microseconds to milliseconds, so lock-free buys nothing here and a
// mutex keeps the semantics (close/drain interplay) easy to verify —
// and trivially ThreadSanitizer-clean.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "dadu/platform/clock.hpp"
#include "dadu/service/request.hpp"

namespace dadu::service {

/// How a finished job reports back: exactly one invocation per job,
/// from whichever thread finished it (a worker for solved/deadline
/// outcomes, the submitter for admission rejects, the stop() caller
/// for discard drains).  `error` is non-null iff the solver threw — the
/// future submit path rethrows it, the callback path folds it into a
/// Rejected{kInternalError} response.
using JobCompletion = std::function<void(Response&&, std::exception_ptr)>;

/// One queued unit of work: the request, the completion that resolves
/// it, and the submission-time bookkeeping the worker needs.
struct Job {
  Request request;
  JobCompletion finish;
  std::chrono::steady_clock::time_point enqueued{};
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  /// Admitted as a half-open circuit-breaker probe: its fate must be
  /// reported back to the breaker exactly once (success, failure, or
  /// "never executed" = failure).
  bool probe = false;
};

/// Outcome of a push attempt.
enum class PushResult {
  kAccepted,  ///< job is queued
  kFull,      ///< at capacity; job untouched, caller keeps the promise
  kClosed,    ///< queue closed; job untouched
};

class BoundedQueue {
 public:
  /// `capacity` = maximum queued (not yet popped) jobs; at least 1.
  /// `clock` parameterizes the popMany linger deadline (null = real
  /// steady clock).  The blocking waits are only ever exercised with a
  /// real clock: under the deterministic simulation harness consumers
  /// use the non-blocking tryPopMany and the linger is modeled as an
  /// executor timer instead of a parked condition variable.
  explicit BoundedQueue(std::size_t capacity,
                        const platform::Clock* clock = nullptr);

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission: moves from `job` only on kAccepted.
  PushResult tryPush(Job&& job);

  /// Bulk pop: block until at least one job is available (or the queue
  /// is closed and drained — returns 0; closed-but-nonempty queues keep
  /// serving pops so a shutdown can drain), then move up to
  /// `max_items` jobs into `out` in FIFO order.  The whole
  /// burst happens under ONE lock acquisition instead of one per item.
  /// If fewer than `max_items` are on hand and `max_wait` is positive,
  /// lingers up to that long for stragglers (the Nagle-style
  /// coalescing window), taking arrivals as they land and returning
  /// early once full or closed.  A woken consumer always consumes, so
  /// popMany never strands a producer's notify while work is queued.
  /// `out` is cleared first; the return value is out.size().
  std::size_t popMany(std::vector<Job>& out, std::size_t max_items,
                      std::chrono::microseconds max_wait);

  /// Non-blocking bulk pop: move up to `max_items` immediately
  /// available jobs into `out` (cleared first), FIFO, one lock for the
  /// burst.  Returns out.size(); 0 when nothing is queued.  Never
  /// waits — the cooperative-executor spelling of popMany(), with the
  /// linger window modeled by the caller's scheduler.
  std::size_t tryPopMany(std::vector<Job>& out, std::size_t max_items);

  /// Stop accepting pushes and wake every blocked consumer.  Queued
  /// jobs remain poppable.  Idempotent.
  void close();

  /// Remove and return every queued job (used by discard-mode shutdown
  /// to fail pending promises).  Usually preceded by close().
  std::vector<Job> drain();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool closed() const;

 private:
  /// Move up to `max_items` queued jobs onto `out`, FIFO; mutex_ held.
  void takeLocked(std::vector<Job>& out, std::size_t max_items);

  const std::size_t capacity_;
  const platform::Clock* clock_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool closed_ = false;
};

}  // namespace dadu::service
