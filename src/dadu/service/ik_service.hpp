// IkService: a long-lived, asynchronous IK serving layer.
//
// Every pre-existing entry point (IkEngine::solveBatch,
// dadu::solveBatchParallel) is a synchronous one-shot call that spins
// up threads per invocation and forgets everything between calls.  The
// service is the opposite: construct once, submit() any number of
// requests from any number of threads, get a future per request.
//
//   - worker pool: `workers` threads, each owning a private solver
//     built by the caller's factory (solvers carry per-solve
//     workspaces and are not thread-safe by design — same contract as
//     the batch runner);
//   - admission control: a bounded MPMC queue; a full queue rejects at
//     submit() with Rejected{QueueFull} instead of blocking forever;
//   - per-request deadlines: a request still queued past its deadline
//     is dropped unexecuted and reported as DeadlineExceeded;
//   - warm-start seed cache: converged solutions are indexed by
//     workspace target; a request whose target lands near a cached
//     solution is seeded from it (typically collapsing the iteration
//     count) and converged results are inserted back;
//   - observability: counters live in lock-free sharded slots
//     (obs::ShardedCounters), latency distributions in log-bucket
//     histograms (queue / solve / end-to-end) — the submit and solve
//     hot paths take no lock for bookkeeping.  An optional ObsSink
//     receives per-event spans (queue wait, solve) and solver-level
//     counters (iterations, FK evaluations, speculation load).
//
// Completion model: the native submit path takes a completion callback
// invoked exactly once from whichever thread finishes the request (a
// worker, the submitter on admission reject, the stop() caller on a
// discard drain).  Event-driven callers — the dadu_net TCP server —
// use it directly so no thread ever parks on a future; the
// future-returning submit overload is a thin wrapper that fulfills a
// promise from the callback.
//
// Thread-safety contract: submit(), stats(), queueDepth() are safe
// from any thread.  stop() may be called from any one thread (and is
// idempotent); the destructor stops with drain semantics.  Futures may
// be waited on from anywhere; each resolves exactly once.  Completion
// callbacks must be thread-safe with respect to their own captures and
// must not block for long (they run on the worker hot path) nor call
// stop() (deadlock: stop() joins the calling worker).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dadu/obs/histogram.hpp"
#include "dadu/obs/sharded_counters.hpp"
#include "dadu/obs/sink.hpp"
#include "dadu/platform/clock.hpp"
#include "dadu/platform/executor.hpp"
#include "dadu/service/circuit_breaker.hpp"
#include "dadu/service/queue.hpp"
#include "dadu/service/request.hpp"
#include "dadu/service/seed_cache.hpp"
#include "dadu/service/service_stats.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu::service {

/// Factory producing one solver instance per worker.  Called once from
/// each worker thread at startup — it must be safe to invoke
/// concurrently (same contract as the batch runner's factory).
using SolverFactory = std::function<std::unique_ptr<ik::IkSolver>()>;

struct ServiceConfig {
  std::size_t workers = 0;          ///< 0 = hardware concurrency
  std::size_t queue_capacity = 1024;
  bool enable_seed_cache = true;
  SeedCacheConfig cache;
  /// Stat shards for the lock-free counters (0 = sized to hardware
  /// concurrency).  More shards = less cross-worker cache traffic.
  std::size_t stat_shards = 0;
  /// Bucket ladder shared by the queue/solve/end-to-end histograms.
  obs::LatencyHistogram::Config latency;
  /// Optional per-event sink (trace spans + solver counters).  Null =
  /// no per-event overhead beyond one branch.  Must be thread-safe.
  std::shared_ptr<obs::ObsSink> sink;
  /// Overload circuit breaker (disabled by default — zero overhead).
  /// See circuit_breaker.hpp for the state machine and thresholds.
  CircuitBreakerConfig breaker;
  /// Batch coalescer: each worker drains up to `max_batch` queued
  /// requests in one BoundedQueue::popMany, looks their seeds up in
  /// one SeedCache::lookupMany, and solves them with one
  /// IkSolver::solveMany call (one solve() per lane).  1 = bursts of
  /// one.  Per-request semantics are identical either way — same
  /// Response statuses, per-lane deadlines and fault points — batching
  /// only amortizes the queue pop, the cache lookup and the linger.  0
  /// is treated as 1.
  std::size_t max_batch = 1;
  /// Nagle-style coalescing window in microseconds: an under-filled
  /// burst lingers up to this long for stragglers before solving.
  /// Whatever is already queued is taken without any added latency; 0
  /// disables the wait entirely.  Only meaningful with max_batch > 1.
  std::uint32_t batch_wait_us = 0;
  /// Test seam: invoked by stop() between closing the queue and
  /// draining it — the race window the discard path must tolerate.
  /// Never set in production.
  std::function<void()> after_close_hook;
  /// Clock seam (null = real steady clock).  Every timestamp the
  /// service takes — enqueue stamps, deadline arithmetic, breaker
  /// feeds, queue/solve/e2e latencies, the solver watchdog — reads
  /// this clock, so the whole service runs under virtual time when the
  /// deterministic simulation harness provides a SimClock.  Production
  /// cost: one branch + virtual call on paths that already pay a
  /// syscall for the real clock read.
  const platform::Clock* clock = nullptr;
  /// Execution seam (null = OS worker threads, the production path).
  /// With an executor the service spawns NO threads: `workers` becomes
  /// a count of cooperative logical workers whose dispatch steps are
  /// posted as executor tasks, and the popMany linger window becomes a
  /// postAt timer instead of a parked condition variable.  Per-request
  /// semantics (admission, deadlines, breaker, batching, statuses) are
  /// identical.  Single-threaded by contract: submit/stop must be
  /// called from the executor's thread, and the executor must outlive
  /// the service.
  platform::Executor* executor = nullptr;
};

class IkService {
 public:
  /// Starts the worker pool immediately.  Throws std::invalid_argument
  /// on a null factory.
  explicit IkService(SolverFactory factory, ServiceConfig config = {});
  ~IkService();  ///< stop(Drain::kDrainPending)

  IkService(const IkService&) = delete;
  IkService& operator=(const IkService&) = delete;

  /// Completion invoked exactly once per submitted request.  Solver
  /// exceptions arrive as Rejected{kInternalError} with the what() text
  /// in Response::message (callbacks have no exception channel).
  using Completion = std::function<void(Response)>;

  /// Submit one request; never blocks.  The future resolves to a
  /// Response: kSolved once a worker ran the solver, or an immediate
  /// Rejected{QueueFull}/Rejected{Shutdown} when admission fails, or
  /// kDeadlineExceeded if the deadline passed while queued.  Solver
  /// exceptions rethrow from future::get().
  std::future<Response> submit(Request request);

  /// Callback flavour of submit(): identical admission, deadline and
  /// solve semantics (bit-identical Response for the same request),
  /// but the outcome is delivered by invoking `done` instead of
  /// resolving a future — no thread ever blocks waiting.  `done` may
  /// run on the submitting thread (admission rejects) or a worker.
  /// Throws std::invalid_argument on a null callback.
  void submit(Request request, Completion done);

  /// What happens to still-queued requests at stop().
  enum class Drain {
    kDrainPending,    ///< workers finish every queued request first
    kDiscardPending,  ///< queued requests resolve Rejected{Shutdown} now
  };

  /// Close admission, handle queued requests per `mode`, join workers.
  /// Idempotent; concurrent callers serialize, later modes are no-ops.
  /// In-flight solves always run to completion.  In discard mode a
  /// request a worker dequeues after the close is rejected without
  /// solving — pending work is never executed past a discard stop.
  void stop(Drain mode = Drain::kDrainPending);
  bool stopped() const { return stopped_.load(); }

  ServiceStats stats() const;
  /// stats() flattened for the exporters (Prometheus / JSON / text).
  obs::MetricsSnapshot metrics() const { return toMetricsSnapshot(stats()); }
  const SeedCache& seedCache() const { return cache_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  std::size_t workerCount() const {
    return config_.executor ? coop_workers_.size() : workers_.size();
  }
  std::size_t queueDepth() const { return queue_.size(); }
  const ServiceConfig& config() const { return config_; }

 private:
  /// Logical counter ids for the sharded stat slots.
  enum Counter : std::size_t {
    kSubmitted,
    kRejectedQueueFull,
    kRejectedShutdown,
    kRejectedOverloaded,
    kShedLowPriority,
    kDeadlineExpired,
    kSolved,
    kConverged,
    kTimedOutSolves,
    kInternalErrors,
    kIterations,
    kFkEvaluations,
    kSpeculationLoad,
    kBatches,       ///< bursts dispatched
    kBatchedLanes,  ///< requests carried by those bursts
    kCounterCount,
  };

  /// Per-worker scratch for the dispatch path, reused across bursts
  /// so a warm worker allocates nothing per burst.
  struct BatchScratch {
    std::vector<Job> burst;
    std::vector<unsigned char> live;  ///< still headed for the solver
    std::vector<double> queue_ms;
    std::vector<double> fault_ms;  ///< service.worker.solve delay charge
    std::vector<linalg::VecX> seeds;
    std::vector<unsigned char> from_cache;
    std::vector<linalg::Vec3> cache_targets;
    std::vector<std::size_t> cache_slots;
    std::vector<unsigned char> cache_hits;
    std::vector<linalg::VecX> probe_seeds;
    std::vector<ik::BatchLane> lanes;
    std::vector<ik::BatchLaneResult> outcomes;
    std::vector<std::size_t> lane_job;  ///< lane index -> burst index
  };

  /// One worker's state.  A thread worker keeps it on its stack and
  /// builds its solver at startup; a cooperative worker (executor mode)
  /// parks it in coop_workers_ between posted dispatch steps and builds
  /// its solver on its first burst.
  struct Worker {
    std::unique_ptr<ik::IkSolver> solver;
    BatchScratch scratch;
    // Executor mode only.
    bool busy = false;       ///< a step is posted or running
    bool lingering = false;  ///< parked on the batch_wait_us timer
    /// Invalidates stale posted steps (a lingering worker woken early
    /// by a full queue must ignore its original timer firing).
    std::uint64_t generation = 0;
  };

  platform::Clock::time_point now() const {
    return platform::clockNow(config_.clock);
  }

  void submitInternal(Request request, JobCompletion finish);
  void workerLoop();
  /// The one dispatch step every worker runs on the burst it just took
  /// off the queue (w.scratch.burst): reject it after a discard stop,
  /// otherwise solve it through processBatch.
  void runBurst(Worker& w);
  void processBatch(ik::IkSolver& solver, BatchScratch& scratch);
  void rejectNow(JobCompletion& finish, RejectReason reason);
  /// Reject a job that may be a half-open probe: the breaker hears a
  /// probe failure ("never executed"), then the completion fires.
  void rejectJob(Job& job, RejectReason reason);
  /// Executor mode: post dispatch steps for idle workers while work is
  /// queued (and wake a lingering worker once a full burst is ready).
  void scheduleCoopWorkers();
  /// Executor mode: one worker dispatch step — the body of one
  /// workerLoop() wakeup, re-posting itself while work remains.
  void coopStep(std::size_t worker, std::uint64_t generation);

  ServiceConfig config_;
  SolverFactory factory_;
  BoundedQueue queue_;
  SeedCache cache_;
  CircuitBreaker breaker_;
  std::vector<std::thread> workers_;
  std::vector<Worker> coop_workers_;  ///< executor mode only

  std::atomic<bool> stopped_{false};
  /// Discard-mode shutdown: set (before the queue closes) to tell
  /// workers to reject anything they dequeue from then on instead of
  /// solving it.  Fixes the close()->drain() race where a worker could
  /// pop and *solve* a pending job that discard semantics promised to
  /// fail fast.
  std::atomic<bool> discard_{false};
  std::mutex stop_mutex_;  ///< serializes stop() / joins

  // Lock-free statistics: sharded counters + latency histograms, all
  // written with relaxed atomics on the hot path, aggregated in
  // stats().  No mutex anywhere on submit/dispatch.
  obs::ShardedCounters counters_;
  obs::LatencyHistogram queue_hist_;
  obs::LatencyHistogram solve_hist_;
  obs::LatencyHistogram e2e_hist_;
  /// Burst occupancy (requests per dispatched burst): the one
  /// distribution that says whether coalescing is actually happening —
  /// p50 stuck at 1 under load means the window is too short or the
  /// queue never backs up.
  obs::LatencyHistogram batch_hist_;
};

}  // namespace dadu::service
