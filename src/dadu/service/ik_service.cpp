#include "dadu/service/ik_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "dadu/fault/fault.hpp"
#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/platform/timer.hpp"

namespace dadu::service {
namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

IkService::IkService(SolverFactory factory, ServiceConfig config)
    : config_(config),
      factory_(std::move(factory)),
      queue_(config.queue_capacity, config.clock),
      cache_(config.cache),
      breaker_(config.breaker),
      counters_(kCounterCount, config.stat_shards),
      queue_hist_(config.latency),
      solve_hist_(config.latency),
      e2e_hist_(config.latency),
      // Occupancy is a count (1..max_batch), not a latency: a 1..4096
      // ladder at 24 buckets/decade resolves individual small sizes.
      batch_hist_(obs::LatencyHistogram::Config{1.0, 4096.0, 24}) {
  if (!factory_) throw std::invalid_argument("IkService: null factory");
  config_.max_batch = std::max<std::size_t>(config_.max_batch, 1);
  std::size_t workers = config_.workers;
  if (workers == 0)
    workers = std::max(1u, std::thread::hardware_concurrency());
  if (config_.executor) {
    // Cooperative mode: no threads.  Workers are dispatch-step state
    // machines driven by the executor; the vector never reallocates
    // (steps capture indices, not iterators).
    coop_workers_ = std::vector<Worker>(workers);
    return;
  }
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { workerLoop(); });
}

IkService::~IkService() { stop(Drain::kDrainPending); }

std::future<Response> IkService::submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submitInternal(std::move(request),
                 [promise](Response&& response, std::exception_ptr error) {
                   if (error)
                     promise->set_exception(error);
                   else
                     promise->set_value(std::move(response));
                 });
  return future;
}

void IkService::submit(Request request, Completion done) {
  if (!done) throw std::invalid_argument("IkService::submit: null callback");
  submitInternal(
      std::move(request),
      [done = std::move(done)](Response&& response,
                               std::exception_ptr error) mutable {
        if (error) {
          // Callbacks have no exception channel: fold the solver
          // exception into a typed reject so the caller still hears
          // back exactly once.
          Response failed;
          failed.status = ResponseStatus::kRejected;
          failed.reject_reason = RejectReason::kInternalError;
          try {
            std::rethrow_exception(error);
          } catch (const std::exception& e) {
            failed.message = e.what();
          } catch (...) {
            failed.message = "unknown solver exception";
          }
          done(std::move(failed));
        } else {
          done(std::move(response));
        }
      });
}

void IkService::submitInternal(Request request, JobCompletion finish) {
  counters_.add(kSubmitted);

  Job job;
  job.enqueued = now();

  // Overload brownout gate: the breaker fast-rejects while Open and
  // sheds low-priority work while the queue is deep — both *before*
  // the queue is touched, so an overloaded service answers "back off"
  // in microseconds.  Disabled breaker = one branch.
  if (breaker_.enabled()) {
    switch (breaker_.admit(request.priority, queue_.size(), job.enqueued)) {
      case CircuitBreaker::Admit::kAccept:
        break;
      case CircuitBreaker::Admit::kProbe:
        job.probe = true;
        break;
      case CircuitBreaker::Admit::kRejectOpen:
        counters_.add(kRejectedOverloaded);
        rejectNow(finish, RejectReason::kOverloaded);
        return;
      case CircuitBreaker::Admit::kShedLow:
        counters_.add(kShedLowPriority);
        rejectNow(finish, RejectReason::kOverloaded);
        return;
    }
  }

  if (request.deadline_ms > 0.0) {
    job.deadline =
        job.enqueued + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               request.deadline_ms));
    job.has_deadline = true;
  }
  job.request = std::move(request);
  job.finish = std::move(finish);

  switch (queue_.tryPush(std::move(job))) {
    case PushResult::kAccepted:
      // Cooperative mode has no parked threads to notify: posting the
      // dispatch steps here is the notify_one().
      if (config_.executor) scheduleCoopWorkers();
      break;
    case PushResult::kFull:
      // tryPush did not move from `job` — fail its completion here.
      rejectJob(job, RejectReason::kQueueFull);
      break;
    case PushResult::kClosed:
      rejectJob(job, RejectReason::kShutdown);
      break;
  }
}

void IkService::rejectNow(JobCompletion& finish, RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      counters_.add(kRejectedQueueFull);
      break;
    case RejectReason::kShutdown:
      counters_.add(kRejectedShutdown);
      break;
    default:
      break;  // kOverloaded counted at the admission site
  }
  Response response;
  response.status = ResponseStatus::kRejected;
  response.reject_reason = reason;
  finish(std::move(response), nullptr);
}

void IkService::rejectJob(Job& job, RejectReason reason) {
  // A probe that never executes tells the breaker nothing good.
  if (job.probe) breaker_.onProbeResult(false, now());
  rejectNow(job.finish, reason);
}

void IkService::workerLoop() {
  Worker w;
  w.solver = factory_();
  w.solver->setClock(config_.clock);
  const auto wait = std::chrono::microseconds(config_.batch_wait_us);
  while (queue_.popMany(w.scratch.burst, config_.max_batch, wait) > 0)
    runBurst(w);
}

void IkService::runBurst(Worker& w) {
  // Discard-mode shutdown: anything dequeued after the discard flag is
  // up gets rejected, never solved.  Without this check a worker racing
  // stop()'s close()->drain() window could still execute pending work
  // the caller asked to be dropped.
  if (discard_.load(std::memory_order_acquire)) {
    for (Job& job : w.scratch.burst) rejectJob(job, RejectReason::kShutdown);
    return;
  }
  if (!w.solver) {
    w.solver = factory_();
    w.solver->setClock(config_.clock);
  }
  // Every burst goes through processBatch — including singletons, so
  // occupancy stats describe all dispatched work.
  processBatch(*w.solver, w.scratch);
}

void IkService::scheduleCoopWorkers() {
  // Single-threaded by the executor-mode contract: no locking needed
  // around the worker state machines.
  for (std::size_t i = 0; i < coop_workers_.size(); ++i) {
    if (queue_.size() == 0) return;
    Worker& w = coop_workers_[i];
    if (w.busy) {
      // A lingering worker parked on its coalescing timer is woken
      // early the moment a full burst is ready — the discrete-event
      // mirror of popMany's "return early once full".
      if (w.lingering && queue_.size() >= config_.max_batch) {
        w.lingering = false;
        const std::uint64_t gen = ++w.generation;
        config_.executor->post([this, i, gen] { coopStep(i, gen); });
      }
      continue;
    }
    w.busy = true;
    w.lingering = false;
    const std::uint64_t gen = ++w.generation;
    config_.executor->post([this, i, gen] { coopStep(i, gen); });
  }
}

void IkService::coopStep(std::size_t worker, std::uint64_t generation) {
  Worker& w = coop_workers_[worker];
  if (generation != w.generation) return;  // superseded or stopped

  const std::size_t depth = queue_.size();
  if (depth == 0) {
    w.busy = false;
    w.lingering = false;
    return;
  }
  // The Nagle-style coalescing window, modeled as a timer: an
  // under-filled burst parks for batch_wait_us (or until
  // scheduleCoopWorkers wakes it early with a full queue) before
  // taking whatever is on hand.  Same observable semantics as
  // popMany's condition-variable linger — the burst dispatches at
  // linger end, and every lane's queue_ms includes the wait.
  if (!w.lingering && depth < config_.max_batch && config_.batch_wait_us > 0 &&
      !discard_.load(std::memory_order_acquire) && !queue_.closed()) {
    w.lingering = true;
    const std::uint64_t gen = ++w.generation;
    config_.executor->postAt(
        now() + std::chrono::microseconds(config_.batch_wait_us),
        [this, worker, gen] { coopStep(worker, gen); });
    return;
  }
  w.lingering = false;
  if (queue_.tryPopMany(w.scratch.burst, config_.max_batch) == 0) {
    w.busy = false;
    return;
  }
  runBurst(w);

  if (queue_.size() > 0) {
    // Yield through the executor between bursts (rather than looping
    // inline) so submissions and other workers interleave exactly as
    // the scheduler's seed decides.
    const std::uint64_t gen = ++w.generation;
    config_.executor->post([this, worker, gen] { coopStep(worker, gen); });
  } else {
    w.busy = false;
  }
}

void IkService::processBatch(ik::IkSolver& solver, BatchScratch& s) {
  const std::size_t m = s.burst.size();
  counters_.add(kBatches);
  counters_.add(kBatchedLanes, m);
  batch_hist_.record(static_cast<double>(m));
  obs::ObsSink* const sink = config_.sink.get();

  s.live.assign(m, 0);
  s.queue_ms.assign(m, 0.0);
  s.fault_ms.assign(m, 0.0);
  s.from_cache.assign(m, 0);
  if (s.seeds.size() < m) s.seeds.resize(m);

  // Pickup pass, FIFO order: per-lane stall fault, queue-wait stamp,
  // and the queued-past-deadline drop, applied lane by lane before any
  // solving.  The stall fault is a worker pausing between dequeue and
  // the deadline check — what turns a healthy queue wait into an expiry.
  for (std::size_t i = 0; i < m; ++i) {
    Job& job = s.burst[i];
    if (fault::FaultInjector::armed()) fault::inject("service.worker.stall", config_.clock);
    const Clock::time_point picked_up = now();
    s.queue_ms[i] = msBetween(job.enqueued, picked_up);
    if (job.has_deadline && picked_up > job.deadline) {
      counters_.add(kDeadlineExpired);
      if (sink) sink->onCount("deadline_expired", 1);
      if (job.probe) breaker_.onProbeResult(false, picked_up);
      Response response;
      response.status = ResponseStatus::kDeadlineExceeded;
      response.queue_ms = s.queue_ms[i];
      job.finish(std::move(response), nullptr);
      continue;
    }
    s.live[i] = 1;
  }

  // Seed resolution: a cache hit (preferred when allowed), else the
  // explicit seed, else the chain's zero configuration.  Cache-eligible
  // lanes go through one bulk lookupMany (single shard-lock sweep for
  // the whole burst).  The seed-corruption fault fires per hit lane: a
  // poisoned warm-start seed is finite garbage that must degrade to a
  // slow solve, never a crash or a NaN result.
  s.cache_targets.clear();
  s.cache_slots.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (!s.live[i]) continue;
    Job& job = s.burst[i];
    if (config_.enable_seed_cache && job.request.use_seed_cache) {
      s.cache_targets.push_back(job.request.target);
      s.cache_slots.push_back(i);
    } else if (!job.request.seed.empty()) {
      s.seeds[i] = std::move(job.request.seed);
    } else {
      s.seeds[i] = solver.chain().zeroConfiguration();
    }
  }
  if (!s.cache_targets.empty()) {
    const std::size_t queries = s.cache_targets.size();
    if (s.cache_hits.size() < queries) s.cache_hits.resize(queries);
    if (s.probe_seeds.size() < queries) s.probe_seeds.resize(queries);
    cache_.lookupMany(s.cache_targets.data(), queries, s.probe_seeds.data(),
                      s.cache_hits.data());
    for (std::size_t c = 0; c < queries; ++c) {
      const std::size_t i = s.cache_slots[c];
      Job& job = s.burst[i];
      if (s.cache_hits[c]) {
        s.seeds[i] = s.probe_seeds[c];
        s.from_cache[i] = 1;
        if (fault::FaultInjector::armed()) {
          const fault::Decision d = fault::decide("service.seed_cache.seed");
          if (d.action == fault::Action::kCorrupt)
            fault::corruptDoubles(s.seeds[i].data(), s.seeds[i].size(),
                                  d.corrupt_seed);
        }
      } else if (!job.request.seed.empty()) {
        s.seeds[i] = std::move(job.request.seed);
      } else {
        s.seeds[i] = solver.chain().zeroConfiguration();
      }
    }
  }

  // Pre-solve fault point, per lane: a throw here takes the exact
  // internal-error path a solver throw takes, without touching its
  // batchmates; a delay is charged to the lane's solve_ms below.
  if (fault::FaultInjector::armed()) {
    for (std::size_t i = 0; i < m; ++i) {
      if (!s.live[i]) continue;
      platform::WallTimer fault_timer(config_.clock);
      try {
        fault::inject("service.worker.solve", config_.clock);
      } catch (...) {
        Job& job = s.burst[i];
        if (job.probe) breaker_.onProbeResult(false, now());
        counters_.add(kInternalErrors);
        Response failed;
        job.finish(std::move(failed), std::current_exception());
        s.live[i] = 0;
        continue;
      }
      s.fault_ms[i] = fault_timer.elapsedMs();
    }
  }

  // Solve: every surviving lane goes through one solveMany call, which
  // runs one solve() per lane with that lane's deadline arming the
  // solver watchdog, so a runaway solve surfaces kTimedOut with its
  // best-so-far iterate.  Each lane's solve_ms is its own solve only.
  s.lanes.clear();
  s.lane_job.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (!s.live[i]) continue;
    Job& job = s.burst[i];
    s.lanes.push_back({job.request.target, &s.seeds[i],
                       job.has_deadline ? job.deadline : Clock::time_point{}});
    s.lane_job.push_back(i);
  }
  if (s.lanes.empty()) return;
  if (s.outcomes.size() < s.lanes.size()) s.outcomes.resize(s.lanes.size());
  solver.solveMany(s.lanes.data(), s.outcomes.data(), s.lanes.size());

  // Retirement pass: per-lane bookkeeping — cache insert, breaker
  // verdicts, counters, histograms, sink spans, and exactly one
  // completion per lane.  Solver exceptions (seed-size mismatch,
  // non-finite target) surface through the lane's completion.
  for (std::size_t lane = 0; lane < s.lane_job.size(); ++lane) {
    const std::size_t i = s.lane_job[lane];
    Job& job = s.burst[i];
    ik::BatchLaneResult& outcome = s.outcomes[lane];
    const double queue_ms = s.queue_ms[i];

    if (outcome.error) {
      if (job.probe) breaker_.onProbeResult(false, now());
      counters_.add(kInternalErrors);
      Response failed;
      job.finish(std::move(failed), outcome.error);
      continue;
    }

    ik::SolveResult result = std::move(outcome.result);
    const double solve_ms = outcome.solve_ms + s.fault_ms[i];

    if (result.converged() && config_.enable_seed_cache &&
        job.request.use_seed_cache)
      cache_.insert(job.request.target, result.theta);

    // A probe that ran to a verdict is a success unless the watchdog
    // had to kill it — a timed-out probe means the service is still
    // drowning.
    const bool timed_out = result.status == ik::Status::kTimedOut;
    if (breaker_.enabled()) {
      breaker_.recordSolve(solve_ms, now());
      if (job.probe) breaker_.onProbeResult(!timed_out, now());
    }

    counters_.add(kSolved);
    if (result.converged()) counters_.add(kConverged);
    if (timed_out) counters_.add(kTimedOutSolves);
    counters_.add(kIterations, static_cast<std::uint64_t>(result.iterations));
    counters_.add(kFkEvaluations,
                  static_cast<std::uint64_t>(result.fk_evaluations));
    counters_.add(kSpeculationLoad,
                  static_cast<std::uint64_t>(result.speculation_load));
    queue_hist_.record(queue_ms);
    solve_hist_.record(solve_ms);
    e2e_hist_.record(queue_ms + solve_ms);

    if (sink) {
      sink->onSpan("queue", queue_ms);
      sink->onSpan("solve", solve_ms);
      sink->onCount("iterations", static_cast<std::uint64_t>(result.iterations));
      sink->onCount("fk_evaluations",
                    static_cast<std::uint64_t>(result.fk_evaluations));
      sink->onCount("speculation_load",
                    static_cast<std::uint64_t>(result.speculation_load));
    }

    Response response;
    response.status = ResponseStatus::kSolved;
    response.result = std::move(result);
    response.queue_ms = queue_ms;
    response.solve_ms = solve_ms;
    response.seeded_from_cache = s.from_cache[i] != 0;
    job.finish(std::move(response), nullptr);
  }
}

void IkService::stop(Drain mode) {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stopped_.store(true);
  // Order matters for discard: raise the flag BEFORE closing the
  // queue.  A worker that pops a job after close() then observes
  // discard_ and rejects instead of solving; stop()'s own drain below
  // rejects whatever the workers never touched.  Either way no pending
  // job is executed after a discard stop.
  if (mode == Drain::kDiscardPending)
    discard_.store(true, std::memory_order_release);
  queue_.close();
  if (config_.after_close_hook) config_.after_close_hook();
  if (mode == Drain::kDiscardPending) {
    for (Job& job : queue_.drain())
      rejectJob(job, RejectReason::kShutdown);
  }
  if (config_.executor) {
    // Cooperative mode: no threads to join.  Invalidate every posted
    // dispatch step (a stale step firing after stop must be a no-op),
    // then finish whatever is still queued inline — drain semantics
    // solve it, discard already rejected it above.
    for (Worker& w : coop_workers_) {
      ++w.generation;
      w.busy = false;
      w.lingering = false;
    }
    if (mode == Drain::kDrainPending && !coop_workers_.empty()) {
      Worker& w = coop_workers_[0];
      while (queue_.tryPopMany(w.scratch.burst, config_.max_batch) > 0)
        runBurst(w);
    }
    return;
  }
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

ServiceStats IkService::stats() const {
  const std::vector<std::uint64_t> totals = counters_.snapshot();
  ServiceStats snapshot;
  snapshot.submitted = totals[kSubmitted];
  snapshot.rejected_queue_full = totals[kRejectedQueueFull];
  snapshot.rejected_shutdown = totals[kRejectedShutdown];
  snapshot.rejected_overloaded = totals[kRejectedOverloaded];
  snapshot.shed_low_priority = totals[kShedLowPriority];
  snapshot.deadline_expired = totals[kDeadlineExpired];
  snapshot.solved = totals[kSolved];
  snapshot.converged = totals[kConverged];
  snapshot.timed_out = totals[kTimedOutSolves];
  snapshot.internal_errors = totals[kInternalErrors];
  snapshot.total_iterations = static_cast<long long>(totals[kIterations]);
  snapshot.total_fk_evaluations =
      static_cast<long long>(totals[kFkEvaluations]);
  snapshot.total_speculation_load =
      static_cast<long long>(totals[kSpeculationLoad]);
  snapshot.batches = totals[kBatches];
  snapshot.batched_lanes = totals[kBatchedLanes];

  snapshot.queue_hist = queue_hist_.snapshot();
  snapshot.solve_hist = solve_hist_.snapshot();
  snapshot.e2e_hist = e2e_hist_.snapshot();
  snapshot.batch_occupancy_hist = batch_hist_.snapshot();
  snapshot.total_queue_ms = snapshot.queue_hist.sum;
  snapshot.total_solve_ms = snapshot.solve_hist.sum;

  snapshot.breaker = breaker_.snapshot();
  snapshot.spec_backend = kin::activeSpecBackendName();

  const SeedCacheStats cache = cache_.stats();
  snapshot.cache_hits = cache.hits;
  snapshot.cache_misses = cache.misses;
  snapshot.cache_inserts = cache.inserts;
  snapshot.cache_evictions = cache.evictions;
  return snapshot;
}

}  // namespace dadu::service
