// Batched-dispatch tests: BoundedQueue::popMany semantics, the
// IkSolver::solveMany burst loop on QuickIkSolver, and the IkService
// batch coalescer's contract — batching changes amortization, never
// per-request semantics.  The load-bearing claims:
//
//   - popMany is FIFO and keeps serving a closed queue until drained,
//   - burst solves are bit-identical to sequential solve() calls, and
//     each lane's solve_ms times its own solve only,
//   - a service returns the bit-identical results of a direct solve()
//     on the same workload, in bursts of one and coalesced bursts,
//   - deadlines retire individual lanes (expired-at-pickup and
//     in-flight watchdog) without stalling batchmates,
//   - a fault-injected lane fails alone; batchmates solve, and the
//     exactly-one-outcome accounting holds.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dadu/fault/fault.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/service/queue.hpp"
#include "dadu/sim/sim_clock.hpp"
#include "dadu/sim/sim_executor.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::service {
namespace {

using namespace std::chrono_literals;

Job taggedJob(int tag) {
  Job job;
  job.enqueued = std::chrono::steady_clock::now();
  job.request.deadline_ms = tag;  // tag to check ordering
  return job;
}

// ---------------------------------------------------- BoundedQueue

TEST(BoundedQueuePopMany, FifoAcrossBursts) {
  BoundedQueue q(16);
  for (int i = 0; i < 10; ++i)
    ASSERT_EQ(q.tryPush(taggedJob(i)), PushResult::kAccepted);

  std::vector<Job> burst;
  int next = 0;
  while (next < 10) {
    const std::size_t got = q.popMany(burst, 4, 0us);
    ASSERT_GT(got, 0u);
    ASSERT_LE(got, 4u);
    for (const Job& job : burst) EXPECT_EQ(job.request.deadline_ms, next++);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueuePopMany, CapsAtMaxItems) {
  BoundedQueue q(16);
  for (int i = 0; i < 7; ++i)
    ASSERT_EQ(q.tryPush(taggedJob(i)), PushResult::kAccepted);
  std::vector<Job> burst;
  EXPECT_EQ(q.popMany(burst, 3, 0us), 3u);
  EXPECT_EQ(q.size(), 4u);
}

TEST(BoundedQueuePopMany, DrainsAfterCloseThenReturnsZero) {
  // Closed-but-nonempty keeps serving, closed and empty returns 0 — so
  // shutdown drains finish every queued job.
  BoundedQueue q(8);
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(q.tryPush(taggedJob(i)), PushResult::kAccepted);
  q.close();

  std::vector<Job> burst;
  EXPECT_EQ(q.popMany(burst, 8, 500us), 5u);  // linger must not block on closed
  for (int i = 0; i < 5; ++i) EXPECT_EQ(burst[i].request.deadline_ms, i);
  EXPECT_EQ(q.popMany(burst, 8, 500us), 0u);
  EXPECT_TRUE(burst.empty());
}

TEST(BoundedQueuePopMany, BlocksUntilWorkOrClose) {
  BoundedQueue q(8);
  std::vector<Job> burst;
  std::promise<std::size_t> got;
  std::thread consumer(
      [&] { got.set_value(q.popMany(burst, 4, 0us)); });
  std::this_thread::sleep_for(20ms);
  ASSERT_EQ(q.tryPush(taggedJob(42)), PushResult::kAccepted);
  auto f = got.get_future();
  ASSERT_EQ(f.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(f.get(), 1u);
  EXPECT_EQ(burst[0].request.deadline_ms, 42);
  consumer.join();

  std::thread blocked([&] { EXPECT_EQ(q.popMany(burst, 4, 0us), 0u); });
  std::this_thread::sleep_for(20ms);
  q.close();
  blocked.join();
}

TEST(BoundedQueuePopMany, LingerCollectsStragglers) {
  // The coalescing window: a consumer holding an under-filled burst
  // takes arrivals that land inside max_wait and returns full.
  BoundedQueue q(8);
  ASSERT_EQ(q.tryPush(taggedJob(0)), PushResult::kAccepted);
  std::vector<Job> burst;
  std::thread consumer([&] {
    // Generous window so the test is not timing-sensitive; returns as
    // soon as the burst fills, long before the window expires.
    EXPECT_EQ(q.popMany(burst, 3, std::chrono::microseconds(5'000'000)), 3u);
  });
  std::this_thread::sleep_for(20ms);
  ASSERT_EQ(q.tryPush(taggedJob(1)), PushResult::kAccepted);
  ASSERT_EQ(q.tryPush(taggedJob(2)), PushResult::kAccepted);
  consumer.join();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(burst[i].request.deadline_ms, i);
}

// ------------------------------------------------- solver bursts

ik::SolveOptions fastOptions() {
  ik::SolveOptions options;
  options.accuracy = 1e-3;
  options.max_iterations = 300;
  options.speculations = 8;
  return options;
}

TEST(QuickIkSolveMany, BitIdenticalToSequentialSolves) {
  const auto chain = kin::makeSerpentine(10);
  const auto tasks = workload::generateTasks(chain, 24);

  ik::QuickIkSolver sequential(chain, fastOptions());
  ik::QuickIkSolver batched(chain, fastOptions());

  std::vector<ik::BatchLane> lanes;
  for (const auto& task : tasks) lanes.push_back({task.target, &task.seed, {}});
  std::vector<ik::BatchLaneResult> outcomes(lanes.size());
  batched.solveMany(lanes.data(), outcomes.data(), lanes.size());

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const ik::SolveResult expected =
        sequential.solve(tasks[i].target, tasks[i].seed);
    ASSERT_FALSE(outcomes[i].error) << i;
    const ik::SolveResult& got = outcomes[i].result;
    EXPECT_EQ(got.theta, expected.theta) << i;
    EXPECT_EQ(got.error, expected.error) << i;
    EXPECT_EQ(got.status, expected.status) << i;
    EXPECT_EQ(got.iterations, expected.iterations) << i;
    EXPECT_EQ(got.fk_evaluations, expected.fk_evaluations) << i;
    EXPECT_GT(outcomes[i].solve_ms, 0.0) << i;
  }
}

TEST(QuickIkSolveMany, InvalidLaneFailsAloneInFusedBatch) {
  const auto chain = kin::makeSerpentine(10);
  const auto tasks = workload::generateTasks(chain, 4);
  ik::QuickIkSolver solver(chain, fastOptions());

  linalg::VecX bad_seed(3);  // wrong dof — validateInputs throws
  std::vector<ik::BatchLane> lanes;
  for (const auto& task : tasks) lanes.push_back({task.target, &task.seed, {}});
  lanes[1].seed = &bad_seed;

  std::vector<ik::BatchLaneResult> outcomes(lanes.size());
  solver.solveMany(lanes.data(), outcomes.data(), lanes.size());

  EXPECT_TRUE(outcomes[1].error);
  for (std::size_t i : {0u, 2u, 3u}) {
    ASSERT_FALSE(outcomes[i].error) << i;
    EXPECT_TRUE(outcomes[i].result.converged()) << i;
  }
}

TEST(QuickIkSolveMany, LaneSolveMsCoversOnlyItsOwnSolve) {
  // A 50 ms stall in lane 0's first iteration must not be billed to
  // its batchmates: solve_ms is each lane's own solve time, not the
  // time since the burst started.
  const auto chain = kin::makeSerpentine(10);
  const auto tasks = workload::generateTasks(chain, 4);
  ik::QuickIkSolver solver(chain, fastOptions());

  fault::FaultPlan plan;
  plan.delayAt("solver.iterate", 50.0, {.nth = 1});
  fault::ScopedFaultPlan armed(plan);

  std::vector<ik::BatchLane> lanes;
  for (const auto& task : tasks) lanes.push_back({task.target, &task.seed, {}});
  std::vector<ik::BatchLaneResult> outcomes(lanes.size());
  solver.solveMany(lanes.data(), outcomes.data(), lanes.size());

  for (std::size_t i = 0; i < lanes.size(); ++i) ASSERT_FALSE(outcomes[i].error);
  EXPECT_GE(outcomes[0].solve_ms, 50.0);
  for (std::size_t i = 1; i < lanes.size(); ++i)
    EXPECT_LT(outcomes[i].solve_ms, 50.0) << "lane " << i;
}

// --------------------------------------------- service batch path

Request plainRequest(const kin::Chain& chain, std::uint32_t index) {
  const auto task = workload::generateTask(chain, index);
  Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = false;
  return request;
}

TEST(ServiceBatch, BatchedResponsesBitIdenticalToPerRequest) {
  // Bursts of one and coalesced bursts must both return exactly what a
  // direct QuickIkSolver::solve computes on the same (target, seed).
  const auto chain = kin::makeSerpentine(8);
  constexpr std::uint32_t kRequests = 48;

  const auto run = [&](std::size_t max_batch, std::uint32_t batch_wait_us) {
    ServiceConfig config;
    config.workers = 1;
    config.queue_capacity = kRequests;
    config.enable_seed_cache = false;  // identical inputs lane by lane
    config.max_batch = max_batch;
    config.batch_wait_us = batch_wait_us;
    IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                  config);
    std::vector<std::future<Response>> futures;
    for (std::uint32_t i = 0; i < kRequests; ++i)
      futures.push_back(svc.submit(plainRequest(chain, i)));
    std::vector<Response> responses;
    for (auto& f : futures) responses.push_back(f.get());
    return responses;
  };

  ik::QuickIkSolver direct(chain, {});
  const auto bits = [](const linalg::VecX& theta) {
    std::vector<std::uint64_t> out;
    for (std::size_t j = 0; j < theta.size(); ++j)
      out.push_back(std::bit_cast<std::uint64_t>(theta[j]));
    return out;
  };
  for (const auto& [max_batch, wait_us] :
       {std::pair<std::size_t, std::uint32_t>{1, 0}, {8, 100}}) {
    const auto responses = run(max_batch, wait_us);
    ASSERT_EQ(responses.size(), kRequests);
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      const Request request = plainRequest(chain, i);
      const ik::SolveResult expected =
          direct.solve(request.target, request.seed);
      const Response& got = responses[i];
      ASSERT_EQ(got.status, ResponseStatus::kSolved)
          << "max_batch " << max_batch << " request " << i;
      EXPECT_EQ(got.result.status, expected.status) << max_batch << "/" << i;
      EXPECT_EQ(got.result.iterations, expected.iterations)
          << max_batch << "/" << i;
      EXPECT_EQ(bits(got.result.theta), bits(expected.theta))
          << max_batch << "/" << i;
    }
  }
}

TEST(ServiceBatch, ExpiredLanesDropWhileBatchmatesSolve) {
  // Executor-mode rewrite of what used to be a real-sleep gate: all 8
  // requests are queued before the single cooperative worker takes its
  // first step, so they form one burst, and a *virtual* 80ms pickup
  // stall expires the two 5ms-deadline lanes at pickup while their
  // batchmates still solve.  No sleeps, no timing margins — the stall
  // charges the SimClock, and pickup-time deadline arithmetic reads
  // the same clock.
  const auto chain = kin::makeSerpentine(8);
  sim::SimClock clock;
  sim::SimExecutor exec(clock, 1);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.enable_seed_cache = false;
  config.max_batch = 8;
  config.batch_wait_us = 0;
  config.stat_shards = 1;
  config.clock = &clock;
  config.executor = &exec;
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); }, config);

  fault::FaultPlan plan;
  plan.delayAt("service.worker.stall", 80.0, {.nth = 1});
  fault::ScopedFaultPlan armed(plan);

  std::vector<Response> responses(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    Request request = plainRequest(chain, i);
    if (i == 2 || i == 5) request.deadline_ms = 5.0;  // expires in the stall
    svc.submit(std::move(request),
               [&responses, i](Response r) { responses[i] = std::move(r); });
  }
  exec.drain();

  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(responses[i].status, ResponseStatus::kDeadlineExceeded) << i;
    } else {
      EXPECT_EQ(responses[i].status, ResponseStatus::kSolved) << i;
      EXPECT_TRUE(responses[i].result.converged()) << i;
    }
  }

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.deadline_expired, 2u);
  EXPECT_EQ(stats.solved, 6u);
  EXPECT_EQ(stats.batched_lanes, 8u);
  EXPECT_EQ(stats.batches, 1u);  // one full deterministic burst
  EXPECT_EQ(stats.accounted(), stats.submitted);
}

TEST(ServiceBatch, InFlightDeadlineTimesOutOneLaneNotItsBatchmates) {
  // One lane gets an unreachable target, a deadline, and a huge
  // iteration budget: the watchdog must retire it (kTimedOut,
  // best-so-far theta) while batchmates converge normally.
  //
  // Stays on the real clock deliberately: the watchdog races actual
  // solver compute against the deadline, and a real solve cannot
  // advance a SimClock — this is the one batch behaviour the sim seam
  // cannot carry.
  const auto chain = kin::makeSerpentine(8);
  ik::SolveOptions options;
  options.accuracy = 1e-3;
  options.max_iterations = 5'000'000;  // deadline, not budget, ends it
  options.speculations = 8;
  // Projected descent: the monotone stall guard is exempt, so the
  // unreachable lane grinds at the joint-limit boundary until the
  // watchdog fires instead of retiring early as kStalled.
  options.clamp_to_limits = true;

  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.enable_seed_cache = false;
  config.max_batch = 8;
  config.batch_wait_us = 0;
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, options); },
                config);

  fault::FaultPlan plan;
  plan.delayAt("service.worker.stall", 50.0, {.nth = 1});
  fault::ScopedFaultPlan armed(plan);

  auto gate = svc.submit(plainRequest(chain, 0));
  std::this_thread::sleep_for(10ms);

  std::vector<std::future<Response>> futures;
  for (std::uint32_t i = 1; i < 6; ++i) {
    Request request = plainRequest(chain, i);
    if (i == 3) {
      request.target = {100.0, 100.0, 100.0};  // far outside the workspace
      request.deadline_ms = 200.0;
    }
    futures.push_back(svc.submit(std::move(request)));
  }

  EXPECT_EQ(gate.get().status, ResponseStatus::kSolved);
  for (std::uint32_t i = 1; i < 6; ++i) {
    const Response r = futures[i - 1].get();
    EXPECT_EQ(r.status, ResponseStatus::kSolved) << i;
    if (i == 3) {
      EXPECT_EQ(r.result.status, ik::Status::kTimedOut);
      EXPECT_EQ(r.result.theta.size(), chain.dof());  // best-so-far iterate
    } else {
      EXPECT_TRUE(r.result.converged()) << i;
    }
  }
  EXPECT_EQ(svc.stats().timed_out, 1u);
}

TEST(ServiceBatch, FaultedLaneFailsAloneAndIsAccounted) {
  // solver.iterate fires once, inside exactly one lane of a batch: that
  // future must throw, every other lane must solve, and the terminal
  // accounting must balance (exactly one outcome per request).
  const auto chain = kin::makeSerpentine(8);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.enable_seed_cache = false;
  config.max_batch = 8;
  config.batch_wait_us = 200;
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); }, config);

  fault::FaultPlan plan;
  plan.errorAt("solver.iterate", "injected lane fault", {.nth = 1});
  fault::ScopedFaultPlan armed(plan);

  constexpr std::uint32_t kRequests = 8;
  std::vector<std::future<Response>> futures;
  for (std::uint32_t i = 0; i < kRequests; ++i)
    futures.push_back(svc.submit(plainRequest(chain, i)));

  std::size_t solved = 0, threw = 0;
  for (auto& f : futures) {
    try {
      const Response r = f.get();
      EXPECT_EQ(r.status, ResponseStatus::kSolved);
      ++solved;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "injected lane fault");
      ++threw;
    }
  }
  EXPECT_EQ(threw, 1u);
  EXPECT_EQ(solved, kRequests - 1);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.internal_errors, 1u);
  EXPECT_EQ(stats.solved, kRequests - 1);
  EXPECT_EQ(stats.accounted(), stats.submitted);
}

TEST(ServiceBatch, OccupancyHistogramTracksBurstSizes) {
  // Executor mode makes occupancy a scheduling fact instead of a race:
  // all 9 submissions land in the queue before the worker's first
  // dispatch step, so popMany drains a full burst of 8 and then the
  // straggler — no worker-stall fault, no sleeps, no margins.
  const auto chain = kin::makeSerpentine(8);
  sim::SimClock clock;
  sim::SimExecutor exec(clock, 1);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.enable_seed_cache = false;
  config.max_batch = 8;
  config.batch_wait_us = 0;
  config.stat_shards = 1;
  config.clock = &clock;
  config.executor = &exec;
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); }, config);

  std::size_t done = 0;
  for (std::uint32_t i = 0; i < 9; ++i)
    svc.submit(plainRequest(chain, i), [&done](Response) { ++done; });
  exec.drain();
  ASSERT_EQ(done, 9u);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batched_lanes, 9u);
  EXPECT_DOUBLE_EQ(stats.meanBatchOccupancy(), 4.5);
  EXPECT_EQ(stats.batch_occupancy_hist.count, 2u);
  EXPECT_GE(stats.batch_occupancy_hist.p99(), 7.0);
}

}  // namespace
}  // namespace dadu::service
