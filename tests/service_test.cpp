// Serving-layer unit tests: response types, bounded-queue semantics,
// seed-cache index behaviour, and the IkService end-to-end contract
// (admission control, deadlines, shutdown drain/discard, cache
// determinism).  Timing-dependent paths are made deterministic with a
// gated solver: the worker blocks inside solve() until the test opens
// the gate, so queue occupancy is fully controlled.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dadu/obs/sink.hpp"

#include "dadu/kinematics/presets.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/service/queue.hpp"
#include "dadu/service/request.hpp"
#include "dadu/service/seed_cache.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::service {
namespace {

TEST(ResponseTypes, StatusToString) {
  EXPECT_EQ(toString(ResponseStatus::kSolved), "solved");
  EXPECT_EQ(toString(ResponseStatus::kRejected), "rejected");
  EXPECT_EQ(toString(ResponseStatus::kDeadlineExceeded), "deadline-exceeded");
}

TEST(ResponseTypes, RejectReasonToString) {
  EXPECT_EQ(toString(RejectReason::kNone), "none");
  EXPECT_EQ(toString(RejectReason::kQueueFull), "queue-full");
  EXPECT_EQ(toString(RejectReason::kShutdown), "shutdown");
}

TEST(ResponseTypes, DefaultResponseIsNotOk) {
  Response r;
  EXPECT_FALSE(r.ok());
  r.status = ResponseStatus::kSolved;
  EXPECT_FALSE(r.ok());  // solver ran but did not converge
  r.result.status = ik::Status::kConverged;
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------------- queue

Job makeJob() {
  Job job;
  job.enqueued = std::chrono::steady_clock::now();
  return job;
}

TEST(BoundedQueue, FifoPushPop) {
  BoundedQueue q(4);
  for (int i = 0; i < 3; ++i) {
    Job job = makeJob();
    job.request.deadline_ms = i;  // tag to check order
    EXPECT_EQ(q.tryPush(std::move(job)), PushResult::kAccepted);
  }
  EXPECT_EQ(q.size(), 3u);
  std::vector<Job> out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(q.tryPopMany(out, 1), 1u);
    EXPECT_EQ(out[0].request.deadline_ms, i);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.tryPopMany(out, 1), 0u);  // empty: returns, never waits
}

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue q(2);
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kAccepted);
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kAccepted);
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kFull);
  std::vector<Job> out;
  ASSERT_EQ(q.popMany(out, 1, std::chrono::microseconds(0)), 1u);
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kAccepted);  // slot freed
}

TEST(BoundedQueue, CapacityAtLeastOne) {
  BoundedQueue q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kAccepted);
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kFull);
}

TEST(BoundedQueue, ClosedQueueRejectsPushesButDrainsPops) {
  BoundedQueue q(4);
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kAccepted);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.tryPush(makeJob()), PushResult::kClosed);
  std::vector<Job> out;
  const auto no_wait = std::chrono::microseconds(0);
  EXPECT_EQ(q.popMany(out, 1, no_wait), 1u);  // queued job still served
  EXPECT_EQ(q.popMany(out, 1, no_wait), 0u);  // then closed-and-empty
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue q(2);
  std::thread consumer([&] {
    std::vector<Job> out;
    // Must return, not hang.
    EXPECT_EQ(q.popMany(out, 1, std::chrono::microseconds(0)), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(BoundedQueue, DrainReturnsAllPending) {
  BoundedQueue q(8);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(q.tryPush(makeJob()), PushResult::kAccepted);
  q.close();
  const auto drained = q.drain();
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_EQ(q.size(), 0u);
}

// ----------------------------------------------------------- seed cache

TEST(SeedCacheTest, MissOnEmptyAndHitAfterInsert) {
  SeedCache cache;
  linalg::VecX seed;
  EXPECT_FALSE(cache.lookup({0.1, 0.2, 0.3}, seed));
  cache.insert({0.1, 0.2, 0.3}, linalg::VecX{1.0, 2.0});
  EXPECT_TRUE(cache.lookup({0.1, 0.2, 0.3}, seed));
  EXPECT_EQ(seed, (linalg::VecX{1.0, 2.0}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SeedCacheTest, ReturnsNearestOfSeveral) {
  SeedCacheConfig config;
  config.cell_size = 1.0;  // both entries in one cell
  config.max_distance = 1.0;
  SeedCache cache(config);
  cache.insert({0.4, 0.5, 0.5}, linalg::VecX{1.0});
  cache.insert({0.6, 0.5, 0.5}, linalg::VecX{2.0});
  linalg::VecX seed;
  ASSERT_TRUE(cache.lookup({0.61, 0.5, 0.5}, seed));
  EXPECT_EQ(seed, linalg::VecX{2.0});
  ASSERT_TRUE(cache.lookup({0.41, 0.5, 0.5}, seed));
  EXPECT_EQ(seed, linalg::VecX{1.0});
}

TEST(SeedCacheTest, MissBeyondMaxDistance) {
  SeedCacheConfig config;
  config.cell_size = 0.05;
  config.max_distance = 0.05;
  SeedCache cache(config);
  cache.insert({0.0, 0.0, 0.0}, linalg::VecX{1.0});
  linalg::VecX seed;
  EXPECT_FALSE(cache.lookup({0.2, 0.0, 0.0}, seed));
}

TEST(SeedCacheTest, NeighborCellsAreProbed) {
  SeedCacheConfig config;
  config.cell_size = 0.1;
  config.max_distance = 0.05;
  SeedCache cache(config);
  // 0.099 and 0.101 quantize to different cells but are 2 mm apart.
  cache.insert({0.099, 0.0, 0.0}, linalg::VecX{7.0});
  linalg::VecX seed;
  EXPECT_TRUE(cache.lookup({0.101, 0.0, 0.0}, seed));
  EXPECT_EQ(seed, linalg::VecX{7.0});

  config.search_neighbors = false;
  SeedCache home_only(config);
  home_only.insert({0.099, 0.0, 0.0}, linalg::VecX{7.0});
  EXPECT_FALSE(home_only.lookup({0.101, 0.0, 0.0}, seed));
}

TEST(SeedCacheTest, RingReplacementBoundsCellSize) {
  SeedCacheConfig config;
  config.cell_size = 10.0;  // everything lands in one cell
  config.max_entries_per_cell = 3;
  config.max_distance = 10.0;
  SeedCache cache(config);
  for (int i = 0; i < 10; ++i)
    cache.insert({0.1 * i, 0.0, 0.0}, linalg::VecX{static_cast<double>(i)});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().inserts, 10u);
  EXPECT_EQ(cache.stats().evictions, 7u);
}

TEST(SeedCacheTest, HashCollisionsDoNotAliasCells) {
  SeedCacheConfig config;
  config.cell_size = 1.0;
  config.max_distance = 1.0;
  config.max_entries_per_cell = 4;
  config.search_neighbors = false;
  config.hash_bits = 0;  // every cell collides onto a single hash value
  SeedCache cache(config);
  // Fill the rings of two far-apart cells exactly.  When cells were
  // keyed by their 64-bit hash, colliding cells aliased to ONE ring:
  // the second cell's inserts ring-replaced the first cell's entries
  // and lookups could be warm-started from the wrong workspace region.
  for (int i = 0; i < 4; ++i) {
    cache.insert({0.1 + 0.2 * i, 0.5, 0.5},
                 linalg::VecX{static_cast<double>(i)});
    cache.insert({100.1 + 0.2 * i, 0.5, 0.5},
                 linalg::VecX{static_cast<double>(10 + i)});
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  linalg::VecX seed;
  ASSERT_TRUE(cache.lookup({0.1, 0.5, 0.5}, seed));
  EXPECT_EQ(seed, linalg::VecX{0.0});
  ASSERT_TRUE(cache.lookup({100.7, 0.5, 0.5}, seed));
  EXPECT_EQ(seed, linalg::VecX{13.0});
}

TEST(SeedCacheTest, StatsCountHitsAndMisses) {
  SeedCache cache;
  linalg::VecX seed;
  cache.lookup({0, 0, 0}, seed);  // miss
  cache.insert({0, 0, 0}, linalg::VecX{1.0});
  cache.lookup({0, 0, 0}, seed);  // hit
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(SeedCacheTest, ClearDropsEntriesKeepsStats) {
  SeedCache cache;
  cache.insert({0, 0, 0}, linalg::VecX{1.0});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  linalg::VecX seed;
  EXPECT_FALSE(cache.lookup({0, 0, 0}, seed));
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(SeedCacheTest, RejectsBadConfig) {
  SeedCacheConfig config;
  config.cell_size = 0.0;
  EXPECT_THROW(SeedCache{config}, std::invalid_argument);
  config.cell_size = 0.05;
  config.max_distance = -1.0;
  EXPECT_THROW(SeedCache{config}, std::invalid_argument);
}

// ------------------------------------------------------- gated solver

/// Lets a test hold a worker inside solve() until released, with a
/// handshake ("arrived") so the test knows the worker is pinned.
class Gate {
 public:
  void waitUntilOpen() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void awaitArrivals(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

/// Trivial solver that blocks on the gate, then "converges" at the
/// seed.  Keeps service tests independent of real solver runtimes.
class GatedSolver : public ik::IkSolver {
 public:
  GatedSolver(kin::Chain chain, std::shared_ptr<Gate> gate)
      : chain_(std::move(chain)), gate_(std::move(gate)) {}

  ik::SolveResult solve(const linalg::Vec3&, const linalg::VecX& seed) override {
    if (gate_) gate_->waitUntilOpen();
    ik::SolveResult r;
    r.status = ik::Status::kConverged;
    r.iterations = 1;
    r.theta = seed;
    return r;
  }
  std::string name() const override { return "gated"; }
  const kin::Chain& chain() const override { return chain_; }
  const ik::SolveOptions& options() const override { return options_; }

 private:
  kin::Chain chain_;
  std::shared_ptr<Gate> gate_;
  ik::SolveOptions options_;
};

SolverFactory gatedFactory(const kin::Chain& chain,
                           std::shared_ptr<Gate> gate) {
  return [chain, gate] { return std::make_unique<GatedSolver>(chain, gate); };
}

ServiceConfig smallConfig(std::size_t workers, std::size_t capacity,
                          bool cache = false) {
  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = capacity;
  config.enable_seed_cache = cache;
  return config;
}

// ------------------------------------------------------------ service

TEST(IkServiceTest, NullFactoryThrows) {
  EXPECT_THROW(IkService(nullptr, {}), std::invalid_argument);
}

TEST(IkServiceTest, SolvesAndMatchesDirectSolver) {
  const auto chain = kin::makeSerpentine(8);
  const auto task = workload::generateTask(chain, 0);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(2, 16));
  auto future = svc.submit({.target = task.target, .seed = task.seed});
  const Response r = future.get();
  ASSERT_EQ(r.status, ResponseStatus::kSolved);
  EXPECT_TRUE(r.ok());
  EXPECT_GE(r.queue_ms, 0.0);
  EXPECT_GT(r.solve_ms, 0.0);
  EXPECT_FALSE(r.seeded_from_cache);

  const auto direct =
      ik::makeSolver("quick-ik", chain, {})->solve(task.target, task.seed);
  EXPECT_EQ(r.result.theta, direct.theta);
  EXPECT_EQ(r.result.iterations, direct.iterations);
}

TEST(IkServiceTest, EmptySeedMeansZeroConfiguration) {
  const auto chain = kin::makeSerpentine(6);
  const auto task = workload::generateTask(chain, 1);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(1, 4));
  Request request;
  request.target = task.target;  // seed left empty on purpose
  const Response r = svc.submit(std::move(request)).get();
  ASSERT_EQ(r.status, ResponseStatus::kSolved);
  const auto direct = ik::makeSolver("quick-ik", chain, {})
                          ->solve(task.target, chain.zeroConfiguration());
  EXPECT_EQ(r.result.theta, direct.theta);
}

TEST(IkServiceTest, QueueFullRejectsImmediately) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  IkService svc(gatedFactory(chain, gate), smallConfig(1, 1));

  // Pin the single worker, then fill the single queue slot.
  auto in_flight = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});
  gate->awaitArrivals(1);
  auto queued = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});

  auto rejected = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});
  const Response r = rejected.get();  // resolved without any worker
  EXPECT_EQ(r.status, ResponseStatus::kRejected);
  EXPECT_EQ(r.reject_reason, RejectReason::kQueueFull);

  gate->open();
  EXPECT_EQ(in_flight.get().status, ResponseStatus::kSolved);
  EXPECT_EQ(queued.get().status, ResponseStatus::kSolved);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.solved, 2u);
}

TEST(IkServiceTest, ExpiredDeadlineIsDroppedBeforeSolving) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  IkService svc(gatedFactory(chain, gate), smallConfig(1, 8));

  auto in_flight = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});
  gate->awaitArrivals(1);
  auto doomed = svc.submit(
      {.target = {0.5, 0, 0}, .seed = linalg::VecX(3), .deadline_ms = 1.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate->open();

  EXPECT_EQ(in_flight.get().status, ResponseStatus::kSolved);
  const Response r = doomed.get();
  EXPECT_EQ(r.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_GT(r.queue_ms, 0.0);
  EXPECT_EQ(r.solve_ms, 0.0);
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(IkServiceTest, GenerousDeadlineIsMet) {
  const auto chain = kin::makeSerpentine(6);
  const auto task = workload::generateTask(chain, 2);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(1, 4));
  const Response r = svc.submit({.target = task.target,
                                 .seed = task.seed,
                                 .deadline_ms = 60'000.0})
                         .get();
  EXPECT_EQ(r.status, ResponseStatus::kSolved);
}

TEST(IkServiceTest, StopDrainsPendingRequests) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  IkService svc(gatedFactory(chain, gate), smallConfig(1, 8));

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(
        svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)}));
  gate->awaitArrivals(1);
  gate->open();
  svc.stop(IkService::Drain::kDrainPending);

  for (auto& f : futures) EXPECT_EQ(f.get().status, ResponseStatus::kSolved);
  EXPECT_TRUE(svc.stopped());
}

TEST(IkServiceTest, StopDiscardsPendingRequestsOnRequest) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  IkService svc(gatedFactory(chain, gate), smallConfig(1, 8));

  auto in_flight = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});
  gate->awaitArrivals(1);  // worker pinned: nothing else can be popped
  auto pending_a = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});
  auto pending_b = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});

  std::thread stopper([&] { svc.stop(IkService::Drain::kDiscardPending); });
  // Discard resolves queued promises before joining workers, so these
  // futures are ready while the worker is still pinned.
  EXPECT_EQ(pending_a.get().reject_reason, RejectReason::kShutdown);
  EXPECT_EQ(pending_b.get().reject_reason, RejectReason::kShutdown);
  gate->open();
  stopper.join();

  EXPECT_EQ(in_flight.get().status, ResponseStatus::kSolved);
  EXPECT_EQ(svc.stats().rejected_shutdown, 2u);
}

TEST(IkServiceTest, SubmitAfterStopIsRejected) {
  const auto chain = kin::makePlanar(3);
  IkService svc(gatedFactory(chain, nullptr), smallConfig(1, 4));
  svc.stop();
  const Response r =
      svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)}).get();
  EXPECT_EQ(r.status, ResponseStatus::kRejected);
  EXPECT_EQ(r.reject_reason, RejectReason::kShutdown);
  svc.stop();  // idempotent
}

TEST(IkServiceTest, SolverExceptionSurfacesThroughFuture) {
  const auto chain = kin::makeSerpentine(6);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(1, 4));
  // Wrong seed size: the solver throws; the future must carry it.
  auto future = svc.submit(
      {.target = {0.5, 0, 0}, .seed = linalg::VecX(2), .use_seed_cache = false});
  EXPECT_THROW(future.get(), std::invalid_argument);
}

TEST(IkServiceTest, CacheWarmStartsRepeatedTargets) {
  const auto chain = kin::makeSerpentine(8);
  const auto task = workload::generateTask(chain, 3);
  ServiceConfig config = smallConfig(1, 8, /*cache=*/true);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); }, config);

  const Response cold = svc.submit({.target = task.target, .seed = task.seed}).get();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.seeded_from_cache);

  const Response warm = svc.submit({.target = task.target, .seed = task.seed}).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.seeded_from_cache);
  // Seeded at the previous solution the solver starts converged (or
  // nearly so) — never worse than the cold solve.
  EXPECT_LE(warm.result.iterations, cold.result.iterations);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_inserts, 2u);
  EXPECT_GT(stats.cacheHitRate(), 0.0);
}

TEST(IkServiceTest, OptOutRequestsBypassTheCache) {
  const auto chain = kin::makeSerpentine(8);
  const auto task = workload::generateTask(chain, 4);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(1, 8, /*cache=*/true));
  svc.submit({.target = task.target, .seed = task.seed}).get();
  const Response again = svc.submit({.target = task.target,
                                     .seed = task.seed,
                                     .use_seed_cache = false})
                             .get();
  EXPECT_FALSE(again.seeded_from_cache);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
}

TEST(IkServiceTest, SingleWorkerCachedStreamIsDeterministic) {
  const auto chain = kin::makeSerpentine(10);
  const auto tasks = workload::generateClusteredTasks(chain, 24, 4);

  const auto run = [&] {
    IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                  smallConfig(1, 64, /*cache=*/true));
    std::vector<std::future<Response>> futures;
    futures.reserve(tasks.size());
    for (const auto& task : tasks)
      futures.push_back(svc.submit({.target = task.target, .seed = task.seed}));
    std::vector<Response> responses;
    responses.reserve(futures.size());
    for (auto& f : futures) responses.push_back(f.get());
    return responses;
  };

  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << i;
    EXPECT_EQ(a[i].seeded_from_cache, b[i].seeded_from_cache) << i;
    EXPECT_EQ(a[i].result.theta, b[i].result.theta) << i;
    EXPECT_EQ(a[i].result.iterations, b[i].result.iterations) << i;
  }
}

TEST(IkServiceTest, StatsSnapshotIsConsistent) {
  const auto chain = kin::makeSerpentine(6);
  const auto tasks = workload::generateTasks(chain, 6);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(2, 16));
  std::vector<std::future<Response>> futures;
  for (const auto& task : tasks)
    futures.push_back(svc.submit({.target = task.target, .seed = task.seed}));
  for (auto& f : futures) f.get();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, tasks.size());
  EXPECT_EQ(stats.solved, tasks.size());
  EXPECT_EQ(stats.converged, stats.solved);
  EXPECT_GT(stats.total_iterations, 0);
  EXPECT_GT(stats.meanSolveMs(), 0.0);
  EXPECT_GE(stats.meanQueueMs(), 0.0);
  EXPECT_DOUBLE_EQ(stats.convergenceRate(), 1.0);
}

TEST(IkServiceTest, DiscardStopNeverSolvesJobsDequeuedAfterClose) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  // The after_close_hook runs inside stop() between closing the queue
  // and draining it — exactly the race window.  It releases the pinned
  // worker and then waits for the still-queued job's future, forcing
  // the worker (not the drain) to consume that job.  Before the
  // discard_ flag the worker would *solve* it, violating discard
  // semantics; now it must reject with kShutdown.
  auto pending = std::make_shared<std::shared_future<Response>>();
  ServiceConfig config = smallConfig(1, 8);
  config.after_close_hook = [gate, pending] {
    gate->open();
    pending->wait();
  };
  IkService svc(gatedFactory(chain, gate), config);

  auto in_flight = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});
  gate->awaitArrivals(1);  // worker pinned inside solve()
  *pending =
      svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)}).share();

  svc.stop(IkService::Drain::kDiscardPending);

  EXPECT_EQ(in_flight.get().status, ResponseStatus::kSolved);
  const Response r = pending->get();
  EXPECT_EQ(r.status, ResponseStatus::kRejected);
  EXPECT_EQ(r.reject_reason, RejectReason::kShutdown);
  EXPECT_EQ(svc.stats().rejected_shutdown, 1u);
}

TEST(IkServiceTest, LatencyHistogramsCoverEverySolve) {
  const auto chain = kin::makeSerpentine(6);
  const auto tasks = workload::generateTasks(chain, 8);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(2, 16));
  std::vector<std::future<Response>> futures;
  for (const auto& task : tasks)
    futures.push_back(svc.submit({.target = task.target, .seed = task.seed}));
  for (auto& f : futures) f.get();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.queue_hist.count, tasks.size());
  EXPECT_EQ(stats.solve_hist.count, tasks.size());
  EXPECT_EQ(stats.e2e_hist.count, tasks.size());
  // The mean-latency totals are the histogram sums — one source of
  // truth, no second accumulator to fall out of sync.
  EXPECT_DOUBLE_EQ(stats.total_solve_ms, stats.solve_hist.sum);
  EXPECT_DOUBLE_EQ(stats.total_queue_ms, stats.queue_hist.sum);
  EXPECT_GT(stats.solve_hist.p50(), 0.0);
  EXPECT_LE(stats.solve_hist.p50(), stats.solve_hist.p99());
  // End-to-end dominates solve sample-by-sample, so also in the sums.
  EXPECT_GE(stats.e2e_hist.sum, stats.solve_hist.sum);
  EXPECT_GE(stats.e2e_hist.max, stats.solve_hist.max);
}

TEST(IkServiceTest, SinkReceivesSpansAndSolverCounters) {
  const auto chain = kin::makeSerpentine(6);
  const auto tasks = workload::generateTasks(chain, 4);
  auto sink = std::make_shared<obs::RecordingSink>();
  ServiceConfig config = smallConfig(1, 16);
  config.sink = sink;
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); }, config);
  std::vector<std::future<Response>> futures;
  for (const auto& task : tasks)
    futures.push_back(svc.submit({.target = task.target, .seed = task.seed}));
  for (auto& f : futures) f.get();

  EXPECT_EQ(sink->spanCount("queue"), tasks.size());
  EXPECT_EQ(sink->spanCount("solve"), tasks.size());
  const auto stats = svc.stats();
  EXPECT_EQ(sink->countTotal("iterations"),
            static_cast<std::uint64_t>(stats.total_iterations));
  EXPECT_EQ(sink->countTotal("fk_evaluations"),
            static_cast<std::uint64_t>(stats.total_fk_evaluations));
  EXPECT_EQ(sink->countTotal("speculation_load"),
            static_cast<std::uint64_t>(stats.total_speculation_load));
}

// ------------------------------------------- completion-callback API

/// Collects one callback Response and lets the test wait for it.
struct CallbackSlot {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Response response;

  IkService::Completion completion() {
    return [this](Response r) {
      std::lock_guard<std::mutex> lock(mutex);
      response = std::move(r);
      done = true;
      cv.notify_all();
    };
  }
  Response get() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
    return response;
  }
};

TEST(IkServiceTest, NullCompletionThrows) {
  const auto chain = kin::makePlanar(3);
  IkService svc(gatedFactory(chain, nullptr), smallConfig(1, 4));
  EXPECT_THROW(
      svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)}, nullptr),
      std::invalid_argument);
}

// The future overload is documented as a thin wrapper over the callback
// path: for the same request (cache off, fresh identical solvers) the
// two must produce bit-identical Responses, field for field.
TEST(IkServiceTest, CallbackAndFuturePathsAreBitIdentical) {
  const auto chain = kin::makeSerpentine(8);
  // Two services so each request hits a factory-fresh solver (solver
  // RNG state advances per solve on one instance).
  const auto factory = [&] { return ik::makeSolver("quick-ik", chain, {}); };
  IkService via_future(factory, smallConfig(1, 8));
  IkService via_callback(factory, smallConfig(1, 8));

  for (std::uint32_t i = 0; i < 6; ++i) {
    const auto task = workload::generateTask(chain, i);
    const Request request{.target = task.target,
                          .seed = task.seed,
                          .use_seed_cache = false};
    const Response from_future = via_future.submit(request).get();
    CallbackSlot slot;
    via_callback.submit(request, slot.completion());
    const Response from_callback = slot.get();

    ASSERT_EQ(from_future.status, ResponseStatus::kSolved);
    EXPECT_EQ(from_callback.status, from_future.status);
    EXPECT_EQ(from_callback.reject_reason, from_future.reject_reason);
    EXPECT_EQ(from_callback.result.status, from_future.result.status);
    EXPECT_EQ(from_callback.result.iterations, from_future.result.iterations);
    EXPECT_EQ(from_callback.seeded_from_cache, from_future.seeded_from_cache);
    ASSERT_EQ(from_callback.result.theta.size(),
              from_future.result.theta.size());
    for (std::size_t j = 0; j < from_future.result.theta.size(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_callback.result.theta[j]),
                std::bit_cast<std::uint64_t>(from_future.result.theta[j]))
          << "request " << i << " theta[" << j << "]";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_callback.result.error),
              std::bit_cast<std::uint64_t>(from_future.result.error));
  }
}

TEST(IkServiceTest, CallbackAdmissionRejectRunsOnSubmitterThread) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  IkService svc(gatedFactory(chain, gate), smallConfig(1, 1));

  // Pin the worker and fill the queue, as in the future-path test.
  auto in_flight = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});
  gate->awaitArrivals(1);
  auto queued = svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)});

  const auto submitter = std::this_thread::get_id();
  std::thread::id ran_on;
  bool called = false;
  svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)},
             [&](Response r) {
               ran_on = std::this_thread::get_id();
               called = true;
               EXPECT_EQ(r.status, ResponseStatus::kRejected);
               EXPECT_EQ(r.reject_reason, RejectReason::kQueueFull);
             });
  // Admission rejects are synchronous: already delivered, on this thread.
  EXPECT_TRUE(called);
  EXPECT_EQ(ran_on, submitter);

  gate->open();
  in_flight.get();
  queued.get();
}

TEST(IkServiceTest, SolverExceptionBecomesInternalErrorForCallbacks) {
  const auto chain = kin::makeSerpentine(6);
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); },
                smallConfig(1, 4));
  CallbackSlot slot;
  // Wrong seed size: the future path rethrows; the callback path must
  // fold the exception into Rejected{kInternalError} + message.
  svc.submit({.target = {0.5, 0, 0},
              .seed = linalg::VecX(2),
              .use_seed_cache = false},
             slot.completion());
  const Response r = slot.get();
  EXPECT_EQ(r.status, ResponseStatus::kRejected);
  EXPECT_EQ(r.reject_reason, RejectReason::kInternalError);
  EXPECT_FALSE(r.message.empty());
}

TEST(IkServiceTest, CallbackSubmitAfterStopRejectsWithShutdown) {
  const auto chain = kin::makePlanar(3);
  IkService svc(gatedFactory(chain, nullptr), smallConfig(1, 4));
  svc.stop();
  CallbackSlot slot;
  svc.submit({.target = {0.5, 0, 0}, .seed = linalg::VecX(3)},
             slot.completion());
  const Response r = slot.get();
  EXPECT_EQ(r.status, ResponseStatus::kRejected);
  EXPECT_EQ(r.reject_reason, RejectReason::kShutdown);
}

TEST(ResponseTypes, InternalErrorToString) {
  EXPECT_EQ(toString(RejectReason::kInternalError), "internal-error");
}

TEST(IkServiceTest, CacheEvictionsSurfaceInStats) {
  const auto chain = kin::makeSerpentine(6);
  const auto task = workload::generateTask(chain, 0);
  ServiceConfig config = smallConfig(1, 32, /*cache=*/true);
  // One slot per cell: every repeat insert into the target's cell is a
  // ring replacement, so the eviction counter must advance.
  config.cache.max_entries_per_cell = 1;
  IkService svc([&] { return ik::makeSolver("quick-ik", chain, {}); }, config);
  for (int i = 0; i < 3; ++i)
    svc.submit({.target = task.target, .seed = task.seed}).get();

  const auto stats = svc.stats();
  ASSERT_GT(stats.cache_inserts, 1u);  // every converged solve inserts
  EXPECT_EQ(stats.cache_evictions, stats.cache_inserts - 1);
}

}  // namespace
}  // namespace dadu::service
