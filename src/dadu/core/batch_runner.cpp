#include "dadu/core/batch_runner.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dadu/platform/timer.hpp"
#include "dadu/service/ik_service.hpp"

namespace dadu {

// Thin wrapper over a transient IkService so there is exactly one
// worker-dispatch implementation in the tree.  The service is
// configured to reproduce the old inline thread loop bit for bit:
// seed cache off (results must equal a serial run from the given
// seeds), queue sized to the whole batch (admission can never reject),
// per-worker solver instances from the same factory.
BatchRunReport solveBatchParallel(const SolverFactory& factory,
                                  const std::vector<workload::IkTask>& tasks,
                                  std::size_t threads) {
  if (!factory) throw std::invalid_argument("solveBatchParallel: null factory");
  if (threads == 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, std::max<std::size_t>(tasks.size(), 1));

  BatchRunReport report;
  report.results.resize(tasks.size());
  platform::WallTimer timer;

  {
    service::ServiceConfig config;
    config.workers = threads;
    config.queue_capacity = std::max<std::size_t>(tasks.size(), 1);
    config.enable_seed_cache = false;
    // Batched dispatch with no coalescing wait: the whole batch is
    // enqueued up front, so workers drain real bursts immediately (one
    // queue pop per burst).  Results stay bit-identical to
    // per-request dispatch.
    config.max_batch = 16;
    config.batch_wait_us = 0;
    service::IkService svc(factory, config);

    std::vector<std::future<service::Response>> futures;
    futures.reserve(tasks.size());
    for (const workload::IkTask& task : tasks)
      futures.push_back(svc.submit({.target = task.target,
                                    .seed = task.seed,
                                    .use_seed_cache = false}));
    for (std::size_t i = 0; i < futures.size(); ++i)
      report.results[i] = std::move(futures[i].get().result);
  }  // ~IkService joins the workers before the clock stops

  report.wall_ms = timer.elapsedMs();
  for (const auto& r : report.results)
    if (r.converged()) ++report.converged;
  report.solves_per_second =
      report.wall_ms > 0.0
          ? static_cast<double>(tasks.size()) / (report.wall_ms * 1e-3)
          : 0.0;
  return report;
}

}  // namespace dadu
