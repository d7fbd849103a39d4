// SpecRouter: per-spec serving lanes behind one serviceFor() seam.
//
// One router owns one IkService per registered robot spec.  That
// single structural decision buys every multi-robot invariant at once:
//
//   per-spec queues        each lane has its own bounded MPMC queue, so
//                          one robot's backlog cannot starve another's
//                          admission;
//   per-spec worker pools  sized by the router-level policy (see
//                          RouterConfig) with per-spec overrides;
//   per-spec seed caches   cache keys are workspace positions, which
//                          are meaningless across chains — a hit in
//                          spec A can never seed spec B because the
//                          caches are physically separate;
//   spec-pure batches      a worker's popMany burst drains one lane's
//                          queue, so a solveMany burst always shares
//                          one chain, and a lane behaves exactly like
//                          a single-robot deployment: same queue, same
//                          cache, same batch coalescing, same solver.
//
// The front ends' FrameDispatcher routes a wire request by its spec_id
// through serviceFor(); an unknown id yields null and the dispatcher
// answers kUnknownSpec.  Lanes run under whatever clock/executor seam
// RouterConfig::base carries, so the whole router works inside the
// deterministic simulation unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dadu/obs/export.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/service/ik_service.hpp"

namespace dadu::registry {

/// Registry-level resource policy: how big each spec's lane is.
struct RouterConfig {
  /// Template for every lane's ServiceConfig (queue capacity, cache,
  /// batching, breaker, stat shards, clock/executor seams).  The
  /// `workers` field is the per-spec default; see workers_per_spec.
  service::ServiceConfig base;
  /// Workers per spec: RobotSpec::workers wins when set, then this,
  /// then base.workers; all zero = hardware concurrency divided evenly
  /// across specs (min 1 per spec).
  std::size_t workers_per_spec = 0;
};

/// One spec's stats, labelled by its spec (for per-spec dashboards).
struct SpecLaneStats {
  const RobotSpec* spec = nullptr;
  service::ServiceStats stats;
  std::size_t queue_depth = 0;
  std::size_t workers = 0;
};

class SpecRouter {
 public:
  /// Builds (and starts) one IkService per spec in `registry`, which
  /// must be non-empty, outlive the router, and not be mutated while
  /// the router exists.  Throws std::invalid_argument on an empty
  /// registry.
  explicit SpecRouter(const RobotSpecRegistry& registry,
                      RouterConfig config = {});
  ~SpecRouter();  ///< stop(Drain::kDrainPending)

  SpecRouter(const SpecRouter&) = delete;
  SpecRouter& operator=(const SpecRouter&) = delete;

  /// The lane serving `spec_id` (nullptr = unknown spec).
  service::IkService* serviceFor(std::uint32_t spec_id);
  const RobotSpec* specFor(std::uint32_t spec_id) const;

  /// Stop every lane (same Drain semantics as IkService::stop).
  /// Idempotent.
  void stop(service::IkService::Drain mode =
                service::IkService::Drain::kDrainPending);

  std::size_t specCount() const { return lanes_.size(); }
  std::size_t totalWorkers() const;
  const RobotSpecRegistry& registry() const { return registry_; }

  /// Fleet view: every counter summed across lanes, histograms merged
  /// bucket-wise (all lanes share base's ladder, so the merge is
  /// exact).  `submitted == accounted()` holds for the aggregate iff it
  /// holds per lane.
  service::ServiceStats aggregatedStats() const;
  std::vector<SpecLaneStats> perSpecStats() const;

  /// Aggregate dadu_service_* snapshot plus per-spec series named
  /// `dadu_spec_<name>_*` (requests, solved, cache hit rate, batch
  /// occupancy, queue depth, workers) — the exporter model has no
  /// labels, so the spec name rides in the metric name.
  obs::MetricsSnapshot metrics() const;

 private:
  struct Lane {
    const RobotSpec* spec = nullptr;
    std::unique_ptr<service::IkService> service;
  };

  const RobotSpecRegistry& registry_;
  RouterConfig config_;
  std::vector<Lane> lanes_;
  std::unordered_map<std::uint32_t, std::size_t> lane_by_id_;
};

}  // namespace dadu::registry
