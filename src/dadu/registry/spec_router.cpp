#include "dadu/registry/spec_router.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace dadu::registry {
namespace {

/// Per-spec metric names ride the spec name; keep them in the exporter
/// alphabet so Prometheus and JSON renderings agree on the series name.
std::string metricSafe(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

SpecRouter::SpecRouter(const RobotSpecRegistry& registry, RouterConfig config)
    : registry_(registry), config_(std::move(config)) {
  if (registry_.empty())
    throw std::invalid_argument("SpecRouter: registry has no robot specs");

  // Policy default when nothing is configured anywhere: split hardware
  // concurrency evenly so N specs cost the same thread budget one spec
  // used to.
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  const std::size_t even_share =
      std::max<std::size_t>(hw / registry_.size(), 1);

  lanes_.reserve(registry_.size());
  for (const RobotSpec& spec : registry_.specs()) {
    service::ServiceConfig lane_config = config_.base;
    lane_config.workers = spec.workers        ? spec.workers
                          : config_.workers_per_spec
                              ? config_.workers_per_spec
                          : config_.base.workers ? config_.base.workers
                                                 : even_share;
    Lane lane;
    lane.spec = &spec;
    lane.service = std::make_unique<service::IkService>(
        RobotSpecRegistry::makeFactory(spec), lane_config);
    lane_by_id_.emplace(spec.id, lanes_.size());
    lanes_.push_back(std::move(lane));
  }
}

SpecRouter::~SpecRouter() { stop(service::IkService::Drain::kDrainPending); }

service::IkService* SpecRouter::serviceFor(std::uint32_t spec_id) {
  const auto it = lane_by_id_.find(spec_id);
  return it == lane_by_id_.end() ? nullptr : lanes_[it->second].service.get();
}

const RobotSpec* SpecRouter::specFor(std::uint32_t spec_id) const {
  const auto it = lane_by_id_.find(spec_id);
  return it == lane_by_id_.end() ? nullptr : lanes_[it->second].spec;
}

void SpecRouter::stop(service::IkService::Drain mode) {
  for (Lane& lane : lanes_) lane.service->stop(mode);
}

std::size_t SpecRouter::totalWorkers() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.service->workerCount();
  return total;
}

service::ServiceStats SpecRouter::aggregatedStats() const {
  service::ServiceStats total;
  for (const Lane& lane : lanes_) {
    const service::ServiceStats s = lane.service->stats();
    total.submitted += s.submitted;
    total.rejected_queue_full += s.rejected_queue_full;
    total.rejected_shutdown += s.rejected_shutdown;
    total.rejected_overloaded += s.rejected_overloaded;
    total.shed_low_priority += s.shed_low_priority;
    total.deadline_expired += s.deadline_expired;
    total.solved += s.solved;
    total.converged += s.converged;
    total.timed_out += s.timed_out;
    total.internal_errors += s.internal_errors;
    total.total_iterations += s.total_iterations;
    total.total_fk_evaluations += s.total_fk_evaluations;
    total.total_speculation_load += s.total_speculation_load;
    total.total_queue_ms += s.total_queue_ms;
    total.total_solve_ms += s.total_solve_ms;
    total.batches += s.batches;
    total.batched_lanes += s.batched_lanes;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_inserts += s.cache_inserts;
    total.cache_evictions += s.cache_evictions;
    obs::mergeInto(total.queue_hist, s.queue_hist);
    obs::mergeInto(total.solve_hist, s.solve_hist);
    obs::mergeInto(total.e2e_hist, s.e2e_hist);
    obs::mergeInto(total.batch_occupancy_hist, s.batch_occupancy_hist);
    total.breaker.trips += s.breaker.trips;
    total.breaker.probes_issued += s.breaker.probes_issued;
    // Fleet breaker "state" = the worst lane's (any Open lane matters
    // more than the Closed majority).
    total.breaker.state = std::max(total.breaker.state, s.breaker.state);
    if (total.spec_backend.empty()) total.spec_backend = s.spec_backend;
  }
  return total;
}

std::vector<SpecLaneStats> SpecRouter::perSpecStats() const {
  std::vector<SpecLaneStats> out;
  out.reserve(lanes_.size());
  for (const Lane& lane : lanes_) {
    SpecLaneStats s;
    s.spec = lane.spec;
    s.stats = lane.service->stats();
    s.queue_depth = lane.service->queueDepth();
    s.workers = lane.service->workerCount();
    out.push_back(std::move(s));
  }
  return out;
}

obs::MetricsSnapshot SpecRouter::metrics() const {
  obs::MetricsSnapshot snap = service::toMetricsSnapshot(aggregatedStats());
  snap.gauges.push_back({"dadu_registry_specs",
                         static_cast<double>(lanes_.size()), "specs"});
  for (const SpecLaneStats& lane : perSpecStats()) {
    const std::string prefix = "dadu_spec_" + metricSafe(lane.spec->name) + "_";
    snap.counters.push_back({prefix + "requests", lane.stats.submitted});
    snap.counters.push_back({prefix + "solved", lane.stats.solved});
    snap.counters.push_back({prefix + "cache_hits", lane.stats.cache_hits});
    snap.counters.push_back({prefix + "cache_misses", lane.stats.cache_misses});
    snap.gauges.push_back(
        {prefix + "cache_hit_rate", lane.stats.cacheHitRate(), "ratio"});
    snap.gauges.push_back({prefix + "batch_mean_occupancy",
                           lane.stats.meanBatchOccupancy(), "requests"});
    snap.gauges.push_back({prefix + "queue_depth",
                           static_cast<double>(lane.queue_depth), "requests"});
    snap.gauges.push_back(
        {prefix + "workers", static_cast<double>(lane.workers), "threads"});
    snap.infos.push_back({prefix + "chain", lane.spec->chain_spec});
  }
  return snap;
}

}  // namespace dadu::registry
