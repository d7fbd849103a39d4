// Aggregate serving-layer statistics (snapshot type).
//
// IkService keeps its live counters in lock-free sharded slots
// (obs::ShardedCounters) and its latency distributions in log-bucket
// histograms (obs::LatencyHistogram); stats() aggregates both into this
// snapshot.  Cache counters are mirrored from the SeedCache so one
// struct answers "how is the service doing" — totals, rates, and the
// queue/solve/end-to-end latency distributions with percentiles.
#pragma once

#include <cstdint>
#include <string>

#include "dadu/obs/export.hpp"
#include "dadu/obs/histogram.hpp"
#include "dadu/service/circuit_breaker.hpp"

namespace dadu::service {

struct ServiceStats {
  // Admission.
  std::uint64_t submitted = 0;           ///< submit() calls
  std::uint64_t rejected_queue_full = 0; ///< shed by admission control
  std::uint64_t rejected_shutdown = 0;   ///< submitted after / pending at stop
  std::uint64_t rejected_overloaded = 0; ///< breaker Open fast-rejects
  std::uint64_t shed_low_priority = 0;   ///< Priority::kLow shed while Closed
  std::uint64_t deadline_expired = 0;    ///< dropped unexecuted

  // Execution.
  std::uint64_t solved = 0;     ///< solver ran (any ik::Status)
  std::uint64_t converged = 0;  ///< ... and converged
  std::uint64_t timed_out = 0;  ///< watchdog stops (ik::Status::kTimedOut)
  std::uint64_t internal_errors = 0;  ///< solver threw mid-request
  /// Every submit ends in exactly one terminal bucket; this is that
  /// sum, so `submitted == accounted()` is the no-lost-request
  /// invariant the chaos soak asserts.
  std::uint64_t accounted() const {
    return solved + rejected_queue_full + rejected_shutdown +
           rejected_overloaded + shed_low_priority + deadline_expired +
           internal_errors;
  }
  long long total_iterations = 0;  ///< summed over solved requests
  long long total_fk_evaluations = 0;   ///< FK passes incl. speculative
  long long total_speculation_load = 0; ///< Fig. 5b load, summed
  double total_queue_ms = 0.0;
  double total_solve_ms = 0.0;

  // Burst dispatch (max_batch = 1 dispatches bursts of one).
  std::uint64_t batches = 0;        ///< bursts dispatched
  std::uint64_t batched_lanes = 0;  ///< requests carried by those bursts

  // Latency distributions (solved requests; end-to-end = queue + solve).
  obs::HistogramSnapshot queue_hist;
  obs::HistogramSnapshot solve_hist;
  obs::HistogramSnapshot e2e_hist;
  /// Requests per dispatched burst: occupancy p50 pinned at 1 under
  /// load means coalescing is not engaging.
  obs::HistogramSnapshot batch_occupancy_hist;

  // Overload circuit breaker (mirrored from CircuitBreaker::snapshot()).
  CircuitBreakerSnapshot breaker;

  /// Active speculation backend ("scalar" / "avx2" / "avx512") the
  /// solvers' batched FK dispatched to; empty when unknown (e.g. a
  /// hand-built snapshot).  Exported as an info metric.
  std::string spec_backend;

  // Warm-start cache (mirrored from SeedCache::stats()).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;  ///< ring-replaced entries

  double meanQueueMs() const {
    return solved == 0 ? 0.0 : total_queue_ms / static_cast<double>(solved);
  }
  double meanSolveMs() const {
    return solved == 0 ? 0.0 : total_solve_ms / static_cast<double>(solved);
  }
  double meanIterations() const {
    return solved == 0
               ? 0.0
               : static_cast<double>(total_iterations) /
                     static_cast<double>(solved);
  }
  double cacheHitRate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
  double convergenceRate() const {
    return solved == 0
               ? 0.0
               : static_cast<double>(converged) / static_cast<double>(solved);
  }
  double meanBatchOccupancy() const {
    return batches == 0
               ? 0.0
               : static_cast<double>(batched_lanes) /
                     static_cast<double>(batches);
  }
};

/// Flatten a stats snapshot into the exporter model (counter samples,
/// derived gauges, the three latency histograms) under the
/// `dadu_service_` metric prefix.  Feed the result to
/// obs::renderPrometheus / renderJson / renderText.
obs::MetricsSnapshot toMetricsSnapshot(const ServiceStats& stats);

}  // namespace dadu::service
