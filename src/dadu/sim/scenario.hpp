// Scenario: one whole-stack simulation run under one seed.
//
// A scenario stands up the full serving pipeline — N simulated clients
// -> SimTransport byte pipes -> SimServer (the production
// FrameDispatcher: wire codec, validation, routing) -> SpecRouter ->
// IkService lanes in cooperative executor mode (real admission
// control, deadlines, breaker, batching) -> ModelSolver —
// on a SimClock + SimExecutor, drives a workload through it, and
// checks the conservation invariants the production stack promises:
//
//   exactly-one-outcome   every transmitted request ends in exactly
//                         one of: response frame, error frame, or its
//                         connection died with it outstanding;
//   counter conservation  ServiceStats::accounted() == submitted, and
//                         server requests_dispatched ==
//                         requests_completed == responses_sent +
//                         internal_errors + undeliverable.
//
// Everything — arrival times, targets, solver outcomes, fault
// decisions, transport jitter, task interleaving — derives from
// ScenarioConfig::seed, so the same seed replays byte-identically
// (Trace::digest is the witness) and a chaos failure reproduces from
// nothing but its logged seed.  See docs/RUNBOOK.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dadu/fault/fault.hpp"
#include "dadu/service/circuit_breaker.hpp"
#include "dadu/service/service_stats.hpp"
#include "dadu/sim/model_solver.hpp"
#include "dadu/sim/sim_server.hpp"
#include "dadu/sim/trace.hpp"

namespace dadu::sim {

struct ScenarioConfig {
  std::string name = "baseline";
  std::uint64_t seed = 1;
  std::size_t requests = 5000;  ///< total, split across clients
  std::size_t clients = 8;
  std::size_t workers = 4;
  std::size_t dof = 8;  ///< serpentine chain handed to the ModelSolvers

  /// Robot specs hosted by the one simulated server.  Spec s gets a
  /// serpentine chain of dof + 2*s joints behind its own service lane
  /// (registry::SpecRouter), so bursts stay spec-pure by
  /// construction.  1 = a single-robot server (a one-spec router).
  std::size_t specs = 1;
  /// Fraction of requests stamped with an unregistered spec id.  The
  /// server answers each with kUnknownSpec, the connection survives,
  /// and the reply counts as a wire_error outcome.
  double wrong_spec_fraction = 0.0;

  // Service shape (mirrors ServiceConfig; in multi-spec runs this is
  // the per-lane shape — every lane gets `workers` workers, its own
  // queue and its own seed cache, like one single-spec server each).
  std::size_t queue_capacity = 256;
  std::size_t max_batch = 8;
  std::uint32_t batch_wait_us = 200;
  bool enable_seed_cache = true;
  service::CircuitBreakerConfig breaker;

  // Workload: per-client open-loop Poisson arrivals, optionally in
  // back-to-back bursts.  NOTE: virtual time is single-core — solves
  // serialize on the one simulated timeline — so sustainable load is
  // ~1/mean_solve_cost regardless of `workers` (workers still matter
  // for batching and interleaving semantics).
  double mean_interarrival_us = 4000.0;
  /// A client whose connection dies redials after this long (0 = stay
  /// dead; remaining quota becomes `unsent`).
  double reconnect_us = 1000.0;
  std::size_t burst_size = 1;          ///< frames sent per arrival
  double deadline_ms = 0.0;            ///< per-request deadline (0 = none)
  double deadline_fraction = 0.0;      ///< fraction of requests carrying it
  double low_priority_fraction = 0.0;  ///< fraction tagged Priority::kLow

  // Transport.
  double latency_us = 50.0;
  double jitter_us = 20.0;

  ModelSolverConfig solver;
  /// Armed for the run when non-empty; a zero plan seed inherits
  /// `seed` so one number reproduces the whole run.
  fault::FaultPlan faults;

  std::size_t trace_keep = 1 << 16;
};

/// Built-in scenario shapes ("baseline", "burst", "chaos", "overload",
/// "multispec").  Throws std::invalid_argument on an unknown name.
ScenarioConfig presetScenario(const std::string& name);
std::vector<std::string> scenarioNames();

/// Per-spec slice of a run.
struct ScenarioSpecStats {
  std::uint32_t spec_id = 0;
  std::string name;
  service::ServiceStats stats;
};

struct ScenarioResult {
  std::uint64_t seed = 0;
  Trace trace;

  // Time: how long the simulated universe ran vs how long we did.
  double virtual_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t tasks_executed = 0;

  // Client-observed request outcomes (each transmitted request lands
  // in exactly one bucket; unsent = quota never transmitted because
  // the client's connection died first).
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t conn_closed = 0;
  std::uint64_t unsent = 0;
  /// Connections reaped by the end-of-run stall sweep (stream desynced
  /// mid-frame by corruption; the sim's idle-timeout stand-in).
  std::uint64_t stalled_conns = 0;
  std::uint64_t reconnects = 0;
  // Responses by service verdict.
  std::uint64_t solved = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_exceeded = 0;

  /// Aggregated across every spec lane in multi-spec runs; the
  /// conservation invariants hold over this aggregate.
  service::ServiceStats service;
  /// One entry per registered spec.
  std::vector<ScenarioSpecStats> per_spec;
  net::DispatchStats server;

  /// Invariant violations; empty means the run upheld every contract.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

ScenarioResult runScenario(const ScenarioConfig& config);

}  // namespace dadu::sim
