#include "dadu/sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dadu/kinematics/presets.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/platform/clock.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/registry/spec_router.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/sim/sim_clock.hpp"
#include "dadu/sim/sim_executor.hpp"
#include "dadu/sim/transport.hpp"

namespace dadu::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double nextUnit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Exponential draw with the given mean (us), capped so one unlucky
/// draw cannot stall a client for a simulated hour.
double nextExpUs(std::uint64_t& state, double mean_us) {
  const double u = nextUnit(state);
  return std::min(-mean_us * std::log(1.0 - u), mean_us * 20.0);
}

platform::Clock::duration usDuration(double us) {
  return std::chrono::duration_cast<platform::Clock::duration>(
      std::chrono::duration<double, std::micro>(std::max(us, 0.0)));
}

/// How one transmitted request ended, from the client's chair.
enum class Outcome : std::uint8_t {
  kPending = 0,
  kResponse,
  kWireError,
  kConnClosed,
};

struct Client {
  std::uint64_t id = 0;
  std::shared_ptr<SimConnection> conn;
  net::ByteBuffer in;
  bool open = true;
  std::size_t quota = 0;
  std::size_t sent = 0;
  std::uint64_t rng = 0;
  /// Open-loop arrival schedule: the next planned submission instant,
  /// advanced by the interarrival draw from the *planned* time, never
  /// from "now" — a clock jump (a long solve) must not silently
  /// reschedule offered load or overload degenerates to exactly the
  /// service rate.
  platform::Clock::time_point next_arrival{};
  std::vector<std::uint64_t> outstanding;  ///< request ids in flight
  std::vector<std::uint8_t> scratch;       ///< encode buffer
};

/// Everything the posted tasks share.  Lives on runScenario's stack,
/// declared before the executor so pending task captures die first.
struct Run {
  const ScenarioConfig* cfg = nullptr;
  SimExecutor* exec = nullptr;
  Trace* trace = nullptr;
  ScenarioResult* result = nullptr;
  SimServer* server = nullptr;
  /// Set once the workload drain ends: closes stop redialing so the
  /// teardown sweeps can actually converge.
  bool shutting_down = false;
  std::uint64_t next_request_id = 1;  ///< ids are 1-based, dense
  std::vector<Outcome> outcomes;      ///< indexed by request id - 1
  std::vector<std::uint8_t> outcome_count;

  std::uint64_t nowUs() const { return exec->simClock().elapsedUs(); }

  void settle(std::uint64_t request_id, Outcome outcome) {
    const std::size_t i = static_cast<std::size_t>(request_id - 1);
    if (i >= outcomes.size()) return;
    outcomes[i] = outcome;
    if (outcome_count[i] < 255) ++outcome_count[i];
  }
};

void clientParse(Run& run, const std::shared_ptr<Client>& c);
void clientSubmit(Run& run, const std::shared_ptr<Client>& c);

void scheduleNextArrival(Run& run, const std::shared_ptr<Client>& c) {
  if (!c->open || c->sent >= c->quota) return;
  c->next_arrival +=
      usDuration(nextExpUs(c->rng, run.cfg->mean_interarrival_us));
  Run* r = &run;
  // A next_arrival already in the past (the clock jumped over it) runs
  // immediately: the backlog of offered load floods in, as it should.
  run.exec->postAt(c->next_arrival, [r, c] { clientSubmit(*r, c); });
}

void clientSubmit(Run& run, const std::shared_ptr<Client>& c) {
  if (!c->open) return;
  const ScenarioConfig& cfg = *run.cfg;
  const std::size_t burst =
      std::min(std::max<std::size_t>(cfg.burst_size, 1),
               c->quota - c->sent);
  for (std::size_t b = 0; b < burst && c->open; ++b) {
    net::WireRequest request;
    request.id = run.next_request_id++;
    // Spec selection.  The single-spec shape draws nothing here so
    // historical seeds keep replaying byte-identically; multi-spec (or
    // wrong-spec-injecting) runs spread requests uniformly over the
    // registered specs from the client's own RNG stream.
    request.spec_id = 0;
    if (cfg.specs > 1 || cfg.wrong_spec_fraction > 0.0) {
      const auto specs = static_cast<std::uint32_t>(
          std::max<std::size_t>(cfg.specs, 1));
      if (cfg.wrong_spec_fraction > 0.0 &&
          nextUnit(c->rng) < cfg.wrong_spec_fraction)
        request.spec_id = specs;  // first id the registry does not hold
      else
        request.spec_id =
            static_cast<std::uint32_t>(splitmix64(c->rng) % specs);
    }
    request.use_seed_cache = cfg.enable_seed_cache;
    if (cfg.low_priority_fraction > 0.0 &&
        nextUnit(c->rng) < cfg.low_priority_fraction)
      request.priority = service::Priority::kLow;
    // Targets in a unit box around the base: ModelSolver only checks
    // finiteness, but distinct targets keep the seed cache honest.
    request.target[0] = 2.0 * nextUnit(c->rng) - 1.0;
    request.target[1] = 2.0 * nextUnit(c->rng) - 1.0;
    request.target[2] = 2.0 * nextUnit(c->rng) - 1.0;
    if (cfg.deadline_fraction > 0.0 &&
        nextUnit(c->rng) < cfg.deadline_fraction)
      request.deadline_ms = cfg.deadline_ms;

    c->scratch.clear();
    net::encodeRequest(request, c->scratch);
    ++c->sent;
    ++run.result->sent;
    if (c->conn->send(Side::kClient, c->scratch.data(), c->scratch.size())) {
      c->outstanding.push_back(request.id);
      run.trace->record(run.nowUs(), "submit c=%llu r=%llu",
                        static_cast<unsigned long long>(c->id),
                        static_cast<unsigned long long>(request.id));
    } else {
      // The send itself died (injected drop / already-closed pipe):
      // the request never reached the wire.
      run.settle(request.id, Outcome::kConnClosed);
      ++run.result->conn_closed;
      run.trace->record(run.nowUs(), "sendfail c=%llu r=%llu",
                        static_cast<unsigned long long>(c->id),
                        static_cast<unsigned long long>(request.id));
    }
  }
  scheduleNextArrival(run, c);
}

void clientParse(Run& run, const std::shared_ptr<Client>& c) {
  while (c->open && !c->in.empty()) {
    net::DecodedFrame frame;
    const net::DecodeStatus status =
        net::decodeFrame(c->in.data(), c->in.size(),
                         net::kDefaultMaxFrameBytes, frame);
    if (status == net::DecodeStatus::kNeedMore) return;
    if (status != net::DecodeStatus::kOk) {
      // A server would never send garbage; corruption on the return
      // path lands here.  Hang up like the real client would.
      c->conn->close();
      return;
    }
    c->in.consume(frame.consumed);
    // Match the frame to an in-flight request FIRST.  A reply id this
    // client never sent (a corrupted request id echoed back) is a
    // protocol violation: like the real client, hang up rather than
    // mis-settle someone else's request.  The close handler then
    // accounts for everything genuinely outstanding.
    const std::uint64_t id = frame.type == net::MsgType::kResponse
                                 ? frame.response.id
                                 : frame.error.id;
    const auto it =
        std::find(c->outstanding.begin(), c->outstanding.end(), id);
    if (it == c->outstanding.end()) {
      c->conn->close();
      return;
    }
    c->outstanding.erase(it);
    if (frame.type == net::MsgType::kResponse) {
      const net::WireResponse& wire = frame.response;
      run.settle(wire.id, Outcome::kResponse);
      ++run.result->responses;
      const auto st = static_cast<service::ResponseStatus>(wire.status);
      if (st == service::ResponseStatus::kSolved)
        ++run.result->solved;
      else if (st == service::ResponseStatus::kDeadlineExceeded)
        ++run.result->deadline_exceeded;
      else
        ++run.result->rejected;
      run.trace->record(
          run.nowUs(), "resp r=%llu st=%u rej=%u it=%d q=%lld s=%lld",
          static_cast<unsigned long long>(wire.id), wire.status,
          wire.reject_reason, wire.iterations,
          static_cast<long long>(std::llround(wire.queue_ms * 1000.0)),
          static_cast<long long>(std::llround(wire.solve_ms * 1000.0)));
    } else if (frame.type == net::MsgType::kError) {
      run.settle(frame.error.id, Outcome::kWireError);
      ++run.result->wire_errors;
      run.trace->record(run.nowUs(), "err r=%llu code=%u",
                        static_cast<unsigned long long>(frame.error.id),
                        static_cast<unsigned>(frame.error.code));
    }
  }
}

void attachClient(Run& run, const std::shared_ptr<Client>& client) {
  Run* r = &run;
  // Weak references: the pool owns the client, and a client holding its
  // pipe must not be held by that pipe's handlers in return.
  const std::weak_ptr<Client> weak = client;
  client->conn->onReceive(
      Side::kClient, [r, weak](const std::uint8_t* data, std::size_t len) {
        const auto c = weak.lock();
        if (!c || !c->open) return;
        c->in.append(data, len);
        clientParse(*r, c);
      });
  client->conn->onClose(Side::kClient, [r, weak] {
    const auto c = weak.lock();
    if (!c || !c->open) return;
    c->open = false;
    // Everything in flight died with the pipe — a terminal outcome the
    // invariants count.
    for (const std::uint64_t id : c->outstanding) {
      r->settle(id, Outcome::kConnClosed);
      ++r->result->conn_closed;
    }
    c->outstanding.clear();
    r->trace->record(r->nowUs(), "close c=%llu",
                     static_cast<unsigned long long>(c->id));
    // A real client redials.  Without this, long chaos runs decay to
    // silence as fault-injected closes pick the client pool off one by
    // one.  A client with no quota left, or a disabled redial, stays
    // down and its remainder becomes `unsent`.
    if (r->shutting_down || r->cfg->reconnect_us <= 0.0 ||
        c->sent >= c->quota) {
      r->result->unsent += c->quota - c->sent;
      return;
    }
    r->exec->postAt(
        r->exec->simClock().now() + usDuration(r->cfg->reconnect_us),
        [r, c] {
          if (r->shutting_down || c->open || c->sent >= c->quota) {
            r->result->unsent += c->quota - c->sent;
            return;
          }
          ++r->result->reconnects;
          LinkConfig link;
          link.latency_us = r->cfg->latency_us;
          link.jitter_us = r->cfg->jitter_us;
          c->conn = std::make_shared<SimConnection>(*r->exec, link,
                                                    splitmix64(c->rng));
          c->in.consume(c->in.size());
          c->open = true;
          attachClient(*r, c);
          r->server->accept(c->conn);
          r->trace->record(r->nowUs(), "redial c=%llu",
                           static_cast<unsigned long long>(c->id));
          scheduleNextArrival(*r, c);
        });
  });
}

}  // namespace

std::vector<std::string> scenarioNames() {
  return {"baseline", "burst", "chaos", "overload", "multispec"};
}

ScenarioConfig presetScenario(const std::string& name) {
  ScenarioConfig cfg;
  cfg.name = name;
  if (name == "baseline") {
    // Comfortable load, no faults: the determinism reference shape.
    return cfg;
  }
  if (name == "burst") {
    // Bursty arrivals against the batch coalescer: 16-deep trains with
    // long gaps, same average load as baseline.
    cfg.burst_size = 16;
    cfg.mean_interarrival_us = 64000.0;
    cfg.max_batch = 16;
    cfg.batch_wait_us = 300;
    return cfg;
  }
  if (name == "chaos") {
    // Faults at every layer, plus deadlines tight enough to trip.
    cfg.deadline_fraction = 0.3;
    cfg.deadline_ms = 5.0;
    cfg.faults.delayAt("service.worker.solve", 2.0, {0.02, 0, 0, 0});
    cfg.faults.errorAt("service.worker.solve", "injected solver fault",
                       {0.005, 0, 0, 0});
    cfg.faults.delayAt("solver.iterate", 5.0, {0.01, 0, 0, 0});
    cfg.faults.delayAt("service.worker.stall", 1.0, {0.01, 0, 0, 0});
    cfg.faults.corruptAt("net.client.write", {0.0005, 0, 0, 0});
    cfg.faults.dropAt("net.server.write", {0.0005, 0, 0, 0});
    return cfg;
  }
  if (name == "multispec") {
    // Three robots behind one server, plus a trickle of requests for a
    // spec nobody registered: routing, per-spec isolation and the
    // unknown-spec error path all under the conservation invariants.
    cfg.specs = 3;
    cfg.wrong_spec_fraction = 0.02;
    return cfg;
  }
  if (name == "overload") {
    // Offered load far past capacity: admission control, priority
    // shedding and the breaker all have to earn their keep.
    cfg.mean_interarrival_us = 40.0;
    cfg.queue_capacity = 64;
    cfg.workers = 2;
    cfg.low_priority_fraction = 0.3;
    cfg.deadline_fraction = 0.5;
    cfg.deadline_ms = 10.0;
    cfg.breaker.enabled = true;
    cfg.breaker.trip_queue_depth = 48;
    cfg.breaker.shed_queue_depth = 32;
    cfg.breaker.open_ms = 5.0;
    return cfg;
  }
  throw std::invalid_argument("unknown scenario '" + name + "'");
}

ScenarioResult runScenario(const ScenarioConfig& cfg) {
  platform::WallTimer wall;  // real time, even inside the simulator
  ScenarioResult result;
  result.seed = cfg.seed;
  result.trace = Trace(cfg.trace_keep);

  SimClock clock;
  Run run;  // before the executor: task captures must die first
  SimExecutor exec(clock, cfg.seed);
  run.cfg = &cfg;
  run.exec = &exec;
  run.trace = &result.trace;
  run.result = &result;
  run.outcomes.assign(cfg.requests, Outcome::kPending);
  run.outcome_count.assign(cfg.requests, 0);

  // One number reproduces everything: an unset fault-plan seed
  // inherits the scenario seed.
  std::optional<fault::ScopedFaultPlan> armed;
  if (!cfg.faults.rules.empty()) {
    fault::FaultPlan plan = cfg.faults;
    if (plan.seed == 0) plan.seed = cfg.seed;
    armed.emplace(std::move(plan));
  }

  result.trace.record(0, "run scenario=%s seed=%llu requests=%llu "
                         "clients=%llu workers=%llu batch=%llu wait=%u",
                      cfg.name.c_str(),
                      static_cast<unsigned long long>(cfg.seed),
                      static_cast<unsigned long long>(cfg.requests),
                      static_cast<unsigned long long>(cfg.clients),
                      static_cast<unsigned long long>(cfg.workers),
                      static_cast<unsigned long long>(cfg.max_batch),
                      cfg.batch_wait_us);

  service::ServiceConfig scfg;
  scfg.workers = std::max<std::size_t>(cfg.workers, 1);
  scfg.queue_capacity = cfg.queue_capacity;
  scfg.enable_seed_cache = cfg.enable_seed_cache;
  scfg.stat_shards = 1;
  scfg.breaker = cfg.breaker;
  scfg.max_batch = cfg.max_batch;
  scfg.batch_wait_us = cfg.batch_wait_us;
  scfg.clock = &clock;
  scfg.executor = &exec;
  const std::uint64_t seed = cfg.seed;
  ModelSolverConfig solver_cfg = cfg.solver;
  const std::size_t specs = std::max<std::size_t>(cfg.specs, 1);

  // Spec s solves a serpentine of dof + 2*s joints behind its own
  // service lane of the same registry + SpecRouter the production serve
  // command uses (one spec = a single-robot server).  Every lane's
  // ModelSolvers derive their streams from (scenario seed, spec id,
  // worker ordinal), so lanes are decorrelated but the whole run still
  // replays from one number.  The s == 0 mixing term is zero, so spec
  // 0's solver streams depend on the seed and worker ordinal alone.
  registry::RobotSpecRegistry reg;
  for (std::size_t s = 0; s < specs; ++s) {
    const std::size_t joints = std::max<std::size_t>(cfg.dof, 2) + 2 * s;
    registry::RobotSpec spec;
    spec.id = static_cast<std::uint32_t>(s);
    spec.name = "serpentine_" + std::to_string(joints);
    spec.chain_spec = "serpentine:" + std::to_string(joints);
    spec.chain = kin::makeSerpentine(joints);
    auto counter = std::make_shared<std::uint64_t>(0);
    spec.factory = [chain = spec.chain, solver_cfg, counter, seed, s] {
      ModelSolverConfig mc = solver_cfg;
      mc.seed = seed ^ (0x9e3779b97f4a7c15ull * ++*counter) ^
                (0x94d049bb133111ebull * static_cast<std::uint64_t>(s));
      return std::make_unique<ModelSolver>(chain, mc);
    };
    reg.add(std::move(spec));
  }
  registry::RouterConfig rcfg;
  rcfg.base = scfg;  // every lane = one single-spec server's shape
  registry::SpecRouter router(reg, rcfg);
  SimServer server(router, exec, SimServerConfig{}, &result.trace);
  run.server = &server;

  const std::size_t clients = std::max<std::size_t>(cfg.clients, 1);
  std::vector<std::shared_ptr<Client>> pool;
  pool.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    auto c = std::make_shared<Client>();
    c->id = i + 1;
    c->quota = cfg.requests / clients + (i < cfg.requests % clients ? 1 : 0);
    c->rng = cfg.seed ^ (0xff51afd7ed558ccdull * (i + 1));
    LinkConfig link;
    link.latency_us = cfg.latency_us;
    link.jitter_us = cfg.jitter_us;
    c->conn = std::make_shared<SimConnection>(exec, link,
                                              cfg.seed ^ (i * 2 + 1));
    attachClient(run, c);
    server.accept(c->conn);
    pool.push_back(std::move(c));
  }
  for (const auto& c : pool) {
    c->next_arrival = clock.now();
    if (c->quota > 0) scheduleNextArrival(run, c);
  }

  // Run the universe dry.  The cap is a runaway backstop (a livelocked
  // component would otherwise spin forever), far above any legitimate
  // task count.
  const std::size_t cap = cfg.requests * 64 + 1'000'000;
  exec.drain(cap);
  if (exec.pending() != 0)
    result.violations.push_back(
        "executor did not quiesce within the task cap");
  run.shutting_down = true;  // teardown closes must not redial

  // Drain-stop the service lanes (inline under the executor contract),
  // then let any completions posted by the drain deliver.
  router.stop(service::IkService::Drain::kDrainPending);
  exec.drain(cap);

  // Stall sweep: a corrupted length prefix can desync a stream into a
  // phantom frame that never completes — the real server reaps such
  // connections with its idle timeout; the sim does it here.  Only a
  // connection stuck mid-frame qualifies; in-flight requests on a
  // clean-buffered connection are a genuine leak and stay a violation.
  for (const auto& c : pool) {
    if (c->open && !c->outstanding.empty() && !c->in.empty()) {
      ++result.stalled_conns;
      result.trace.record(run.nowUs(), "stall c=%llu",
                          static_cast<unsigned long long>(c->id));
      c->conn->close();
    }
  }
  exec.drain(cap);

  result.virtual_ms =
      std::chrono::duration<double, std::milli>(clock.elapsed()).count();
  result.tasks_executed = exec.executed();
  result.service = router.aggregatedStats();
  for (const registry::SpecLaneStats& lane : router.perSpecStats()) {
    ScenarioSpecStats slice;
    slice.spec_id = lane.spec->id;
    slice.name = lane.spec->name;
    slice.stats = lane.stats;
    result.per_spec.push_back(std::move(slice));
  }
  result.server = server.stats();

  // --- Invariants -----------------------------------------------------
  // Exactly one outcome per transmitted request.
  const std::uint64_t allocated = run.next_request_id - 1;
  std::uint64_t unsettled = 0, multi = 0;
  for (std::uint64_t i = 0; i < allocated; ++i) {
    if (run.outcome_count[i] == 0) ++unsettled;
    if (run.outcome_count[i] > 1) ++multi;
  }
  if (unsettled != 0)
    result.violations.push_back(
        std::to_string(unsettled) + " requests ended with no outcome");
  if (multi != 0)
    result.violations.push_back(
        std::to_string(multi) + " requests ended with multiple outcomes");
  if (result.sent != allocated)
    result.violations.push_back("sent/id accounting mismatch");

  // Service-level conservation: every submit in exactly one terminal
  // bucket.
  if (result.service.submitted != result.service.accounted())
    result.violations.push_back(
        "service accounting leak: submitted=" +
        std::to_string(result.service.submitted) +
        " accounted=" + std::to_string(result.service.accounted()));
  // The server dispatched exactly what the service admitted, and every
  // dispatch completed exactly once.
  const net::DispatchStats& srv = result.server;
  if (result.service.submitted != srv.requests_dispatched)
    result.violations.push_back(
        "dispatch mismatch: service submitted=" +
        std::to_string(result.service.submitted) +
        " server dispatched=" + std::to_string(srv.requests_dispatched));
  if (srv.requests_dispatched != srv.requests_completed)
    result.violations.push_back(
        "completion leak: dispatched=" +
        std::to_string(srv.requests_dispatched) +
        " completed=" + std::to_string(srv.requests_completed));
  if (srv.requests_completed !=
      srv.responses_sent + srv.internal_errors + srv.undeliverable)
    result.violations.push_back(
        "completed != responses_sent + internal_errors + undeliverable");

  result.trace.record(
      static_cast<std::uint64_t>(result.virtual_ms * 1000.0),
      "done sent=%llu resp=%llu err=%llu lost=%llu unsent=%llu "
      "solved=%llu rejected=%llu deadline=%llu",
      static_cast<unsigned long long>(result.sent),
      static_cast<unsigned long long>(result.responses),
      static_cast<unsigned long long>(result.wire_errors),
      static_cast<unsigned long long>(result.conn_closed),
      static_cast<unsigned long long>(result.unsent),
      static_cast<unsigned long long>(result.solved),
      static_cast<unsigned long long>(result.rejected),
      static_cast<unsigned long long>(result.deadline_exceeded));

  result.wall_ms = wall.elapsedMs();
  return result;
}

}  // namespace dadu::sim
