#include "dadu/cli/cli.hpp"

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dadu/ikacc/accelerator.hpp"
#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/kinematics/robot_io.hpp"
#include "dadu/kinematics/jacobian_full.hpp"
#include "dadu/kinematics/workspace.hpp"
#include "dadu/linalg/rotation.hpp"
#include "dadu/net/ik_server.hpp"
#include "dadu/net/net_stats.hpp"
#include "dadu/obs/export.hpp"
#include "dadu/platform/timer.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/registry/spec_router.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/sim/scenario.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/pose_solvers.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::cli {
namespace {

constexpr const char* kUsage =
    "usage: dadu <info|fk|solve|accel> --robot <spec> [options]\n"
    "  info  --robot <spec>\n"
    "  fk    --robot <spec> --joints q1,q2,...\n"
    "  solve --robot <spec> --target x,y,z [--solver name] [--accuracy a]\n"
    "        [--max-iter n] [--speculations k] [--seed-config q1,...]\n"
    "  accel --robot <spec> --target x,y,z [--ssus n] [--speculations k]\n"
    "  pose  --robot <spec> --target x,y,z --rpy r,p,y [--accuracy a]\n"
    "        [--angular-accuracy a]\n"
    "  serve-bench --robot <spec> [--requests n] [--clusters c] [--workers w]\n"
    "        [--queue-capacity n] [--rate req-per-s] [--deadline ms]\n"
    "        [--cache on|off] [--solver name] [--max-iter n]\n"
    "        [--max-batch n] [--batch-wait-us us]\n"
    "        [--stats-out FILE] [--stats-format auto|prom|json]\n"
    "        [--breaker-queue-depth n] [--breaker-p99-ms x]\n"
    "        [--shed-queue-depth n]\n"
    "  serve --robot [name=]<spec> [--robot ...] --port <p> [--address a]\n"
    "        [--robots-file FILE] [--workers w-per-spec]\n"
    "        [--queue-capacity n] [--solver name] [--max-iter n]\n"
    "        [--cache on|off] [--max-connections n] [--idle-timeout ms]\n"
    "        [--max-batch n] [--batch-wait-us us]\n"
    "        [--stats-format text|prom|json] [--max-runtime-ms n]\n"
    "        [--breaker-queue-depth n] [--breaker-p99-ms x]\n"
    "        [--shed-queue-depth n]\n"
    "        (repeat --robot to host several specs; wire spec_id 0,1,...\n"
    "        in registration order, each spec behind its own queue,\n"
    "        workers and seed cache)\n"
    "  stats --robot <spec> [--format text|prom|json] [serve-bench options]\n"
    "  sim   [--scenario baseline|burst|chaos|overload|multispec] [--seed n]\n"
    "        [--requests n] [--clients n] [--workers n] [--max-batch n]\n"
    "        [--batch-wait-us us] [--specs n] [--trace-out FILE]\n"
    "        [--trace-keep n]\n"
    "robot specs: serpentine:<dof> planar:<dof> puma iiwa tentacle:<seg>\n"
    "             random:<dof>:<seed> or a robot-description file path\n"
    "global options (accepted after any command):\n"
    "  --spec-backend scalar|avx2|avx512   force the batched-FK\n"
    "        speculation backend (default: CPUID dispatch; the\n"
    "        DADU_SPEC_BACKEND env var does the same)\n";

/// "--key value" pairs after the subcommand.
std::map<std::string, std::string> parseOptions(
    const std::vector<std::string>& args, std::size_t first) {
  std::map<std::string, std::string> opts;
  for (std::size_t i = first; i < args.size(); i += 2) {
    const std::string& key = args[i];
    if (key.size() < 3 || key.substr(0, 2) != "--")
      throw std::invalid_argument("expected --option, got '" + key + "'");
    if (i + 1 >= args.size())
      throw std::invalid_argument("option '" + key + "' needs a value");
    opts[key.substr(2)] = args[i + 1];
  }
  return opts;
}

std::string require(const std::map<std::string, std::string>& opts,
                    const std::string& key) {
  const auto it = opts.find(key);
  if (it == opts.end())
    throw std::invalid_argument("missing required option --" + key);
  return it->second;
}

std::string optional(const std::map<std::string, std::string>& opts,
                     const std::string& key, const std::string& def) {
  const auto it = opts.find(key);
  return it == opts.end() ? def : it->second;
}

linalg::Vec3 parseTarget(const std::string& csv) {
  const auto v = parseNumberList(csv);
  if (v.size() != 3)
    throw std::invalid_argument("--target needs exactly 3 numbers");
  return {v[0], v[1], v[2]};
}

linalg::VecX parseConfig(const kin::Chain& chain, const std::string& csv) {
  const auto v = parseNumberList(csv);
  if (v.size() != chain.dof())
    throw std::invalid_argument("joint list has " + std::to_string(v.size()) +
                                " values, robot has " +
                                std::to_string(chain.dof()) + " DOF");
  return linalg::VecX(v);
}

int cmdInfo(const kin::Chain& chain, std::ostream& out) {
  out << "name:        " << chain.name() << '\n';
  out << "dof:         " << chain.dof() << '\n';
  out << "max reach:   " << chain.maxReach() << " m\n";
  int limited = 0;
  for (const auto& j : chain.joints())
    if (j.hasLimits()) ++limited;
  out << "limited:     " << limited << "/" << chain.dof() << " joints\n";
  out << "stretch FK:  " << kin::endEffectorPosition(
             chain, chain.zeroConfiguration())
      << '\n';
  return 0;
}

int cmdFk(const kin::Chain& chain,
          const std::map<std::string, std::string>& opts, std::ostream& out) {
  const linalg::VecX q = parseConfig(chain, require(opts, "joints"));
  const auto pose = kin::forwardKinematics(chain, q);
  out << "position:    " << pose.position() << '\n';
  out << "rotation z:  " << pose.rotation().col(2) << '\n';
  return 0;
}

int cmdSolve(const kin::Chain& chain,
             const std::map<std::string, std::string>& opts,
             std::ostream& out) {
  const linalg::Vec3 target = parseTarget(require(opts, "target"));
  ik::SolveOptions options;
  options.accuracy = std::stod(optional(opts, "accuracy", "1e-2"));
  options.max_iterations = std::stoi(optional(opts, "max-iter", "10000"));
  options.speculations = std::stoi(optional(opts, "speculations", "64"));
  const std::string solver_name = optional(opts, "solver", "quick-ik");

  const auto solver = ik::makeSolver(solver_name, chain, options);
  const linalg::VecX seed =
      opts.count("seed-config")
          ? parseConfig(chain, opts.at("seed-config"))
          : chain.zeroConfiguration();

  const auto r = solver->solve(target, seed);
  out << "solver:      " << solver->name() << '\n';
  out << "status:      " << ik::toString(r.status) << '\n';
  out << "iterations:  " << r.iterations << '\n';
  out << "error:       " << r.error << " m\n";
  out << "theta:       " << r.theta << '\n';
  return r.converged() ? 0 : 1;
}

int cmdPose(const kin::Chain& chain,
            const std::map<std::string, std::string>& opts,
            std::ostream& out) {
  kin::Pose target;
  target.position = parseTarget(require(opts, "target"));
  const auto rpy_vals = parseNumberList(require(opts, "rpy"));
  if (rpy_vals.size() != 3)
    throw std::invalid_argument("--rpy needs exactly 3 numbers");
  target.orientation = linalg::rpy(rpy_vals[0], rpy_vals[1], rpy_vals[2]);

  ik::PoseSolveOptions options;
  options.accuracy = std::stod(optional(opts, "accuracy", "1e-2"));
  options.angular_accuracy =
      std::stod(optional(opts, "angular-accuracy", "1e-2"));

  ik::QuickIkPoseSolver solver(chain, options);
  const auto r = solver.solve(target, chain.zeroConfiguration());
  out << "status:      " << ik::toString(r.status) << '\n';
  out << "iterations:  " << r.iterations << '\n';
  out << "pos error:   " << r.position_error << " m\n";
  out << "ang error:   " << r.angular_error << " rad\n";
  out << "theta:       " << r.theta << '\n';
  return r.converged() ? 0 : 1;
}

int cmdAccel(const kin::Chain& chain,
             const std::map<std::string, std::string>& opts,
             std::ostream& out) {
  const linalg::Vec3 target = parseTarget(require(opts, "target"));
  ik::SolveOptions options;
  options.speculations = std::stoi(optional(opts, "speculations", "64"));
  acc::AccConfig config;
  config.num_ssus =
      static_cast<std::size_t>(std::stoul(optional(opts, "ssus", "32")));

  acc::IkAccelerator accelerator(chain, options, config);
  const auto r = accelerator.solve(target, chain.zeroConfiguration());
  const auto& s = accelerator.lastStats();
  out << "status:      " << ik::toString(r.status) << '\n';
  out << "iterations:  " << r.iterations << '\n';
  out << "cycles:      " << s.total_cycles << '\n';
  out << "latency:     " << s.time_ms << " ms @" << config.freq_ghz
      << " GHz\n";
  out << "energy:      " << s.energyMj() << " mJ\n";
  out << "avg power:   " << s.avg_power_mw << " mW\n";
  out << "area:        " << config.totalAreaMm2() << " mm^2\n";
  return r.converged() ? 0 : 1;
}

/// Serving commands build their solvers on worker threads, where a
/// factory throw would end the process; check the name up front.
void requireKnownSolver(const std::string& name) {
  const std::vector<std::string> names = ik::solverNames();
  if (std::find(names.begin(), names.end(), name) == names.end())
    throw std::invalid_argument("unknown IK solver: " + name);
}

/// Result of one in-process serving run (serve-bench / stats share it).
struct ServeRun {
  service::ServiceStats stats;
  std::vector<double> latencies_ms;  ///< queue + solve, solved requests only
  double wall_ms = 0.0;
  std::size_t worker_count = 0;
  std::string solver_name;
  std::string cache_flag;
  int clusters = 0;
};

/// Circuit-breaker flags shared by serve / serve-bench / stats.  The
/// breaker stays disabled (zero overhead) unless at least one
/// threshold is set.
service::CircuitBreakerConfig parseBreakerOptions(
    const std::map<std::string, std::string>& opts) {
  service::CircuitBreakerConfig breaker;
  breaker.trip_queue_depth = static_cast<std::size_t>(
      std::stoul(optional(opts, "breaker-queue-depth", "0")));
  breaker.trip_p99_ms = std::stod(optional(opts, "breaker-p99-ms", "0"));
  breaker.shed_queue_depth = static_cast<std::size_t>(
      std::stoul(optional(opts, "shed-queue-depth", "0")));
  if (breaker.trip_p99_ms < 0.0)
    throw std::invalid_argument("--breaker-p99-ms must be >= 0");
  breaker.enabled = breaker.trip_queue_depth > 0 ||
                    breaker.trip_p99_ms > 0.0 || breaker.shed_queue_depth > 0;
  return breaker;
}

/// Batch-coalescer flags shared by serve / serve-bench / stats.
/// Batching is on by default (--max-batch 16, --batch-wait-us 100);
/// `--max-batch 1` dispatches bursts of one.
void applyBatchOptions(service::ServiceConfig& config,
                       const std::map<std::string, std::string>& opts) {
  config.max_batch = static_cast<std::size_t>(
      std::stoul(optional(opts, "max-batch", "16")));
  if (config.max_batch == 0)
    throw std::invalid_argument("--max-batch must be >= 1");
  config.batch_wait_us = static_cast<std::uint32_t>(
      std::stoul(optional(opts, "batch-wait-us", "100")));
}

/// Open-loop arrival run against a live IkService: submit `requests`
/// clustered targets at a fixed arrival rate (0 = all at once).  Open
/// loop means arrivals do not wait for completions — exactly the
/// regime where admission control matters.
ServeRun runServeWorkload(const kin::Chain& chain,
                          const std::map<std::string, std::string>& opts,
                          int default_requests) {
  ServeRun run;
  const int requests =
      std::stoi(optional(opts, "requests", std::to_string(default_requests)));
  run.clusters = std::stoi(optional(opts, "clusters", "8"));
  const double rate = std::stod(optional(opts, "rate", "0"));
  const double deadline_ms = std::stod(optional(opts, "deadline", "0"));
  run.cache_flag = optional(opts, "cache", "on");
  if (run.cache_flag != "on" && run.cache_flag != "off")
    throw std::invalid_argument("--cache must be 'on' or 'off'");

  ik::SolveOptions solve_options;
  solve_options.max_iterations = std::stoi(optional(opts, "max-iter", "10000"));
  run.solver_name = optional(opts, "solver", "quick-ik");
  requireKnownSolver(run.solver_name);

  service::ServiceConfig config;
  config.workers =
      static_cast<std::size_t>(std::stoul(optional(opts, "workers", "0")));
  config.queue_capacity = static_cast<std::size_t>(
      std::stoul(optional(opts, "queue-capacity", "1024")));
  config.enable_seed_cache = run.cache_flag == "on";
  config.breaker = parseBreakerOptions(opts);
  applyBatchOptions(config, opts);

  const auto tasks =
      workload::generateClusteredTasks(chain, requests, run.clusters);

  service::IkService svc(
      [&] { return ik::makeSolver(run.solver_name, chain, solve_options); },
      config);

  platform::WallTimer timer;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<service::Response>> futures;
  futures.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (rate > 0.0) {
      // Open-loop pacing: arrival i is due at i/rate seconds; sleep
      // only if we are early (submission itself never blocks).
      const auto due =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) / rate));
      std::this_thread::sleep_until(due);
    }
    futures.push_back(svc.submit({.target = tasks[i].target,
                                  .seed = tasks[i].seed,
                                  .deadline_ms = deadline_ms}));
  }

  run.latencies_ms.reserve(futures.size());
  for (auto& f : futures) {
    const service::Response r = f.get();
    if (r.status == service::ResponseStatus::kSolved)
      run.latencies_ms.push_back(r.queue_ms + r.solve_ms);
  }
  run.wall_ms = timer.elapsedMs();
  svc.stop();

  run.stats = svc.stats();
  run.worker_count = svc.workerCount();
  std::sort(run.latencies_ms.begin(), run.latencies_ms.end());
  return run;
}

/// Render `stats` in `format` ("prom" or "json"; "auto" = by file
/// extension) and write it to `path`.
void writeStatsFile(const service::ServiceStats& stats,
                    const std::string& path, std::string format) {
  if (format == "auto")
    format = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0
                 ? "json"
                 : "prom";
  if (format != "prom" && format != "json")
    throw std::invalid_argument("--stats-format must be auto, prom or json");
  const obs::MetricsSnapshot snap = service::toMetricsSnapshot(stats);
  std::ofstream file(path);
  if (!file)
    throw std::runtime_error("cannot open stats file '" + path + "'");
  file << (format == "json" ? obs::renderJson(snap)
                            : obs::renderPrometheus(snap));
}

int cmdServeBench(const kin::Chain& chain,
                  const std::map<std::string, std::string>& opts,
                  std::ostream& out) {
  const ServeRun run = runServeWorkload(chain, opts, /*default_requests=*/200);
  const service::ServiceStats& stats = run.stats;
  const std::vector<double>& latencies_ms = run.latencies_ms;
  const auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(latencies_ms.size() - 1) + 0.5);
    return latencies_ms[std::min(rank, latencies_ms.size() - 1)];
  };

  if (opts.count("stats-out"))
    writeStatsFile(stats, opts.at("stats-out"),
                   optional(opts, "stats-format", "auto"));

  out << "solver:            " << run.solver_name << '\n';
  out << "workers:           " << run.worker_count << '\n';
  out << "requests:          " << stats.submitted << " (" << run.clusters
      << " clusters)\n";
  out << "solved:            " << stats.solved << " (" << stats.converged
      << " converged)\n";
  out << "rejected:          " << stats.rejected_queue_full << " queue-full, "
      << stats.rejected_shutdown << " shutdown\n";
  if (stats.breaker.trips > 0 || stats.rejected_overloaded > 0 ||
      stats.shed_low_priority > 0)
    out << "breaker:           " << stats.breaker.trips << " trips, "
        << stats.rejected_overloaded << " overloaded, "
        << stats.shed_low_priority << " shed\n";
  out << "deadline expired:  " << stats.deadline_expired << '\n';
  out << "wall:              " << run.wall_ms << " ms\n";
  out << "throughput:        "
      << (run.wall_ms > 0.0
              ? static_cast<double>(stats.solved) / (run.wall_ms * 1e-3)
              : 0.0)
      << " solves/s\n";
  out << "latency p50/p99:   " << percentile(50) << " / " << percentile(99)
      << " ms\n";
  out << "queue ms p50/p99:  " << stats.queue_hist.p50() << " / "
      << stats.queue_hist.p99() << '\n';
  out << "solve ms p50/p99:  " << stats.solve_hist.p50() << " / "
      << stats.solve_hist.p99() << '\n';
  out << "mean iterations:   " << stats.meanIterations() << '\n';
  if (stats.batches > 0)
    out << "batch occupancy:   " << stats.meanBatchOccupancy() << " mean, "
        << stats.batch_occupancy_hist.p50() << " / "
        << stats.batch_occupancy_hist.p99() << " p50/p99 ("
        << stats.batches << " bursts)\n";
  out << "cache:             " << run.cache_flag << ", hit rate "
      << stats.cacheHitRate() << " (" << stats.cache_hits << "/"
      << (stats.cache_hits + stats.cache_misses) << ")\n";
  return stats.solved == stats.submitted ? 0 : 1;
}

/// SIGINT/SIGTERM latch for `dadu serve`.  The handler only stores —
/// everything else (drain, stats dump) runs on the main thread, which
/// polls the flag.  sig_atomic_t-compatible: std::atomic<int> with
/// relaxed stores is async-signal-safe on every platform we target.
std::atomic<int> g_stop_signal{0};

void onStopSignal(int signum) {
  g_stop_signal.store(signum, std::memory_order_relaxed);
}

/// `dadu serve`: bind the TCP front-end on --port, serve every
/// registered robot spec (one service lane each — own queue, workers,
/// seed cache) until SIGINT/SIGTERM (or --max-runtime-ms, the test
/// seam), then drain — listener first, in-flight solves flushed — and
/// dump the combined router + wire observability snapshot (including
/// the per-spec dadu_spec_<name>_* series) in --stats-format.
int cmdServe(const registry::RobotSpecRegistry& registry,
             const std::map<std::string, std::string>& opts, std::ostream& out,
             std::ostream& err) {
  const std::string format = optional(opts, "stats-format", "text");
  if (format != "text" && format != "prom" && format != "json")
    throw std::invalid_argument("--stats-format must be text, prom or json");
  const int port_value = std::stoi(require(opts, "port"));
  if (port_value < 0 || port_value > 65535)
    throw std::invalid_argument("--port must be in [0, 65535]");
  const double max_runtime_ms =
      std::stod(optional(opts, "max-runtime-ms", "0"));
  const std::string cache_flag = optional(opts, "cache", "on");
  if (cache_flag != "on" && cache_flag != "off")
    throw std::invalid_argument("--cache must be 'on' or 'off'");

  service::ServiceConfig service_config;  // per-lane template
  service_config.workers =
      static_cast<std::size_t>(std::stoul(optional(opts, "workers", "0")));
  service_config.queue_capacity = static_cast<std::size_t>(
      std::stoul(optional(opts, "queue-capacity", "1024")));
  service_config.enable_seed_cache = cache_flag == "on";
  service_config.breaker = parseBreakerOptions(opts);
  applyBatchOptions(service_config, opts);

  net::ServerConfig server_config;
  server_config.bind_address = optional(opts, "address", "127.0.0.1");
  server_config.port = static_cast<std::uint16_t>(port_value);
  server_config.max_connections = static_cast<std::size_t>(
      std::stoul(optional(opts, "max-connections", "256")));
  server_config.idle_timeout_ms =
      std::stod(optional(opts, "idle-timeout", "0"));

  registry::RouterConfig router_config;
  router_config.base = service_config;
  registry::SpecRouter router(registry, router_config);
  net::IkServer server(router, server_config);
  server.start();

  // Install the handlers only while we serve, and restore the previous
  // disposition after — `run()` is a library entry point and must not
  // leave process-global state behind.
  struct sigaction action {};
  action.sa_handler = onStopSignal;
  sigemptyset(&action.sa_mask);
  struct sigaction old_int {}, old_term {};
  sigaction(SIGINT, &action, &old_int);
  sigaction(SIGTERM, &action, &old_term);
  g_stop_signal.store(0, std::memory_order_relaxed);

  out << "dadu serve: " << registry.size() << " robot spec(s), "
      << router.totalWorkers() << " workers\n";
  for (const registry::RobotSpec& spec : registry.specs())
    out << "  spec " << spec.id << ": " << spec.name << " ("
        << spec.chain.dof() << " DOF, " << spec.chain_spec << ", solver "
        << spec.solver << ")\n";
  out << "listening on " << server.address() << ":" << server.port() << '\n';
  out.flush();

  platform::WallTimer uptime;
  while (g_stop_signal.load(std::memory_order_relaxed) == 0) {
    if (max_runtime_ms > 0.0 && uptime.elapsedMs() >= max_runtime_ms) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const int signum = g_stop_signal.load(std::memory_order_relaxed);
  if (signum != 0)
    err << "caught " << (signum == SIGINT ? "SIGINT" : "SIGTERM")
        << ", draining\n";

  server.stop();  // listener first, in-flight flushed
  router.stop();
  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);

  const obs::MetricsSnapshot snap =
      net::merge(router.metrics(), server.metrics());
  if (format == "prom")
    out << obs::renderPrometheus(snap);
  else if (format == "json")
    out << obs::renderJson(snap);
  else
    out << obs::renderText(snap);
  return 0;
}

/// Run a short in-process serving workload and render its full
/// observability snapshot (counters, gauges, latency histograms) in
/// the requested format — the terminal-facing view of the same data
/// serve-bench exports with --stats-out.
int cmdStats(const kin::Chain& chain,
             const std::map<std::string, std::string>& opts,
             std::ostream& out) {
  const std::string format = optional(opts, "format", "text");
  if (format != "text" && format != "prom" && format != "json")
    throw std::invalid_argument("--format must be text, prom or json");

  const ServeRun run = runServeWorkload(chain, opts, /*default_requests=*/100);
  const obs::MetricsSnapshot snap = service::toMetricsSnapshot(run.stats);
  if (format == "prom")
    out << obs::renderPrometheus(snap);
  else if (format == "json")
    out << obs::renderJson(snap);
  else
    out << obs::renderText(snap);
  return run.stats.solved == run.stats.submitted ? 0 : 1;
}

/// Deterministic whole-stack simulation: run a scenario under a seed,
/// print the outcome summary and trace digest, exit nonzero if any
/// conservation invariant broke.  Two runs with the same seed print
/// the same digest and write byte-identical trace files — the CI
/// determinism gate diffs exactly that.
int cmdSim(const std::map<std::string, std::string>& opts, std::ostream& out,
           std::ostream& err) {
  sim::ScenarioConfig config =
      sim::presetScenario(optional(opts, "scenario", "baseline"));
  config.seed = std::stoull(optional(opts, "seed", "1"));
  config.requests = std::stoull(
      optional(opts, "requests", std::to_string(config.requests)));
  config.clients =
      std::stoull(optional(opts, "clients", std::to_string(config.clients)));
  config.workers =
      std::stoull(optional(opts, "workers", std::to_string(config.workers)));
  config.max_batch = std::stoull(
      optional(opts, "max-batch", std::to_string(config.max_batch)));
  config.batch_wait_us = static_cast<std::uint32_t>(std::stoul(optional(
      opts, "batch-wait-us", std::to_string(config.batch_wait_us))));
  config.specs =
      std::stoull(optional(opts, "specs", std::to_string(config.specs)));
  config.trace_keep = std::stoull(
      optional(opts, "trace-keep", std::to_string(config.trace_keep)));

  const sim::ScenarioResult result = sim::runScenario(config);

  const auto trace_out = opts.find("trace-out");
  if (trace_out != opts.end()) {
    std::ofstream file(trace_out->second);
    if (!file) throw std::runtime_error("cannot write " + trace_out->second);
    result.trace.writeTo(file);
  }

  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(result.trace.digest()));
  out << "scenario:    " << config.name << " (seed " << config.seed << ")\n";
  out << "requests:    " << config.requests << " over " << config.clients
      << " clients, " << config.workers << " workers, batch "
      << config.max_batch << "/" << config.batch_wait_us << "us\n";
  out << "virtual:     " << result.virtual_ms << " ms simulated in "
      << result.wall_ms << " ms wall (" << result.tasks_executed
      << " tasks)\n";
  out << "outcomes:    " << result.responses << " responses, "
      << result.wire_errors << " errors, " << result.conn_closed
      << " lost, " << result.unsent << " unsent\n";
  out << "verdicts:    " << result.solved << " solved, " << result.rejected
      << " rejected, " << result.deadline_exceeded << " deadline\n";
  out << "service:     " << result.service.submitted << " submitted, "
      << result.service.converged << " converged, mean batch "
      << result.service.meanBatchOccupancy() << ", cache hit rate "
      << result.service.cacheHitRate() << '\n';
  for (const sim::ScenarioSpecStats& s : result.per_spec)
    out << "  spec " << s.spec_id << " (" << s.name << "): "
        << s.stats.submitted << " submitted, " << s.stats.solved
        << " solved, cache hit rate " << s.stats.cacheHitRate() << '\n';
  out << "trace:       " << result.trace.events() << " events, digest "
      << digest << '\n';
  if (!result.ok()) {
    for (const std::string& v : result.violations)
      err << "invariant violated: " << v << '\n';
    return 1;
  }
  out << "invariants:  ok\n";
  return 0;
}

}  // namespace

std::vector<double> parseNumberList(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty())
      throw std::invalid_argument("empty entry in number list '" + csv + "'");
    std::size_t consumed = 0;
    const double v = std::stod(item, &consumed);
    if (consumed != item.size())
      throw std::invalid_argument("bad number '" + item + "'");
    out.push_back(v);
  }
  if (out.empty()) throw std::invalid_argument("empty number list");
  return out;
}

kin::Chain resolveRobot(const std::string& spec) {
  // The chain-spec grammar lives with the multi-robot registry now
  // (one grammar for --robot flags, bindings and spec files alike).
  return registry::resolveChainSpec(spec);
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "help") {
      out << kUsage;
      return args.empty() ? 2 : 0;
    }
    const std::string& command = args[0];
    const auto opts = parseOptions(args, 1);
    // Global: pin the speculation backend before any solver is built.
    if (const auto it = opts.find("spec-backend"); it != opts.end()) {
      if (!kin::setSpecBackendOverride(it->second))
        throw std::invalid_argument(
            "--spec-backend '" + it->second +
            "' is unknown, compiled out, or unsupported by this CPU");
    }
    // The simulator models its own robot; no --robot required.
    if (command == "sim") return cmdSim(opts, out, err);
    // serve builds a registry from EVERY --robot occurrence (the
    // parsed map only keeps the last one), so it collects bindings
    // straight from the arg list.
    if (command == "serve") {
      ik::SolveOptions solve_options;
      solve_options.max_iterations =
          std::stoi(optional(opts, "max-iter", "10000"));
      const std::string solver_name = optional(opts, "solver", "quick-ik");
      requireKnownSolver(solver_name);
      registry::RobotSpecRegistry registry;
      for (std::size_t i = 1; i + 1 < args.size(); i += 2)
        if (args[i] == "--robot")
          registry.addBinding(args[i + 1], solver_name, solve_options);
      if (opts.count("robots-file"))
        registry.loadFile(opts.at("robots-file"), solver_name, solve_options);
      if (registry.empty())
        throw std::invalid_argument(
            "serve needs at least one --robot binding (or --robots-file)");
      return cmdServe(registry, opts, out, err);
    }
    const kin::Chain chain = resolveRobot(require(opts, "robot"));

    if (command == "info") return cmdInfo(chain, out);
    if (command == "fk") return cmdFk(chain, opts, out);
    if (command == "solve") return cmdSolve(chain, opts, out);
    if (command == "accel") return cmdAccel(chain, opts, out);
    if (command == "pose") return cmdPose(chain, opts, out);
    if (command == "serve-bench") return cmdServeBench(chain, opts, out);
    if (command == "stats") return cmdStats(chain, opts, out);
    err << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace dadu::cli
