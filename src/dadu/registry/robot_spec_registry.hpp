// dadu_registry: the multi-robot spec registry.
//
// The wire protocol stamps a `spec_id` on every request.  The registry
// is the table behind it: spec_id -> {kinematic chain, joint
// limits (carried by the chain), solver factory, solver options,
// worker-pool sizing} — everything a front-end needs to route a
// request to the right per-spec serving lane.
//
// Specs come from three places:
//   - add():        a fully-built RobotSpec (tests, sim harness — this
//                   is also where a custom SolverFactory plugs in, e.g.
//                   the sim's ModelSolver);
//   - addBinding(): a CLI-style "name=chainspec" binding (`serve
//                   --robot left=iiwa --robot snake=serpentine:50`);
//   - loadFile():   a spec file of one binding per line.
//
// Ids are dense and assigned in registration order (0, 1, 2, ...)
// unless add() supplies one explicitly; names and ids must both be
// unique — a duplicate registration throws instead of silently
// shadowing a robot.  The registry is build-then-read: register every
// spec, hand it to a SpecRouter/server, and do not mutate it afterwards
// (find() returns pointers into the registry's storage).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu::registry {

/// Everything the serving stack knows about one robot model.
struct RobotSpec {
  std::uint32_t id = 0;     ///< the wire `spec_id` routed on
  std::string name;         ///< unique; used for per-spec metric names
  std::string chain_spec;   ///< source text, e.g. "serpentine:12"
  kin::Chain chain;         ///< geometry + joint limits
  std::string solver = "quick-ik";  ///< ik::makeSolver name
  ik::SolveOptions options;
  /// Worker-pool size for this spec (0 = the router-level policy).
  std::size_t workers = 0;
  /// Optional factory override.  When set it wins over
  /// (solver, chain, options) — the seam the deterministic sim uses to
  /// put a ModelSolver behind a spec.  Must be safe to invoke
  /// concurrently (one call per worker thread).
  service::SolverFactory factory;
};

/// Parse a robot chain spec ("serpentine:N", "planar:N", "puma",
/// "iiwa", "tentacle:N", "random:N:S", or a robot-description file
/// path) into a chain.  Throws std::invalid_argument on a malformed
/// preset spec.  This is the single chain-spec grammar; the CLI's
/// resolveRobot() delegates here.
kin::Chain resolveChainSpec(const std::string& spec);

class RobotSpecRegistry {
 public:
  /// Register a fully-built spec.  Throws std::invalid_argument on a
  /// duplicate id or name (or an empty name).  Returns the stored spec.
  const RobotSpec& add(RobotSpec spec);

  /// Register from a "name=chainspec" binding; a bare "chainspec" gets
  /// a name derived from the spec text (':' -> '_', '/' -> '_').  The
  /// id is the next unused dense id; `solver`/`options` become the
  /// spec's solver policy (the CLI forwards its --solver/--max-iter
  /// flags here so one policy covers every binding).  Throws on parse
  /// failure or duplicate registration.
  const RobotSpec& addBinding(const std::string& binding,
                              const std::string& solver = "quick-ik",
                              const ik::SolveOptions& options = {});

  /// Register every binding in a spec file (one "name=chainspec" per
  /// line; blank lines and '#' comments ignored).  Returns the number
  /// of specs added.  Throws on an unreadable file or any bad binding.
  std::size_t loadFile(const std::string& path,
                       const std::string& solver = "quick-ik",
                       const ik::SolveOptions& options = {});

  const RobotSpec* find(std::uint32_t id) const;
  const RobotSpec* findByName(const std::string& name) const;
  std::size_t size() const { return specs_.size(); }
  bool empty() const { return specs_.empty(); }
  const std::vector<RobotSpec>& specs() const { return specs_; }

  /// The per-worker solver factory for `spec`: the explicit factory
  /// override when set, otherwise ik::makeSolver(spec.solver,
  /// spec.chain, spec.options) captured by value (the returned factory
  /// does not reference the registry or the spec).
  static service::SolverFactory makeFactory(const RobotSpec& spec);

 private:
  std::vector<RobotSpec> specs_;
  std::unordered_map<std::uint32_t, std::size_t> by_id_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::uint32_t next_id_ = 0;
};

}  // namespace dadu::registry
