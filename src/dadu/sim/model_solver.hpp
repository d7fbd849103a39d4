// ModelSolver: a statistical stand-in for a real IK solver.
//
// The simulation harness wants to push millions of requests through
// the *serving* stack — admission, batching, deadlines, the breaker,
// the wire protocol — and none of that cares what the joint angles
// are.  A real Quick-IK solve costs hundreds of microseconds of FK
// math; at a million requests that is minutes of wall time spent
// computing answers nobody reads.  ModelSolver replaces the math with
// a seeded cost model: each solve draws an iteration count and outcome
// from its own splitmix64 stream and *charges the cost to the solver's
// Clock* via sleepFor.  Under a SimClock that advances virtual time
// instantly — so solve_ms, queue_ms, deadline expiry and watchdog
// timeouts all behave exactly as if the solver had really burned the
// time, for free.
//
// Semantics mirrored from the real solvers so the serving layer cannot
// tell the difference:
//   - std::invalid_argument on seed-size mismatch / non-finite target
//     (exercises the internal-error path);
//   - the "solver.iterate" fault point fires once per solve (kDelay
//     charges virtual time, kError throws mid-solve);
//   - setDeadline() is honoured: a modeled solve that would overrun
//     its deadline stops *at* the deadline with Status::kTimedOut and
//     pro-rata iterations — the cooperative watchdog, modeled;
//   - solveMany() is IkSolver's per-lane loop over solve(), as for
//     every solver, so per-lane deadlines and error capture match.
//
// Determinism: outcomes depend only on the config seed and the call
// order, and the sim's call order is fixed by the SimExecutor seed.
#pragma once

#include <cstdint>

#include "dadu/kinematics/chain.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu::sim {

struct ModelSolverConfig {
  std::uint64_t seed = 1;
  /// Virtual cost charged per modeled iteration.
  double iteration_ms = 0.01;
  /// Mean of the (geometric-ish) iteration draw for converging solves.
  double typical_iterations = 30.0;
  /// Chance a solve converges (else it runs the full iteration budget
  /// and reports kMaxIterations).
  double converge_probability = 0.97;
  /// Chance of a tail solve: `tail_ms` extra virtual cost on top of
  /// the iteration charge (the runaway the watchdog exists for).
  double tail_probability = 0.005;
  double tail_ms = 20.0;
  /// Iteration budget reported via options() and used for
  /// non-converging solves.
  int max_iterations = 200;
};

class ModelSolver final : public ik::IkSolver {
 public:
  explicit ModelSolver(kin::Chain chain, ModelSolverConfig config = {});

  ik::SolveResult solve(const linalg::Vec3& target,
                        const linalg::VecX& seed) override;
  std::string name() const override { return "model"; }
  void setDeadline(std::chrono::steady_clock::time_point deadline) override {
    deadline_ = deadline;
  }
  const kin::Chain& chain() const override { return chain_; }
  const ik::SolveOptions& options() const override { return options_; }

  std::uint64_t solves() const { return solves_; }

 private:
  kin::Chain chain_;
  ModelSolverConfig config_;
  ik::SolveOptions options_;
  std::chrono::steady_clock::time_point deadline_{};
  std::uint64_t rng_ = 0;
  std::uint64_t solves_ = 0;
};

}  // namespace dadu::sim
