// Random-restart meta-solver.
//
// First-order IK can stall (exactly singular start) or drag (bad basin
// of attraction); the production remedy is restarts from fresh random
// configurations — also the natural way to use a solver whose seeds
// come from Algorithm 1's "Set theta through Random".  This wrapper
// retries the inner solver up to `max_restarts` times with
// deterministic, seed-derived restart configurations and returns the
// first converged result (or the best-error attempt).  A watchdog
// deadline reaches every attempt; once one times out, no further
// attempt starts.
#pragma once

#include <cstdint>
#include <memory>

#include "dadu/solvers/ik_solver.hpp"

namespace dadu::ik {

class RestartSolver final : public IkSolver {
 public:
  /// Takes ownership of `inner`.  `restart_seed` makes the restart
  /// sequence reproducible.
  RestartSolver(std::unique_ptr<IkSolver> inner, int max_restarts = 4,
                std::uint64_t restart_seed = 1);

  /// Solves with the caller's seed first; on non-convergence, retries
  /// from random configurations.  The returned result aggregates
  /// iterations/FK counts across all attempts; `theta` and `error` are
  /// the best attempt's.  An attempt that times out ends the solve with
  /// kTimedOut.
  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;

  std::string name() const override { return inner_->name() + "+restart"; }
  const kin::Chain& chain() const override { return inner_->chain(); }
  const SolveOptions& options() const override { return inner_->options(); }
  void setDeadline(std::chrono::steady_clock::time_point d) override {
    inner_->setDeadline(d);
  }

  /// Attempts used by the last solve (1 = no restart needed).
  int lastAttempts() const { return last_attempts_; }

 private:
  std::unique_ptr<IkSolver> inner_;
  int max_restarts_;
  std::uint64_t restart_seed_;
  int last_attempts_ = 0;
};

}  // namespace dadu::ik
