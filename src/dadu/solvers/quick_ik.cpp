#include "dadu/solvers/quick_ik.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "dadu/kinematics/backends/spec_backend.hpp"

namespace dadu::ik {
namespace {

// Minimum lanes per worker chunk: below this the per-wake cost exceeds
// the arithmetic and a chunk should stay on the caller (also keeps a
// vector register's worth of contiguous lanes per worker).
constexpr std::size_t kLaneGrain = 8;

}  // namespace

QuickIkSolver::QuickIkSolver(kin::Chain chain, SolveOptions options,
                             Execution execution, std::size_t threads)
    : JtSolver(std::move(chain), options), execution_(execution) {
  if (options_.speculations < 1)
    throw std::invalid_argument("Quick-IK requires at least 1 speculation");
  if (execution_ == Execution::kThreadPool)
    pool_ = std::make_unique<par::ThreadPool>(threads);
  const auto max_spec = static_cast<std::size_t>(options_.speculations);
  batch_.reset(chain_, max_spec);
  alphas_.resize(max_spec);
}

SolveResult QuickIkSolver::solve(const linalg::Vec3& target,
                                 const linalg::VecX& seed) {
  const int max_spec = options_.speculations;
  const auto lanes = static_cast<std::size_t>(max_spec);

  // One sweep closure per solve (not per iteration): it reads the
  // iterate through `theta`, which the step points at the solve's
  // result, so the pool dispatch allocates nothing inside the
  // iteration loop.
  const linalg::VecX* theta = nullptr;
  std::function<void(std::size_t, std::size_t)> pooled_sweep;
  if (execution_ == Execution::kThreadPool)
    pooled_sweep = [this, &target, &theta](std::size_t lo, std::size_t hi) {
      batch_.evaluateLanes(chain_, *theta, ws_.dtheta_base, alphas_.data(),
                           target, options_.clamp_to_limits, lo, hi);
    };

  const auto step = [&](const JtIterationHead& head, SolveResult& result) {
    // Speculative search (Algorithm 1, lines 6-15): all Max candidates
    // advance through one batched chain walk.  Serial execution is a
    // single kernel call; the thread pool splits the batch into
    // contiguous lane chunks, one per worker, each writing its own
    // disjoint slice of the shared SoA workspace.
    for (std::size_t idx = 0; idx < lanes; ++idx)
      alphas_[idx] = (static_cast<double>(idx + 1) / max_spec) *
                     head.alpha_base;  // Eq. 9
    if (execution_ == Execution::kThreadPool) {
      // Grain rounds up to the backend's lane multiple so worker
      // chunks land on vector-register boundaries.
      const std::size_t grain =
          std::max(kLaneGrain, batch_.backend().laneMultiple());
      theta = &result.theta;
      pool_->parallelForChunked(0, lanes, grain, pooled_sweep);
    } else {
      batch_.evaluateLanes(chain_, result.theta, ws_.dtheta_base,
                           alphas_.data(), target, options_.clamp_to_limits,
                           0, lanes);
    }
    result.fk_evaluations += max_spec;
    result.speculation_load += max_spec;
    ++result.iterations;

    // Parameter selection (line 16): argmin error, smallest k on ties,
    // deterministic regardless of execution strategy.
    const std::vector<double>& error_k = batch_.errors();
    std::size_t best = 0;
    for (std::size_t idx = 1; idx < lanes; ++idx)
      if (error_k[idx] < error_k[best]) best = idx;

    // Monotone descent guard: adopt the winner only if it improves on
    // the pre-sweep error.  The alpha ladder is deterministic, so a
    // sweep that cannot improve now never will — keep the current
    // theta (result.error already holds head.error) and stop rather
    // than stepping to a worse configuration.  Projected descent
    // (clamp_to_limits) is exempt: the projection legitimately visits
    // worse errors while sliding along the joint-limit boundary, and
    // adoption moves theta so the next sweep is not a repeat.
    if (!options_.clamp_to_limits && !(error_k[best] < head.error))
      return StepOutcome::kStalled;

    // A winner under the accuracy ends the solve in iterate()
    // (Algorithm 1 lines 12-13's early exit).
    batch_.candidateInto(best, result.theta);
    result.error = error_k[best];
    return StepOutcome::kMeasured;
  };
  return iterate(target, seed, headStalls, step);
}

}  // namespace dadu::ik
