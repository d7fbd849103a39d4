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
    : chain_(std::move(chain)), options_(options), execution_(execution) {
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
  validateInputs(chain_, target, seed);

  const int max_spec = options_.speculations;
  const auto lanes = static_cast<std::size_t>(max_spec);
  SolveResult result;
  result.theta = seed;
  if (options_.record_history)
    result.error_history.reserve(
        static_cast<std::size_t>(std::max(options_.max_iterations, 0)) + 1);

  if (options_.max_iterations <= 0) {
    // Zero budget: report the seed's error honestly.
    const JtIterationHead head =
        jtIterationHead(chain_, result.theta, target, ws_);
    ++result.fk_evaluations;
    result.error = head.error;
    result.status = head.error < options_.accuracy ? Status::kConverged
                                                   : Status::kMaxIterations;
    return result;
  }

  // One sweep closure per solve (not per iteration): every capture is
  // stable across iterations — result.theta is updated in place — so
  // the pool dispatch allocates nothing inside the iteration loop.
  std::function<void(std::size_t, std::size_t)> pooled_sweep;
  if (execution_ == Execution::kThreadPool)
    pooled_sweep = [this, &target, &result](std::size_t lo, std::size_t hi) {
      batch_.evaluateLanes(chain_, result.theta, ws_.dtheta_base,
                           alphas_.data(), target, options_.clamp_to_limits,
                           lo, hi);
    };

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const JtIterationHead head =
        jtIterationHead(chain_, result.theta, target, ws_);
    ++result.fk_evaluations;
    if (options_.record_history) result.error_history.push_back(head.error);
    result.error = head.error;

    if (head.error < options_.accuracy) {
      result.status = Status::kConverged;
      return result;
    }
    if (head.stalled) {
      result.status = Status::kStalled;
      return result;
    }
    // Watchdog: bail with the best-so-far iterate before paying for
    // another speculative sweep.
    if (options_.hasDeadline() && options_.deadlineExpired(clock())) {
      result.status = Status::kTimedOut;
      return result;
    }

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
    if (!options_.clamp_to_limits && !(error_k[best] < head.error)) {
      result.status = Status::kStalled;
      return result;
    }

    batch_.candidateInto(best, result.theta);
    result.error = error_k[best];

    if (error_k[best] < options_.accuracy) {  // line 12-13 early exit
      result.status = Status::kConverged;
      if (options_.record_history) result.error_history.push_back(result.error);
      return result;
    }
  }

  result.status = result.error < options_.accuracy ? Status::kConverged
                                                   : Status::kMaxIterations;
  // Budget exhausted after an adopting sweep: the adopted error was
  // never recorded (the loop head only logs pre-sweep errors).
  if (options_.record_history) result.error_history.push_back(result.error);
  return result;
}

}  // namespace dadu::ik
