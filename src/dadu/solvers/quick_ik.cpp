#include "dadu/solvers/quick_ik.hpp"

#include <stdexcept>

namespace dadu::ik {

QuickIkSolver::QuickIkSolver(kin::Chain chain, SolveOptions options)
    : JtSolver(std::move(chain), options) {
  if (options_.speculations < 1)
    throw std::invalid_argument("Quick-IK requires at least 1 speculation");
  const auto max_spec = static_cast<std::size_t>(options_.speculations);
  batch_.reset(chain_, max_spec);
}

SolveResult QuickIkSolver::solve(const linalg::Vec3& target,
                                 const linalg::VecX& seed) {
  const int max_spec = options_.speculations;
  const auto lanes = static_cast<std::size_t>(max_spec);

  const auto step = [&](const JtIterationHead& head, SolveResult& result) {
    // Speculative search (Algorithm 1, lines 6-15): all Max candidates
    // of Eq. 9's ladder advance through one batched chain walk.
    batch_.evaluateLadder(chain_, result.theta, ws_.dtheta_base,
                          head.alpha_base, lanes, target,
                          options_.clamp_to_limits, 0, lanes);
    result.fk_evaluations += max_spec;
    result.speculation_load += max_spec;
    ++result.iterations;

    // Parameter selection (line 16): argmin error, smallest k on ties.
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
