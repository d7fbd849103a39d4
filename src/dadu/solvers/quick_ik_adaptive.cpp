#include "dadu/solvers/quick_ik_adaptive.hpp"

#include <algorithm>
#include <stdexcept>

namespace dadu::ik {

QuickIkAdaptiveSolver::QuickIkAdaptiveSolver(kin::Chain chain,
                                             SolveOptions options,
                                             int min_speculations)
    : JtSolver(std::move(chain), options), min_spec_(min_speculations) {
  if (options_.speculations < 1)
    throw std::invalid_argument(
        "Quick-IK (adaptive) requires at least 1 speculation");
  if (min_spec_ < 1 || min_spec_ > options_.speculations)
    throw std::invalid_argument(
        "Quick-IK (adaptive): min speculations out of range");
  // Warm the kernel workspace at the widest speculation count so later
  // reshapes never allocate.
  batch_.reset(chain_, static_cast<std::size_t>(options_.speculations));
  alphas_.resize(static_cast<std::size_t>(options_.speculations));
}

SolveResult QuickIkAdaptiveSolver::solve(const linalg::Vec3& target,
                                         const linalg::VecX& seed) {
  int spec = options_.speculations;  // start wide, adapt down

  const auto step = [&](const JtIterationHead& head, SolveResult& result) {
    // Batched sweep over the iteration's speculation count: the kernel
    // is reshaped to `spec` lanes (allocation-free below the maximum)
    // and walks the chain once for all candidates.
    const auto lanes = static_cast<std::size_t>(spec);
    for (std::size_t idx = 0; idx < lanes; ++idx)
      alphas_[idx] = (static_cast<double>(idx + 1) / spec) *
                     head.alpha_base;  // Eq. 9
    if (batch_.lanes() != lanes) batch_.reset(chain_, lanes);
    batch_.evaluateLanes(chain_, result.theta, ws_.dtheta_base,
                         alphas_.data(), target, options_.clamp_to_limits, 0,
                         lanes);
    result.fk_evaluations += spec;
    result.speculation_load += spec;
    ++result.iterations;

    const std::vector<double>& error_k = batch_.errors();
    std::size_t best = 0;
    for (std::size_t idx = 1; idx < lanes; ++idx)
      if (error_k[idx] < error_k[best]) best = idx;

    // Monotone descent guard: never adopt a candidate worse than the
    // pre-sweep error.  Unlike the fixed-width solver the ladder here
    // can still change shape, so retry at full width, keeping theta
    // (result.error still holds head.error); only a full-width sweep
    // that fails to improve is a true stall.  Projected descent
    // (clamp_to_limits) is exempt — see QuickIkSolver.
    if (!options_.clamp_to_limits && !(error_k[best] < head.error)) {
      if (spec == options_.speculations) return StepOutcome::kStalled;
      spec = options_.speculations;
      return StepOutcome::kMeasured;
    }

    batch_.candidateInto(best, result.theta);
    result.error = error_k[best];

    // Adapt: boundary winner (top quarter of the range) means the full
    // Eq. 8 step is near-optimal — shrink the search; interior winner
    // means curvature — widen it again.
    const int k_best = static_cast<int>(best) + 1;
    if (4 * k_best > 3 * spec) {
      spec = std::max(min_spec_, spec / 2);
    } else {
      spec = std::min(options_.speculations, spec * 2);
    }
    return StepOutcome::kMeasured;
  };
  return iterate(target, seed, headStalls, step);
}

}  // namespace dadu::ik
