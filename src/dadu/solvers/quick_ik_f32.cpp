#include "dadu/solvers/quick_ik_f32.hpp"

#include <stdexcept>

#include "dadu/kinematics/forward.hpp"

namespace dadu::ik {

QuickIkF32Solver::QuickIkF32Solver(kin::Chain chain, SolveOptions options)
    : JtSolver(std::move(chain), options) {
  if (options_.speculations < 1)
    throw std::invalid_argument(
        "Quick-IK (f32) requires at least 1 speculation");
  batch_.reset(chain_, static_cast<std::size_t>(options_.speculations));
}

SolveResult QuickIkF32Solver::solve(const linalg::Vec3& target,
                                    const linalg::VecX& seed) {
  const int max_spec = options_.speculations;
  const auto lanes = static_cast<std::size_t>(max_spec);

  // The serial head runs in double (SPU datapath) inside iterate().
  const auto step = [&](const JtIterationHead& head, SolveResult& result) {
    // Speculative searches on the float datapath (SSU/FKU array): one
    // batched chain walk with every FK intermediate held in float.
    // Candidates are formed in double and never clamped, exactly like
    // the scalar f32 path; the f32 walk takes per-lane trig.
    batch_.evaluateLadder(chain_, result.theta, ws_.dtheta_base,
                          head.alpha_base, lanes, target,
                          /*clamp_to_limits=*/false, 0, lanes);
    result.fk_evaluations += max_spec;
    result.speculation_load += max_spec;
    ++result.iterations;

    const std::vector<double>& error_k = batch_.errors();
    std::size_t best = 0;
    for (std::size_t idx = 1; idx < lanes; ++idx)
      if (error_k[idx] < error_k[best]) best = idx;

    // Stage the winner and re-measure it in double before adopting —
    // both for honest accuracy (a hardware build would do the final
    // check on the host controller anyway) and so a float-datapath
    // "winner" that regresses past the pre-sweep error never replaces
    // the current theta.
    batch_.candidateInto(best, candidate_);
    const double candidate_error =
        (target - kin::endEffectorPosition(chain_, candidate_)).norm();
    ++result.fk_evaluations;

    if (!(candidate_error < head.error)) return StepOutcome::kStalled;
    result.theta = candidate_;
    result.error = candidate_error;
    return StepOutcome::kMeasured;
  };
  return iterate(target, seed, headStalls, step);
}

}  // namespace dadu::ik
