// Jacobian transpose with a fixed scalar step size.
//
// Ablation baseline: the paper motivates Eq. 8 (and then Quick-IK's
// speculative search) by the sensitivity of the transpose method to
// alpha — "for a sufficiently small alpha > 0 the error decreases",
// but tiny alpha crawls.  This solver makes that trade-off measurable.
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class JtFixedAlphaSolver final : public JtSolver {
 public:
  JtFixedAlphaSolver(kin::Chain chain, SolveOptions options, double alpha)
      : JtSolver(std::move(chain), options), alpha_(alpha) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "jt-fixed-alpha"; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
};

}  // namespace dadu::ik
