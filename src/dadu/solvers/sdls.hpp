// Selectively damped least squares — Buss & Kim [20], the strongest
// related-work pseudoinverse variant the paper cites ("Buss adopted a
// selectively damped least squares to accelerate the convergence of
// the pseudoinverse method, but the improvement is limited").
//
// Per singular direction i of J = sum_i sigma_i u_i v_i^T, the joint
// step (1/sigma_i)(u_i . e) v_i is individually clamped by a bound
// gamma_i derived from how much end-effector motion a unit joint
// motion in that direction can produce, then the summed step is
// clamped again by gamma_max.  Retains pseudoinverse-like iteration
// counts while staying stable near singularities without a global
// damping constant.
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class SdlsSolver final : public JtSolver {
 public:
  SdlsSolver(kin::Chain chain, SolveOptions options,
             double gamma_max = 0.7853981633974483 /* pi/4 */)
      : JtSolver(std::move(chain), options), gamma_max_(gamma_max) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "sdls"; }

 private:
  double gamma_max_;
};

}  // namespace dadu::ik
