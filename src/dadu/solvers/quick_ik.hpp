// Quick-IK (Algorithm 1 of the paper): speculative parallel search over
// the step-size parameter of the Jacobian-transpose method.
//
// Each iteration computes the serial head (J, dtheta_base = J^T e,
// alpha_base per Eq. 8) and then evaluates `Max` speculative step sizes
//
//     alpha_k = (k / Max) * alpha_base,   k = 1..Max        (Eq. 9)
//
// each requiring one forward-kinematics pass f(theta + alpha_k
// dtheta_base).  The candidate with the smallest remaining error
// becomes the next iterate; any candidate already under the accuracy
// threshold ends the solve.  The speculation set spans (0, alpha_base]
// because the error is guaranteed to decrease for sufficiently small
// positive alpha while alpha_base is the near-optimal linearised step —
// searching between the two captures the best of both (Section 4,
// "Speculation strategy").
//
// The sweep itself runs through kin::BatchedForward: one chain walk
// carries all Max candidates' end-effector positions in SoA lanes,
// from the tip to the base (the software mirror of the paper's FKU
// array), in a single kernel call on the caller's thread.  The call is
// BatchedForward::evaluateLadder: since the alpha_k form an arithmetic
// ladder, the walk gives most candidates their joint (cos, sin) by one
// angle-addition rotation instead of their own trig.  Selection
// is a deterministic argmin with smallest-k tie-break, which is what
// lets the IKAcc simulator's functional output be validated against
// this class.
//
// The parallelism is the K speculations inside one iteration, carried
// by the walk's vector lanes: a burst of requests (IkSolver::solveMany)
// is solved one request at a time through solve(), since one request's
// K candidates already fill the vector registers.  Independent
// requests run in parallel across IkService workers.
#pragma once

#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class QuickIkSolver final : public JtSolver {
 public:
  QuickIkSolver(kin::Chain chain, SolveOptions options);

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;

  std::string name() const override { return "quick-ik"; }

 private:
  // Batched speculation workspace, sized once in the constructor and
  // reused every iteration: the SoA FK kernel owns the alpha ladder,
  // candidates, positions and errors.
  kin::BatchedForward batch_;
};

}  // namespace dadu::ik
