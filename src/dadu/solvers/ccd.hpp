// Cyclic Coordinate Descent [4] — the classic geometric baseline the
// paper's related-work section contrasts with (single-end-effector
// only, which is exactly our setting).
//
// One iteration sweeps the joints from the end-effector towards the
// base; each revolute joint is rotated by the angle that best aligns
// the joint->end-effector vector with the joint->target vector in the
// plane perpendicular to the joint axis (closed form via atan2).
// Iteration counts are comparable to other first-order methods but
// each sweep costs O(N) FK updates, i.e. O(N^2) work.  The watchdog
// deadline is checked once per sweep, after the converged check (the
// order JtSolver::iterate uses).
#pragma once

#include "dadu/solvers/ik_solver.hpp"
#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class CcdSolver final : public IkSolver {
 public:
  CcdSolver(kin::Chain chain, SolveOptions options)
      : chain_(std::move(chain)), options_(options) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "ccd"; }
  const kin::Chain& chain() const override { return chain_; }
  const SolveOptions& options() const override { return options_; }
  void setDeadline(std::chrono::steady_clock::time_point d) override {
    options_.deadline = d;
  }

 private:
  kin::Chain chain_;
  SolveOptions options_;
  std::vector<linalg::Mat4> frames_;
};

}  // namespace dadu::ik
