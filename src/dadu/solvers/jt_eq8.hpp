// Jacobian transpose with the per-iteration near-optimal step size of
// Eq. 8 (Buss [11]):
//
//     alpha = (e . JJ^T e) / (JJ^T e . JJ^T e)
//
// i.e. the exact line search on the linearised error.  This is the
// alpha_base Quick-IK speculates *around*; running it alone isolates
// how much of Quick-IK's gain comes from Eq. 8 itself versus from the
// speculative search (the paper: Eq. 8 "just gives a near-optimal
// value ... which leads limited acceleration").  Used by the
// alpha-strategy ablation bench.
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class JtEq8Solver final : public JtSolver {
 public:
  JtEq8Solver(kin::Chain chain, SolveOptions options)
      : JtSolver(std::move(chain), options) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "jt-eq8"; }
};

}  // namespace dadu::ik
