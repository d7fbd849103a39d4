#include "dadu/solvers/jt_fixed_alpha.hpp"

namespace dadu::ik {

SolveResult JtFixedAlphaSolver::solve(const linalg::Vec3& target,
                                      const linalg::VecX& seed) {
  return iterate(target, seed, headStalls,
                 [this](const JtIterationHead&, SolveResult& result) {
                   return gainStep(alpha_, result);
                 });
}

}  // namespace dadu::ik
