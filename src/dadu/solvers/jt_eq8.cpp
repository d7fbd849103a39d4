#include "dadu/solvers/jt_eq8.hpp"

namespace dadu::ik {

SolveResult JtEq8Solver::solve(const linalg::Vec3& target,
                               const linalg::VecX& seed) {
  return iterate(target, seed, headStalls,
                 [this](const JtIterationHead& head, SolveResult& result) {
                   return gainStep(head.alpha_base, result);
                 });
}

}  // namespace dadu::ik
