#include "dadu/solvers/jt_serial.hpp"

namespace dadu::ik {

SolveResult JtSerialSolver::solve(const linalg::Vec3& target,
                                  const linalg::VecX& seed) {
  // The original method's fixed-gain update (Eq. 7 with constant
  // alpha); the Eq. 8 value computed by the head is ignored here.
  return iterate(target, seed, headStalls,
                 [this](const JtIterationHead&, SolveResult& result) {
                   return gainStep(alpha_, result);
                 });
}

}  // namespace dadu::ik
