// Name-based solver construction for benches, examples and the engine.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu::ik {

/// Known solver names:
///   "jt-serial"       original Jacobian transpose (fixed stability-safe
///                     gain, the paper's JT-Serial baseline)
///   "jt-eq8"          Jacobian transpose with the Eq. 8 step size each
///                     iteration (ablation: alpha_base without speculation)
///   "jt-fixed-alpha"  Jacobian transpose, fixed alpha = 0.05
///   "jt-momentum"     Jacobian transpose + heavy-ball momentum (ablation)
///   "quick-ik"        Algorithm 1, speculations in one batched walk
///   "quick-ik-f32"    Algorithm 1, speculative FK on an FP32 datapath
///   "quick-ik-adaptive"  Algorithm 1 with an adaptive speculation count
///   "pinv-svd"        SVD pseudoinverse (KDL-style baseline)
///   "dls"             damped least squares
///   "sdls"            selectively damped least squares [20]
///   "ccd"             cyclic coordinate descent [4]
std::vector<std::string> solverNames();

/// Construct by name; throws std::invalid_argument for unknown names.
std::unique_ptr<IkSolver> makeSolver(const std::string& name,
                                     const kin::Chain& chain,
                                     const SolveOptions& options);

}  // namespace dadu::ik
