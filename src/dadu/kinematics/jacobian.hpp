// Geometric position Jacobian (3 x N), Eq. 3 of the paper.
//
// For a revolute joint i with rotation axis z_{i-1} (expressed in the
// base frame) and frame origin p_{i-1}:
//
//   J_i = z_{i-1} x (p_N - p_{i-1})
//
// which is exactly the paper's Fig. 3 formulation J_i = {1}T_i.M *
// (^1T_N.P - ^1T_i.P) with the rotation block selecting the axis.  For
// a prismatic joint J_i = z_{i-1}.
//
// A finite-difference Jacobian is provided for verification only.
#pragma once

#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/matx.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin {

/// Compute J(q) into `j` (resized to 3 x dof).  `frames` is scratch for
/// the link frames; passing the same objects across iterations avoids
/// per-iteration allocation.  Also returns the end-effector position of
/// the same evaluation through `ee` so solvers do one FK pass per
/// iteration, mirroring the SPU pipeline which produces {1}T_N and J in
/// one sweep.
void positionJacobian(const Chain& chain, const linalg::VecX& q,
                      linalg::MatX& j, std::vector<linalg::Mat4>& frames,
                      linalg::Vec3& ee);

/// Allocating convenience overload.
linalg::MatX positionJacobian(const Chain& chain, const linalg::VecX& q);

/// Central-difference numerical Jacobian (verification reference).
linalg::MatX finiteDifferenceJacobian(const Chain& chain,
                                      const linalg::VecX& q,
                                      double h = 1e-6);

/// Multiply-add count of one analytic Jacobian evaluation (the SPU's
/// per-iteration serial work): N DH transforms + N 4x4 multiplies + N
/// cross products + the JJ^T E accumulation.  Dense 4x4 products by
/// design: it parameterises the paper's platform models (Tables 2 and
/// 3), not this library's structured compose.
long long jacobianFlops(std::size_t dof);

}  // namespace dadu::kin
