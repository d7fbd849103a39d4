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
// positionJacobian is the serial head of every Jacobian-transpose
// solver, evaluated in three passes:
//
//   1. trig prepass: the N revolute angles theta0_i + q_i go through
//      SpecBackend::sinCos of the dispatched backend in one call — the
//      speculation walk's own sin/cos (specSinCos), a vector at a time;
//   2. compose: base to tip with composeDh, keeping only each joint's
//      axis z_{i-1} and origin p_{i-1} as six SoA rows (no 4x4 link
//      frames are written);
//   3. columns: J_i = z_{i-1} x (p_N - p_{i-1}) over those rows.
//
// Its bits therefore differ from a libm compose (forwardKinematics,
// linkFrames) by the trig alone, within 2 ULP per angle; for identical
// (cos, sin) every product and sum is the same.
//
// A finite-difference Jacobian is provided for verification only.
#pragma once

#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/matx.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin {

/// Reusable scratch of positionJacobian, sized on first use.
struct JacobianScratch {
  std::vector<double> trig;   ///< 3 x N: joint angles, their sin, their cos
  std::vector<double> frame;  ///< 6 x N: z_{i-1} x, y, z; p_{i-1} x, y, z
};

/// Compute J(q) into `j` (resized to 3 x dof) and the end-effector
/// position of the same evaluation into `ee`, so solvers do one FK pass
/// per iteration, mirroring the SPU pipeline which produces {1}T_N and
/// J in one sweep.  Passing the same `j` and `scratch` across
/// iterations avoids per-iteration allocation.
void positionJacobian(const Chain& chain, const linalg::VecX& q,
                      linalg::MatX& j, JacobianScratch& scratch,
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
/// 3), not positionJacobian's structured compose.
long long jacobianFlops(std::size_t dof);

}  // namespace dadu::kin
