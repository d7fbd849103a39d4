// Forward kinematics: f(theta) = base * prod_i {i-1}T_i  (Eq. 10).
//
// Two entry points: the end-effector-only evaluation used inside every
// speculative search (the SSU/FKU workload), and the all-frames
// evaluation the Jacobian needs (the SPU's {1}T_i sequence).
#pragma once

#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat4.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin {

/// End-effector pose for joint vector q.
linalg::Mat4 forwardKinematics(const Chain& chain, const linalg::VecX& q);

/// End-effector position only — the f(theta_k) of Algorithm 1 line 10.
linalg::Vec3 endEffectorPosition(const Chain& chain, const linalg::VecX& q);

/// Cumulative frames {0}T_i for i = 1..N (frames[i-1] is the pose of
/// joint i's distal frame in the base frame).  frames.back() equals
/// forwardKinematics().  The output vector is reused when its size
/// already matches (no per-iteration allocation on solver hot paths).
void linkFrames(const Chain& chain, const linalg::VecX& q,
                std::vector<linalg::Mat4>& frames);

/// Convenience allocating overload.
std::vector<linalg::Mat4> linkFrames(const Chain& chain,
                                     const linalg::VecX& q);

/// Number of floating-point multiply-adds one end-effector FK costs
/// (N 4x4 matrix multiplies + trig); the unit of the paper's Fig. 5b
/// "computation load" axis and of the platform timing models.  It
/// counts the paper's dense product on purpose — the Atom/TX1 models
/// of Tables 2 and 3 are calibrated against it — not the structured
/// compose forwardKinematics runs.
long long fkFlops(std::size_t dof);

}  // namespace dadu::kin
