// Task-space trajectory generators for the tracking examples and the
// warm-start evaluation: sequences of nearby targets, as produced by a
// robot controller commanding the end-effector along a path.
#pragma once

#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/vec.hpp"

namespace dadu::workload {

/// Straight line from a to b, inclusive endpoints.
std::vector<linalg::Vec3> lineTrajectory(const linalg::Vec3& a,
                                         const linalg::Vec3& b, int points);

/// Circle of `radius` around `center` in the plane spanned by `u`, `v`
/// (orthonormalised internally).
std::vector<linalg::Vec3> circleTrajectory(const linalg::Vec3& center,
                                           double radius,
                                           const linalg::Vec3& u,
                                           const linalg::Vec3& v, int points);

/// 3-D Lissajous figure: center + A*(sin(a t), sin(b t + phase), sin(c t)).
std::vector<linalg::Vec3> lissajousTrajectory(const linalg::Vec3& center,
                                              double amplitude, int a, int b,
                                              int c, double phase, int points);

/// Scale/translate a trajectory so every point lies inside the chain's
/// reach ball with the given margin fraction; keeps the path shape.
std::vector<linalg::Vec3> fitToWorkspace(const kin::Chain& chain,
                                         std::vector<linalg::Vec3> path,
                                         double margin_fraction = 0.2);

}  // namespace dadu::workload
