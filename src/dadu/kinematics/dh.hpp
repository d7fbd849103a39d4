// Denavit-Hartenberg parameters and per-joint transformation matrices.
//
// The paper's Eq. 10 writes forward kinematics as f(theta) =
// prod_{i=1..N} {i-1}T_i where {i-1}T_i is the 4x4 transformation
// matrix of joint i.  We use the standard (distal) DH convention:
//
//   {i-1}T_i = RotZ(theta_i) * TransZ(d_i) * TransX(a_i) * RotX(alpha_i)
//
// For a revolute joint theta_i is the joint variable (plus a fixed
// offset); for a prismatic joint d_i is.
#pragma once

#include <cmath>

#include "dadu/linalg/mat4.hpp"

namespace dadu::kin {

/// One row of a DH table.
struct DhParam {
  double a = 0.0;      ///< link length (m), along x_i
  double alpha = 0.0;  ///< link twist (rad), about x_i
  double d = 0.0;      ///< link offset (m), along z_{i-1}
  double theta = 0.0;  ///< joint angle offset (rad), about z_{i-1}
};

/// {i-1}T_i from its trig values: ct/st of the total joint angle,
/// ca/sa of the link twist, and the total offset d along z.  Written out
/// in closed form — this is the matrix the accelerator's "Compute
/// {i-1}T_i" pipeline stage produces, and the FLOP counts in the cycle
/// model (4 trig + 16 mul + 8 add) match it.
inline linalg::Mat4 dhTransform(const DhParam& p, double ct, double st,
                                double ca, double sa, double d) {
  linalg::Mat4 t;
  t(0, 0) = ct; t(0, 1) = -st * ca; t(0, 2) = st * sa;  t(0, 3) = p.a * ct;
  t(1, 0) = st; t(1, 1) = ct * ca;  t(1, 2) = -ct * sa; t(1, 3) = p.a * st;
  t(2, 0) = 0;  t(2, 1) = sa;       t(2, 2) = ca;       t(2, 3) = d;
  t(3, 0) = 0;  t(3, 1) = 0;        t(3, 2) = 0;        t(3, 3) = 1;
  return t;
}

/// {i-1}T_i for a revolute joint at angle q (added to the table's fixed
/// theta offset).
inline linalg::Mat4 dhTransformRevolute(const DhParam& p, double q) {
  return dhTransform(p, std::cos(p.theta + q), std::sin(p.theta + q),
                     std::cos(p.alpha), std::sin(p.alpha), p.d);
}

/// {i-1}T_i for a prismatic joint with extension q (added to d).
inline linalg::Mat4 dhTransformPrismatic(const DhParam& p, double q) {
  return dhTransform(p, std::cos(p.theta), std::sin(p.theta),
                     std::cos(p.alpha), std::sin(p.alpha), p.d + q);
}

}  // namespace dadu::kin
