// Serial kinematic chain: the robot model every solver and the
// accelerator simulator operate on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dadu/kinematics/joint.hpp"
#include "dadu/linalg/mat4.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin {

/// An open serial chain of joints with an optional fixed base frame.
///
/// Invariant: after construction the chain has at least one joint and
/// all DH rows are finite (validated; violations throw).
class Chain {
 public:
  Chain() = default;
  explicit Chain(std::vector<Joint> joints, std::string name = "chain",
                 linalg::Mat4 base = linalg::Mat4::identity());

  std::size_t dof() const { return joints_.size(); }
  const std::vector<Joint>& joints() const { return joints_; }
  const Joint& joint(std::size_t i) const { return joints_[i]; }
  const linalg::Mat4& base() const { return base_; }
  const std::string& name() const { return name_; }

  /// Per-joint DH constants, 4 doubles per joint: cos/sin of the link
  /// twist alpha, then cos/sin of the fixed theta offset.  Filled once
  /// by the constructor (joints are immutable afterwards) with the same
  /// libm calls dhTransformRevolute/Prismatic make, so the scalar FK
  /// that reads it matches products of Joint::transform entry for entry
  /// (up to the sign of zero).
  const double* dhTrig() const { return dh_trig_.data(); }

  /// Sum of |a| + |d| over all joints: an upper bound on the distance
  /// from base to end-effector, used by workspace sampling.
  double maxReach() const;

  /// True iff every component of q is within its joint's limits.
  bool withinLimits(const linalg::VecX& q) const;

  /// Clamp a joint vector into the chain's limits, component-wise.
  linalg::VecX clampToLimits(const linalg::VecX& q) const;

  /// Zero joint vector of the right length.
  linalg::VecX zeroConfiguration() const { return linalg::VecX(dof()); }

  /// Throws std::invalid_argument if q.size() != dof(); the uniform
  /// precondition check of every kinematics entry point.
  void requireSize(const linalg::VecX& q) const;

 private:
  std::vector<Joint> joints_;
  std::string name_;
  linalg::Mat4 base_ = linalg::Mat4::identity();
  std::vector<double> dh_trig_;
};

}  // namespace dadu::kin
