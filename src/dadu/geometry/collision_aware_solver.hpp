// Collision-aware IK: wraps any solver with a collision filter and
// deterministic restarts until a collision-free solution is found.
//
// Redundant manipulators have continuum solution sets for one target;
// restarting the inner solver from different random configurations
// samples distinct basins and usually finds a free solution within a
// few attempts.  The wrapper is solver-agnostic: it needs nothing from
// the inner solver beyond solve().
#pragma once

#include <cstdint>
#include <memory>

#include "dadu/geometry/robot_geometry.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu::geom {

struct CollisionAwareResult {
  ik::SolveResult solve;       ///< best attempt's solver result
  bool collision_free = false; ///< the returned theta passed the filter
  int attempts = 0;
  double clearance = 0.0;      ///< min clearance of the returned theta

  bool success() const { return solve.converged() && collision_free; }
};

class CollisionAwareSolver {
 public:
  /// Takes ownership of `inner`; `margin` is the required clearance.
  /// `check_self` additionally enforces self-clearance — appropriate
  /// for sparse arms; hyper-redundant snakes with coarse capsule
  /// models usually disable it (their proxy capsules overlap in almost
  /// every useful pose) and rely on a finer body model instead.
  CollisionAwareSolver(std::unique_ptr<ik::IkSolver> inner,
                       RobotGeometry geometry, Obstacles obstacles,
                       double margin = 0.0, int max_attempts = 8,
                       std::uint64_t restart_seed = 1, bool check_self = true);

  CollisionAwareResult solve(const linalg::Vec3& target,
                             const linalg::VecX& seed);

  const RobotGeometry& geometry() const { return geometry_; }
  const Obstacles& obstacles() const { return obstacles_; }

 private:
  std::unique_ptr<ik::IkSolver> inner_;
  RobotGeometry geometry_;
  Obstacles obstacles_;
  double margin_;
  int max_attempts_;
  std::uint64_t restart_seed_;
  bool check_self_;
};

}  // namespace dadu::geom
