// Reaching around obstacles: the deployment-side workflow around the
// core solver — plain Quick-IK, which is oblivious to obstacles, against
// collision-filtered IK with restarts.
#include <cstdio>

#include "dadu/dadu.hpp"

int main() {
  const auto chain = dadu::kin::makeSerpentine(25);
  const dadu::geom::RobotGeometry body(chain, /*link_radius=*/0.02);

  const auto task = dadu::workload::generateTask(chain, 11);
  std::printf("Robot: %s | target [%.2f, %.2f, %.2f]\n", chain.name().c_str(),
              task.target.x, task.target.y, task.target.z);

  // Two ball obstacles flanking the target.
  const dadu::geom::Obstacles obstacles = {
      {task.target + dadu::linalg::Vec3{0.18, 0.10, 0.0}, 0.08},
      {task.target + dadu::linalg::Vec3{-0.12, -0.15, 0.1}, 0.06},
  };

  // --- Plain Quick-IK: reaches the target, oblivious to obstacles ---
  dadu::ik::QuickIkSolver plain(chain, {});
  const auto r_plain = plain.solve(task.target, task.seed);
  const double clear_plain =
      body.environmentClearance(r_plain.theta, obstacles);
  std::printf("Plain Quick-IK:   %s, obstacle clearance %+.3f m%s\n",
              dadu::ik::toString(r_plain.status).c_str(), clear_plain,
              clear_plain < 0 ? "  << collides" : "");

  // --- Collision-aware wrapper: restarts until a free branch -------
  dadu::geom::CollisionAwareSolver aware(
      std::make_unique<dadu::ik::QuickIkSolver>(chain, dadu::ik::SolveOptions{}),
      body, obstacles, /*margin=*/0.01, /*max_attempts=*/12,
      /*restart_seed=*/3, /*check_self=*/false);
  const auto r_aware = aware.solve(task.target, task.seed);
  std::printf(
      "Collision-aware:  %s after %d attempt(s), clearance %+.3f m\n",
      r_aware.success() ? "free solution" : "no free solution",
      r_aware.attempts, r_aware.clearance);

  return r_aware.success() ? 0 : 1;
}
