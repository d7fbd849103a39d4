// End-to-end pipeline: the role fast IK plays inside a robot software
// stack.  Collision-aware Quick-IK produces a goal configuration for a
// task-space target behind an obstacle field; RRT-Connect plans a
// collision-free joint path to it; the control-loop simulation then
// executes the reach with IKAcc-class solver latency.
#include <cstdio>

#include "dadu/dadu.hpp"

int main() {
  const auto chain = dadu::kin::makeSerpentine(12);
  const dadu::geom::RobotGeometry body(chain, 0.02);
  const dadu::geom::Obstacles obstacles = {
      {{0.55, 0.25, 0.15}, 0.12},
      {{0.35, -0.3, 0.3}, 0.1},
  };

  // Start: mild bend.  Goal target: sampled reachable position.
  dadu::linalg::VecX start(chain.dof());
  for (std::size_t i = 0; i < start.size(); ++i)
    start[i] = (i % 2 == 0) ? 0.2 : -0.15;
  const auto task = dadu::workload::generateTask(chain, 6);
  std::printf("Reach target [%.2f, %.2f, %.2f] through %zu obstacles\n",
              task.target.x, task.target.y, task.target.z, obstacles.size());

  // 1. Goal configuration via collision-aware IK.
  dadu::geom::CollisionAwareSolver ik(
      std::make_unique<dadu::ik::QuickIkSolver>(chain, dadu::ik::SolveOptions{}),
      body, obstacles, 0.01, 12, 3, /*check_self=*/false);
  const auto goal = ik.solve(task.target, start);
  if (!goal.success()) {
    std::printf("IK: no collision-free goal configuration found\n");
    return 1;
  }
  std::printf("1. IK: free goal config after %d attempt(s), clearance %.3f m\n",
              goal.attempts, goal.clearance);

  // 2. Joint path via RRT-Connect.
  dadu::plan::RrtOptions options;
  options.margin = 0.005;
  options.seed = 9;
  dadu::plan::RrtPlanner planner(body, obstacles, options);
  const auto plan = planner.plan(start, goal.solve.theta);
  if (!plan.success) {
    std::printf("2. RRT: no path found in %d iterations\n", plan.iterations);
    return 1;
  }
  std::printf("2. RRT: %zu-waypoint path, joint length %.2f rad, %d tree "
              "iterations\n",
              plan.path.size(), plan.path_length, plan.iterations);

  // 3. Execute: track the task-space positions of the planned path
  //    with a 1 kHz controller and IKAcc-class solver latency.
  std::vector<dadu::linalg::Vec3> task_path;
  task_path.reserve(plan.path.size());
  for (const auto& q : plan.path)
    task_path.push_back(dadu::kin::endEffectorPosition(chain, q));

  dadu::ik::QuickIkSolver tracker(chain, {});
  const dadu::IkOracle oracle =
      [&](const dadu::linalg::Vec3& target, const dadu::linalg::VecX& warm) {
        return tracker.solve(target, warm).theta;
      };
  const dadu::Reference reference = [&](double t) {
    const double s = std::min(t / 3.0, 1.0) *
                     static_cast<double>(task_path.size() - 1);
    const std::size_t i = std::min(static_cast<std::size_t>(s),
                                   task_path.size() - 2);
    const double frac = s - static_cast<double>(i);
    return task_path[i] + (task_path[i + 1] - task_path[i]) * frac;
  };
  dadu::ControlLoopConfig config;
  config.solver_latency_s = 0.5e-3;  // IKAcc class
  config.duration_s = 3.5;
  const auto run = dadu::simulateTracking(chain, reference, oracle,
                                          start, config);
  std::printf("3. Execute: final task error %.1f mm after %.1f s (%d IK "
              "solves at 0.5 ms latency)\n",
              run.error_trace.back() * 1e3, config.duration_s, run.ik_solves);

  return run.error_trace.back() < 0.05 ? 0 : 1;
}
