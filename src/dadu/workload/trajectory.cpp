#include "dadu/workload/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dadu/kinematics/workspace.hpp"

namespace dadu::workload {

std::vector<linalg::Vec3> lineTrajectory(const linalg::Vec3& a,
                                         const linalg::Vec3& b, int points) {
  std::vector<linalg::Vec3> path;
  path.reserve(std::max(points, 1));
  if (points <= 1) {
    path.push_back(a);
    return path;
  }
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / (points - 1);
    path.push_back(a + (b - a) * t);
  }
  return path;
}

std::vector<linalg::Vec3> circleTrajectory(const linalg::Vec3& center,
                                           double radius,
                                           const linalg::Vec3& u,
                                           const linalg::Vec3& v, int points) {
  // Gram-Schmidt orthonormalisation of the plane basis.
  const linalg::Vec3 e1 = u.normalized();
  linalg::Vec3 w = v - e1 * v.dot(e1);
  const linalg::Vec3 e2 = w.normalized();

  std::vector<linalg::Vec3> path;
  path.reserve(std::max(points, 1));
  for (int i = 0; i < points; ++i) {
    const double t =
        2.0 * std::numbers::pi * static_cast<double>(i) / std::max(points, 1);
    path.push_back(center + e1 * (radius * std::cos(t)) +
                   e2 * (radius * std::sin(t)));
  }
  return path;
}

std::vector<linalg::Vec3> lissajousTrajectory(const linalg::Vec3& center,
                                              double amplitude, int a, int b,
                                              int c, double phase,
                                              int points) {
  std::vector<linalg::Vec3> path;
  path.reserve(std::max(points, 1));
  for (int i = 0; i < points; ++i) {
    const double t =
        2.0 * std::numbers::pi * static_cast<double>(i) / std::max(points, 1);
    path.push_back(center + linalg::Vec3{std::sin(a * t),
                                         std::sin(b * t + phase),
                                         std::sin(c * t)} *
                                amplitude);
  }
  return path;
}

std::vector<linalg::Vec3> fitToWorkspace(const kin::Chain& chain,
                                         std::vector<linalg::Vec3> path,
                                         double margin_fraction) {
  if (path.empty()) return path;
  const kin::ReachBall ball = kin::reachBall(chain);
  const double allowed = ball.radius * (1.0 - margin_fraction);

  double worst = 0.0;
  for (const auto& p : path)
    worst = std::max(worst, (p - ball.center).norm());
  if (worst <= allowed || worst == 0.0) return path;

  const double scale = allowed / worst;
  for (auto& p : path) p = ball.center + (p - ball.center) * scale;
  return path;
}

}  // namespace dadu::workload
