#include "dadu/solvers/restart.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace dadu::ik {
namespace {

// Local SplitMix64: restart configurations must be reproducible and
// independent of the workload library.
struct SplitMix64 {
  std::uint64_t state;
  double angle() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return (2.0 * u - 1.0) * std::numbers::pi;
  }
};

}  // namespace

RestartSolver::RestartSolver(std::unique_ptr<IkSolver> inner, int max_restarts,
                             std::uint64_t restart_seed)
    : inner_(std::move(inner)),
      max_restarts_(max_restarts),
      restart_seed_(restart_seed) {
  if (!inner_) throw std::invalid_argument("RestartSolver: null inner solver");
  if (max_restarts_ < 0)
    throw std::invalid_argument("RestartSolver: negative restart count");
}

SolveResult RestartSolver::solve(const linalg::Vec3& target,
                                 const linalg::VecX& seed) {
  SolveResult best = inner_->solve(target, seed);
  last_attempts_ = 1;
  long long total_iterations = best.iterations;
  long long total_fk = best.fk_evaluations;
  long long total_load = best.speculation_load;
  if (best.converged() || best.status == Status::kTimedOut) return best;

  SplitMix64 rng{restart_seed_ ^
                 (static_cast<std::uint64_t>(
                      std::llround(target.x * 1e6 + target.y * 1e3)) *
                  0x2545f4914f6cdd1dULL)};
  const kin::Chain& robot = inner_->chain();

  for (int attempt = 0; attempt < max_restarts_; ++attempt) {
    linalg::VecX restart(robot.dof());
    for (std::size_t i = 0; i < restart.size(); ++i)
      restart[i] = robot.joint(i).clamp(rng.angle());

    SolveResult r = inner_->solve(target, restart);
    ++last_attempts_;
    total_iterations += r.iterations;
    total_fk += r.fk_evaluations;
    total_load += r.speculation_load;
    const bool timed_out = r.status == Status::kTimedOut;
    if (r.error < best.error || r.converged()) best = std::move(r);
    if (best.converged()) break;
    if (timed_out) {
      best.status = Status::kTimedOut;
      break;
    }
  }

  best.iterations = static_cast<int>(total_iterations);
  best.fk_evaluations = total_fk;
  best.speculation_load = total_load;
  return best;
}

}  // namespace dadu::ik
