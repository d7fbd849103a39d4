// Abstract IK solver interface.
//
// A solver is constructed for one chain (so it can pre-allocate all
// per-iteration workspaces: high-DOF real-time control cannot afford
// per-solve allocation) and then solves any number of targets.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <string>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"
#include "dadu/platform/clock.hpp"
#include "dadu/solvers/types.hpp"

namespace dadu::ik {

/// One request's slot in a multi-target solveMany() call.  `seed` is
/// borrowed — the caller keeps it alive for the duration of the call.
struct BatchLane {
  linalg::Vec3 target;
  const linalg::VecX* seed = nullptr;
  /// Per-lane cooperative watchdog deadline; the default (the epoch)
  /// means unbounded, mirroring SolveOptions::deadline.
  std::chrono::steady_clock::time_point deadline{};
};

/// Outcome of one solveMany() lane.
struct BatchLaneResult {
  SolveResult result;
  /// The lane's own solve time in milliseconds, read on the solver's
  /// clock: from the start of this lane's solve() to its return.  Time
  /// the lane spent waiting for earlier batchmates is not included.
  double solve_ms = 0.0;
  /// Set when the lane failed instead of producing a result (invalid
  /// inputs, injected fault).  Failures are per lane: batchmates still
  /// complete normally.
  std::exception_ptr error;
};

class IkSolver {
 public:
  virtual ~IkSolver() = default;

  /// Solve for `target`, starting from joint configuration `seed`.
  /// Throws std::invalid_argument on seed-size mismatch or non-finite
  /// target.
  virtual SolveResult solve(const linalg::Vec3& target,
                            const linalg::VecX& seed) = 0;

  /// Solve `n` independent lanes, one after another: per lane,
  /// setDeadline(lanes[i].deadline) + solve(...), so statuses and
  /// thetas are bit-for-bit those of direct solve() calls.  Exceptions
  /// are captured per lane into BatchLaneResult::error, never thrown,
  /// so one bad request cannot poison its batchmates.  Leaves the
  /// solver's watchdog deadline cleared.
  void solveMany(const BatchLane* lanes, BatchLaneResult* out,
                 std::size_t n);

  /// Stable identifier ("jt-serial", "quick-ik", ...) used by benches
  /// and reports.
  virtual std::string name() const = 0;

  /// Arm (or clear, with the default time_point) the cooperative
  /// watchdog deadline for subsequent solve() calls — the per-request
  /// hook the serving layer uses on its per-worker solver instances.
  /// JtSolver's iteration loop checks it at every head, CCD once per
  /// sweep, and RestartSolver forwards it to its inner solver.  The
  /// base implementation ignores it, so the solvers that do not
  /// override it (the pose and tree solvers) run to their iteration
  /// budget.
  virtual void setDeadline(std::chrono::steady_clock::time_point) {}

  /// Point the solver at a Clock (null = real steady clock).  Watchdog
  /// deadline checks and solveMany per-lane timing read this clock, so
  /// a solver handed a SimClock times out and stamps latencies on
  /// simulated time.  Owned by the caller; must outlive the solver's
  /// use of it.
  void setClock(const platform::Clock* clock) { clock_ = clock; }
  const platform::Clock* clock() const { return clock_; }

  virtual const kin::Chain& chain() const = 0;
  virtual const SolveOptions& options() const = 0;

 protected:
  /// One read of the solver's clock through the seam.
  platform::Clock::time_point clockNow() const {
    return platform::clockNow(clock_);
  }

 private:
  const platform::Clock* clock_ = nullptr;
};

}  // namespace dadu::ik
