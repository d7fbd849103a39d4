// Common option/result types shared by every IK solver.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "dadu/linalg/vecx.hpp"

namespace dadu::ik {

/// Termination and algorithm parameters.  Defaults follow the paper's
/// evaluation setup (Section 6.1): accuracy 1e-2 m, at most 10k
/// iterations, 64 speculations.
struct SolveOptions {
  double accuracy = 1e-2;     ///< converged when ||Xt - f(theta)|| < accuracy
  int max_iterations = 10'000;
  int speculations = 64;      ///< Quick-IK speculation count ("Max" in Alg. 1)
  bool record_history = false;  ///< keep per-iteration error in the result
  bool clamp_to_limits = false; ///< project theta onto joint limits each step
  /// Cooperative watchdog: absolute wall-clock deadline for one solve.
  /// The default (the epoch) means unbounded.  The Jacobian-transpose
  /// family (JtSolver::iterate) checks it at each iteration head, after
  /// the converged and stalled checks, and stops with Status::kTimedOut,
  /// returning the best-so-far theta/error instead of running the full
  /// iteration budget — the serving layer's defence against a runaway
  /// solve outliving its request deadline.  Solvers outside the family
  /// (CCD, the pose and tree solvers) ignore it.
  std::chrono::steady_clock::time_point deadline{};

  bool hasDeadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
};

/// Why a solve ended.
enum class Status {
  kConverged,       ///< error below accuracy
  kMaxIterations,   ///< iteration budget exhausted
  kStalled,         ///< update direction vanished (J^T e ~ 0 away from target)
  kTimedOut,        ///< SolveOptions::deadline passed mid-solve (watchdog)
};

std::string toString(Status s);

/// Outcome of one IK solve, including the instrumentation the paper's
/// figures are built from.
struct SolveResult {
  Status status = Status::kMaxIterations;
  int iterations = 0;            ///< iterations executed
  long long fk_evaluations = 0;  ///< forward-kinematics passes (incl. speculative)
  /// Fig. 5b's "Speculations * Iterations" computation load: the total
  /// number of speculative searches executed (1 per iteration for the
  /// non-speculative methods).
  long long speculation_load = 0;
  double error = 0.0;            ///< final ||Xt - f(theta)||
  linalg::VecX theta;            ///< final joint angles
  std::vector<double> error_history;  ///< per-iteration error (if recorded)

  bool converged() const { return status == Status::kConverged; }
};

/// Aggregate statistics over a batch of solves (one paper table cell).
struct BatchStats {
  int count = 0;
  int converged = 0;
  double mean_iterations = 0.0;
  double mean_load = 0.0;       ///< mean speculation_load
  double mean_error = 0.0;
  double mean_time_ms = 0.0;    ///< filled by timing harnesses
  double total_time_ms = 0.0;

  double convergenceRate() const {
    return count == 0 ? 0.0 : static_cast<double>(converged) / count;
  }
};

/// Fold a result batch (without timing) into BatchStats.
BatchStats summarize(const std::vector<SolveResult>& results);

/// p-th percentile (0..100, nearest-rank) of the iteration counts in a
/// batch — tail behaviour matters for real-time budgets where the mean
/// hides worst-case solves.  Returns 0 for an empty batch.
double iterationPercentile(const std::vector<SolveResult>& results, double p);

}  // namespace dadu::ik
