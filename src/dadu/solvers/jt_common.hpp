// Shared machinery of the Jacobian-transpose family: every solver whose
// iteration starts with the serial head (J, e, dtheta_base = J^T e and
// alpha_base, the paper's SPU) and differs only in the update that
// follows — JT-Serial, fixed-alpha, Eq. 8 and momentum; the
// pseudoinverse, DLS and SDLS steps;
// Quick-IK and its adaptive and f32 variants; and IKAcc's model.
// JtSolver owns the iteration protocol they share; each solver
// supplies only its step.
#pragma once

#include <chrono>
#include <utility>

#include "dadu/kinematics/chain.hpp"
#include "dadu/kinematics/jacobian.hpp"
#include "dadu/linalg/matx.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu::ik {

/// Reusable per-iteration workspace for transpose-method solvers: the
/// Jacobian, the head's scratch and the base update direction.  One
/// instance per solver; sized on first use.
struct JtWorkspace {
  linalg::MatX j;                  // 3 x N Jacobian
  kin::JacobianScratch scratch;    // positionJacobian's trig and z/p rows
  linalg::VecX dtheta_base;        // J^T e
};

/// Result of the serial head of a transpose iteration: everything the
/// paper's SPU produces (J implicit in workspace, dtheta_base,
/// alpha_base) plus the current error.
struct JtIterationHead {
  linalg::Vec3 error_vec;   // e = Xt - f(theta)
  double error = 0.0;       // ||e||
  double alpha_base = 0.0;  // Eq. 8 step size
  bool stalled = false;     // J^T e vanished while error is nonzero
};

/// Evaluate J(theta), e, dtheta_base = J^T e and alpha_base =
/// (e . JJ^T e) / (JJ^T e . JJ^T e)  (Eq. 8).  Writes into `ws`.  J and
/// e come from kin::positionJacobian, whose trig is the speculation
/// walk's sin/cos (not libm), so e differs from endEffectorPosition's
/// by a few ULPs.
JtIterationHead jtIterationHead(const kin::Chain& chain,
                                const linalg::VecX& theta,
                                const linalg::Vec3& target, JtWorkspace& ws);

/// Validate solver inputs (seed size, finite target); throws
/// std::invalid_argument on violation.
void validateInputs(const kin::Chain& chain, const linalg::Vec3& target,
                    const linalg::VecX& seed);

/// Classical stability-safe constant gain for the *original* transpose
/// method (Wolovich & Elliott [6]): the update theta += alpha J^T e is
/// a gradient step on ||e||^2/2, stable when alpha < 2 / lambda_max(J
/// J^T).  lambda_max is largest at the fully stretched configuration
/// (theta = 0 for the DH presets), so
///
///     alpha = c / lambda_max(J J^T at theta = 0)
///
/// with c < 2 (default 1.9) is the per-robot constant a careful
/// classical implementation would pick.  This gain is what makes the
/// original method need thousands of iterations at high DOF (paper
/// Fig. 5a) — the gap Quick-IK closes.  A chain whose stretched
/// Jacobian vanishes gets alpha = c.
double stabilityGain(const kin::Chain& chain, double c = 1.9);

/// The head's task-space error e, rescaled to length `max_step` when it
/// is longer (a non-positive `max_step` disables the clamp): the
/// standard stabilisation that keeps a Newton-type step inside the
/// linearisation's region of validity.
linalg::Vec3 clampTaskStep(const JtIterationHead& head, double max_step);

/// What a solver's step did to the iterate; see JtSolver::iterate.
enum class StepOutcome {
  kMoved,     ///< theta moved; its error is unknown until the next head
  kMeasured,  ///< result.error already holds the error at result.theta
  kStalled,   ///< no progress is possible: the solve ends kStalled
};

/// Stall rules for JtSolver::iterate's `stalls` argument: stop when the
/// head's J^T e vanished, or never stop at the head (solvers whose step
/// detects its own stall).
inline bool headStalls(const JtIterationHead& head) { return head.stalled; }
inline bool neverStallsAtHead(const JtIterationHead&) { return false; }

/// Base of the Jacobian-transpose family: owns the chain, options and
/// head workspace, and the one iteration loop every member runs.
class JtSolver : public IkSolver {
 public:
  const kin::Chain& chain() const override { return chain_; }
  const SolveOptions& options() const override { return options_; }
  void setDeadline(std::chrono::steady_clock::time_point d) override {
    options_.deadline = d;
  }

 protected:
  JtSolver(kin::Chain chain, SolveOptions options)
      : chain_(std::move(chain)), options_(options) {}

  /// The iteration protocol (Algorithm 1's loop).  After
  /// validateInputs, each iteration runs, in order:
  ///   1. the head at result.theta (one FK evaluation), its error
  ///      recorded in the history and in result.error;
  ///   2. converged: the head's error is below the accuracy;
  ///   3. stalled: `stalls(head)` holds;
  ///   4. the watchdog: the options' deadline has passed on clock()
  ///      (kTimedOut, best-so-far theta);
  ///   5. `step(head, result)`, which updates result.theta and its own
  ///      counters and returns a StepOutcome.  A kMeasured step whose
  ///      error is below the accuracy ends the solve converged.
  /// When the budget runs out (or is zero), the error at theta is
  /// measured by one more head if the last step left it unknown;
  /// otherwise the known error is appended to the history.
  template <class Stalls, class Step>
  SolveResult iterate(const linalg::Vec3& target, const linalg::VecX& seed,
                      Stalls stalls, Step step);

  /// Ends a non-speculative step that has updated result.theta: projects
  /// it onto the joint limits when clamp_to_limits is set and counts one
  /// iteration of one search.
  StepOutcome moved(SolveResult& result) const {
    if (options_.clamp_to_limits)
      result.theta = chain_.clampToLimits(result.theta);
    ++result.iterations;
    ++result.speculation_load;
    return StepOutcome::kMoved;
  }

  /// The transpose update theta += alpha J^T e (Eq. 7).
  StepOutcome gainStep(double alpha, SolveResult& result) {
    linalg::axpy(alpha, ws_.dtheta_base, result.theta);
    return moved(result);
  }

  kin::Chain chain_;
  SolveOptions options_;
  JtWorkspace ws_;
};

template <class Stalls, class Step>
SolveResult JtSolver::iterate(const linalg::Vec3& target,
                              const linalg::VecX& seed, Stalls stalls,
                              Step step) {
  validateInputs(chain_, target, seed);

  SolveResult result;
  result.theta = seed;
  // Whether result.error is the error at result.theta: false before the
  // first head and after a kMoved step.
  bool measured = false;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const JtIterationHead head =
        jtIterationHead(chain_, result.theta, target, ws_);
    ++result.fk_evaluations;
    if (options_.record_history) result.error_history.push_back(head.error);
    result.error = head.error;

    if (head.error < options_.accuracy) {
      result.status = Status::kConverged;
      return result;
    }
    if (stalls(head)) {
      result.status = Status::kStalled;
      return result;
    }
    // Watchdog: bail with the best-so-far iterate before paying for
    // another step.  The classical method's thousands of tiny
    // iterations are exactly where an unbounded solve hides.  One read
    // of the solver's clock, so a solver handed a SimClock times out on
    // simulated time too.
    if (options_.hasDeadline() && clockNow() >= options_.deadline) {
      result.status = Status::kTimedOut;
      return result;
    }

    const StepOutcome outcome = step(head, result);
    if (outcome == StepOutcome::kStalled) {
      result.status = Status::kStalled;
      return result;
    }
    measured = outcome == StepOutcome::kMeasured;
    if (measured && result.error < options_.accuracy) break;
  }

  if (measured) {
    // The step's error was never recorded: the head logs only the
    // errors it measures.
    if (options_.record_history) result.error_history.push_back(result.error);
  } else {
    const JtIterationHead head =
        jtIterationHead(chain_, result.theta, target, ws_);
    ++result.fk_evaluations;
    result.error = head.error;
  }
  result.status = result.error < options_.accuracy ? Status::kConverged
                                                   : Status::kMaxIterations;
  return result;
}

}  // namespace dadu::ik
