// Quick-IK (Algorithm 1 of the paper): speculative parallel search over
// the step-size parameter of the Jacobian-transpose method.
//
// Each iteration computes the serial head (J, dtheta_base = J^T e,
// alpha_base per Eq. 8) and then evaluates `Max` speculative step sizes
//
//     alpha_k = (k / Max) * alpha_base,   k = 1..Max        (Eq. 9)
//
// each requiring one forward-kinematics pass f(theta + alpha_k
// dtheta_base).  The candidate with the smallest remaining error
// becomes the next iterate; any candidate already under the accuracy
// threshold ends the solve.  The speculation set spans (0, alpha_base]
// because the error is guaranteed to decrease for sufficiently small
// positive alpha while alpha_base is the near-optimal linearised step —
// searching between the two captures the best of both (Section 4,
// "Speculation strategy").
//
// The sweep itself runs through kin::BatchedForward: one chain walk
// carries all Max candidates' end-effector positions in SoA lanes,
// from the tip to the base (the software mirror of the paper's FKU
// array).  Execution is pluggable: inline (the paper's "Atom"
// single-thread row) evaluates the whole batch in one kernel call; the
// thread pool splits it into contiguous lane chunks, one per worker.
// Both produce bit-identical results — selection is a deterministic
// argmin with smallest-k tie-break — which is also what lets the IKAcc
// simulator's functional output be validated against this class.
//
// The parallelism is the K speculations inside one iteration: a burst
// of requests (IkSolver::solveMany) is solved one request at a time
// through solve(), since one request's K candidates already fill the
// vector registers.
#pragma once

#include <memory>
#include <vector>

#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/parallel/thread_pool.hpp"
#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class QuickIkSolver final : public JtSolver {
 public:
  enum class Execution {
    kSerial,      ///< speculations evaluated inline on the caller
    kThreadPool,  ///< speculation lanes chunked over worker threads
  };

  /// `threads` is only used with kThreadPool (0 = hardware concurrency).
  QuickIkSolver(kin::Chain chain, SolveOptions options,
                Execution execution = Execution::kSerial,
                std::size_t threads = 0);

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;

  std::string name() const override {
    return execution_ == Execution::kSerial ? "quick-ik" : "quick-ik-mt";
  }
  Execution execution() const { return execution_; }

 private:
  Execution execution_;
  std::unique_ptr<par::ThreadPool> pool_;  // only for kThreadPool

  // Batched speculation workspace, sized once in the constructor and
  // reused every iteration: the SoA FK kernel (owns candidates,
  // positions and errors) and the alpha ladder.
  kin::BatchedForward batch_;
  std::vector<double> alphas_;
};

}  // namespace dadu::ik
