// IkEngine: the top-level facade a downstream robot-control user
// programs against.
//
// Owns a chain, a solver backend (any of the algorithm/architecture
// combinations the paper evaluates) and the solve options; provides
// one-shot solves, batch solves with aggregate statistics, and
// warm-started trajectory tracking.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dadu/ikacc/accelerator.hpp"
#include "dadu/kinematics/chain.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu {

/// Backend selection for the engine.
enum class Backend {
  kCpuSerial,  ///< Quick-IK, speculations inline ("Atom" config)
  kIkAcc,      ///< Quick-IK on the simulated accelerator
  kJtSerial,   ///< baseline: original Jacobian transpose
  kPinvSvd,    ///< baseline: SVD pseudoinverse
};

std::string toString(Backend b);

class IkEngine {
 public:
  IkEngine(kin::Chain chain, Backend backend = Backend::kCpuSerial,
           ik::SolveOptions options = {});

  /// Solve one target from the zero (or provided) configuration.
  ik::SolveResult solve(const linalg::Vec3& target);
  ik::SolveResult solve(const linalg::Vec3& target, const linalg::VecX& seed);

  /// Solve a batch of independent targets (each from `seed`).
  std::vector<ik::SolveResult> solveBatch(
      const std::vector<linalg::Vec3>& targets, const linalg::VecX& seed);

  const kin::Chain& chain() const { return chain_; }
  Backend backend() const { return backend_; }
  ik::IkSolver& solver() { return *solver_; }
  const ik::SolveOptions& options() const { return options_; }

  /// Accelerator statistics of the last solve; throws std::logic_error
  /// unless the backend is kIkAcc.
  const acc::AccStats& acceleratorStats() const;

 private:
  kin::Chain chain_;
  Backend backend_;
  ik::SolveOptions options_;
  std::unique_ptr<ik::IkSolver> solver_;
};

}  // namespace dadu
