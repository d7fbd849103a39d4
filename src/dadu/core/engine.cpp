#include "dadu/core/engine.hpp"

#include <stdexcept>

#include "dadu/solvers/jt_serial.hpp"
#include "dadu/solvers/pinv_svd.hpp"
#include "dadu/solvers/quick_ik.hpp"

namespace dadu {

std::string toString(Backend b) {
  switch (b) {
    case Backend::kCpuSerial: return "cpu-serial";
    case Backend::kIkAcc: return "ikacc";
    case Backend::kJtSerial: return "jt-serial";
    case Backend::kPinvSvd: return "pinv-svd";
  }
  return "unknown";
}

IkEngine::IkEngine(kin::Chain chain, Backend backend, ik::SolveOptions options)
    : chain_(std::move(chain)), backend_(backend), options_(options) {
  switch (backend_) {
    case Backend::kCpuSerial:
      solver_ = std::make_unique<ik::QuickIkSolver>(chain_, options_);
      break;
    case Backend::kIkAcc:
      solver_ = std::make_unique<acc::IkAccelerator>(chain_, options_);
      break;
    case Backend::kJtSerial:
      solver_ = std::make_unique<ik::JtSerialSolver>(chain_, options_);
      break;
    case Backend::kPinvSvd:
      solver_ = std::make_unique<ik::PinvSvdSolver>(chain_, options_);
      break;
  }
}

ik::SolveResult IkEngine::solve(const linalg::Vec3& target) {
  return solver_->solve(target, chain_.zeroConfiguration());
}

ik::SolveResult IkEngine::solve(const linalg::Vec3& target,
                                const linalg::VecX& seed) {
  return solver_->solve(target, seed);
}

std::vector<ik::SolveResult> IkEngine::solveBatch(
    const std::vector<linalg::Vec3>& targets, const linalg::VecX& seed) {
  // Route through solveMany: per-target solve() calls with exceptions
  // captured per lane, rethrown here in target order.
  std::vector<ik::BatchLane> lanes;
  lanes.reserve(targets.size());
  for (const linalg::Vec3& t : targets) lanes.push_back({t, &seed, {}});
  std::vector<ik::BatchLaneResult> outcomes(targets.size());
  solver_->solveMany(lanes.data(), outcomes.data(), lanes.size());

  std::vector<ik::SolveResult> results;
  results.reserve(targets.size());
  for (ik::BatchLaneResult& outcome : outcomes) {
    if (outcome.error) std::rethrow_exception(outcome.error);
    results.push_back(std::move(outcome.result));
  }
  return results;
}

const acc::AccStats& IkEngine::acceleratorStats() const {
  const auto* acc_solver = dynamic_cast<const acc::IkAccelerator*>(solver_.get());
  if (acc_solver == nullptr)
    throw std::logic_error("acceleratorStats: backend is not IKAcc");
  return acc_solver->lastStats();
}

}  // namespace dadu
