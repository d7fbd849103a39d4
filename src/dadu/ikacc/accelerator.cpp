#include "dadu/ikacc/accelerator.hpp"

#include <stdexcept>

#include "dadu/ikacc/energy.hpp"
#include "dadu/ikacc/scheduler.hpp"
#include "dadu/ikacc/selector.hpp"
#include "dadu/ikacc/spu.hpp"
#include "dadu/ikacc/ssu.hpp"

namespace dadu::acc {

IkAccelerator::IkAccelerator(kin::Chain chain, ik::SolveOptions options,
                             AccConfig config)
    : JtSolver(std::move(chain), options), config_(config) {
  if (options_.speculations < 1)
    throw std::invalid_argument("IKAcc requires at least 1 speculation");
  if (config_.num_ssus == 0)
    throw std::invalid_argument("IKAcc requires at least 1 SSU");
  const auto max_spec = static_cast<std::size_t>(options_.speculations);
  batch_.reset(chain_, max_spec);
}

ik::SolveResult IkAccelerator::solve(const linalg::Vec3& target,
                                     const linalg::VecX& seed) {
  const std::size_t dof = chain_.dof();
  const std::size_t max_spec = static_cast<std::size_t>(options_.speculations);
  const auto waves = scheduleWaves(max_spec, config_.num_ssus);

  // Per-iteration unit costs are configuration-static; price them once.
  const SpuCost spu = spuIteration(config_, dof);
  const SsuCost ssu = ssuSpeculation(config_, dof);
  const long long bcast = broadcastCycles(config_);

  stats_ = AccStats{};
  stats_.waves_per_iteration = static_cast<int>(waves.size());
  trace_.clear();

  // ---- Serial Process Unit: one pass per head ---------------------
  const auto charge_spu = [&] {
    stats_.spu_cycles += spu.cycles;
    stats_.total_cycles += spu.cycles;
    stats_.ops += spu.ops;
  };

  const auto step = [&](const ik::JtIterationHead& head,
                        ik::SolveResult& result) {
    charge_spu();  // the head this step follows

    // ---- Speculative waves ----------------------------------------
    long long wave_cycles_this_iter = 0;
    for (const Wave& wave : waves) {
      stats_.scheduler_cycles += bcast;
      stats_.total_cycles += bcast;

      // The wave's slice of Eq. 9's ladder: each lane's bits depend on
      // its index only, so the waves reproduce the software sweep.
      batch_.evaluateLadder(chain_, result.theta, ws_.dtheta_base,
                            head.alpha_base, max_spec, target,
                            options_.clamp_to_limits, wave.first,
                            wave.first + wave.count);
      result.fk_evaluations += static_cast<long long>(wave.count);

      // All active SSUs run in lockstep: wave latency = one SSU, energy
      // = count * one SSU.
      stats_.ssu_cycles += ssu.cycles;
      stats_.total_cycles += ssu.cycles;
      stats_.ssu_busy_cycles += ssu.cycles * static_cast<long long>(wave.count);
      for (std::size_t u = 0; u < wave.count; ++u) stats_.ops += ssu.ops;

      const long long sel = selectorWaveCycles(config_, wave.count);
      stats_.selector_cycles += sel;
      stats_.total_cycles += sel;
      stats_.ops.add += static_cast<long long>(wave.count);  // comparators
      wave_cycles_this_iter += bcast + ssu.cycles + sel;
    }

    result.speculation_load += static_cast<long long>(max_spec);
    ++result.iterations;
    ++stats_.iterations;

    // ---- Parameter Selector (functional argmin, ties to smallest k,
    // identical to the software solver) -----------------------------
    const std::vector<double>& error_k = batch_.errors();
    std::size_t best = 0;
    for (std::size_t idx = 1; idx < max_spec; ++idx)
      if (error_k[idx] < error_k[best]) best = idx;

    // Monotone descent guard (mirrors QuickIkSolver bit-for-bit): the
    // selector's winner is adopted only when it improves on the
    // pre-sweep error; otherwise the configuration is held and the
    // solve stalls — the deterministic alpha ladder would only repeat
    // the same losing sweep.  Projected descent (clamp_to_limits) is
    // exempt, exactly as in the software solver.
    const bool adopt =
        options_.clamp_to_limits || error_k[best] < head.error;
    if (adopt) {
      batch_.candidateInto(best, result.theta);
      result.error = error_k[best];
    }
    trace_.push_back({result.iterations, spu.cycles, wave_cycles_this_iter,
                      stats_.total_cycles, result.error, head.alpha_base,
                      static_cast<int>(best) + 1});
    return adopt ? ik::StepOutcome::kMeasured : ik::StepOutcome::kStalled;
  };
  ik::SolveResult result = iterate(target, seed, ik::headStalls, step);

  // Each step charged the head before it.  The head that ended the
  // solve (converged, stalled or timed out, or the measurement that
  // closes a zero budget) had no step to charge it.
  if (result.fk_evaluations - result.speculation_load > stats_.iterations)
    charge_spu();
  finalizeEnergy(config_, stats_);
  return result;
}

}  // namespace dadu::acc
