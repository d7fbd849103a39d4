#include "dadu/core/control_loop.hpp"

#include <algorithm>
#include <cmath>

#include "dadu/kinematics/forward.hpp"

namespace dadu {

ControlLoopResult simulateTracking(const kin::Chain& chain,
                                   const Reference& reference,
                                   const IkOracle& ik,
                                   const linalg::VecX& q0,
                                   const ControlLoopConfig& config) {
  ControlLoopResult result;
  chain.requireSize(q0);

  const int ticks = std::max(
      1, static_cast<int>(std::lround(config.duration_s / config.tick_s)));
  const int latency_ticks = std::max(
      0, static_cast<int>(std::ceil(config.solver_latency_s / config.tick_s)));

  linalg::VecX q = q0;           // actual joints
  linalg::VecX setpoint = q0;    // newest completed IK result
  // One request in flight: result value and completion tick.
  linalg::VecX pending = q0;
  int pending_done_tick = 0;     // a request issued at t=0 for ref(0)
  bool pending_valid = true;
  pending = ik(reference(0.0), q0);
  pending_done_tick = latency_ticks;

  double sq_sum = 0.0;
  result.error_trace.reserve(ticks);

  for (int tick = 0; tick < ticks; ++tick) {
    const double t = tick * config.tick_s;

    // Completed request becomes the setpoint; immediately issue the
    // next one for the reference's *current* position.
    if (pending_valid && tick >= pending_done_tick) {
      setpoint = pending;
      ++result.ik_solves;
      pending = ik(reference(t), setpoint);
      pending_done_tick = tick + std::max(latency_ticks, 1);
    }

    // Joints slew towards the setpoint under the rate limit.
    const double max_step = config.joint_rate_limit * config.tick_s;
    for (std::size_t i = 0; i < q.size(); ++i) {
      const double d = setpoint[i] - q[i];
      q[i] += std::clamp(d, -max_step, max_step);
    }

    const double err =
        (reference(t) - kin::endEffectorPosition(chain, q)).norm();
    result.error_trace.push_back(err);
    result.max_error = std::max(result.max_error, err);
    sq_sum += err * err;
  }

  result.rms_error = std::sqrt(sq_sum / static_cast<double>(ticks));
  return result;
}

}  // namespace dadu
