// Control-loop co-simulation: what IK solver latency costs in tracking
// accuracy.
//
// The paper's case for hardware IK is a real-time argument ("the IK
// solver in ROS will take over 1 second ... cannot satisfy the
// criteria for real-time robotic control").  This module quantifies
// it: a discrete controller commands a robot along a moving task-space
// reference; IK results arrive `solver_latency` seconds after they are
// requested (computed for the reference position at request time), and
// the joints slew towards the newest available solution at a bounded
// rate.  Stale solutions chase a reference that has moved on — the
// tracking error grows with latency, and the bench sweeping CPU / GPU
// / IKAcc latencies turns Table 2's milliseconds into task-space
// centimetres.
#pragma once

#include <functional>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu {

struct ControlLoopConfig {
  double tick_s = 1e-3;          ///< controller period (1 kHz)
  double solver_latency_s = 0.0; ///< request-to-result IK latency
  double joint_rate_limit = 3.0; ///< max |theta_dot| per joint (rad/s)
  double duration_s = 4.0;       ///< simulated time
};

struct ControlLoopResult {
  double rms_error = 0.0;   ///< task error over the run (m)
  double max_error = 0.0;
  int ik_solves = 0;        ///< IK requests completed during the run
  std::vector<double> error_trace;  ///< per-tick task error
};

/// Reference path: task-space position as a function of time.
using Reference = std::function<linalg::Vec3(double t)>;

/// Inverse kinematics oracle: joint configuration for a target, warm
/// started from the provided seed (wrap any IkSolver).
using IkOracle =
    std::function<linalg::VecX(const linalg::Vec3& target,
                               const linalg::VecX& warm_start)>;

/// Run the loop: at any moment at most one IK request is in flight;
/// when it completes (after solver_latency), its result becomes the
/// joint-space setpoint and the next request is issued for the
/// reference position at that instant.
ControlLoopResult simulateTracking(const kin::Chain& chain,
                                   const Reference& reference,
                                   const IkOracle& ik,
                                   const linalg::VecX& q0,
                                   const ControlLoopConfig& config);

}  // namespace dadu
