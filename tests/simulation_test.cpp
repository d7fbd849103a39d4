// Control-loop co-simulation tests: latency degrades tracking, zero
// latency tracks tightly, bookkeeping is consistent.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dadu/core/control_loop.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/quick_ik.hpp"

namespace dadu {
namespace {

struct Rig {
  kin::Chain chain = kin::makeSerpentine(25);
  ik::QuickIkSolver solver{chain, [] {
                             ik::SolveOptions o;
                             o.accuracy = 5e-3;
                             return o;
                           }()};
  linalg::VecX q0;
  Reference reference;

  Rig() {
    q0 = linalg::VecX(chain.dof());
    for (std::size_t i = 0; i < q0.size(); ++i)
      q0[i] = (i % 2 == 0) ? 0.15 : -0.1;
    const linalg::Vec3 center{1.2, 0.0, 0.6};
    reference = [center](double t) {
      constexpr double kOmega = 2.0 * std::numbers::pi / 4.0;  // one lap/4s
      return center + linalg::Vec3{0.4 * std::cos(kOmega * t),
                                   0.4 * std::sin(kOmega * t), 0.0};
    };
  }

  IkOracle oracle() {
    return [this](const linalg::Vec3& target, const linalg::VecX& warm) {
      return solver.solve(target, warm).theta;
    };
  }
};

TEST(ControlLoop, LowLatencyTracksTightly) {
  Rig rig;
  ControlLoopConfig config;
  config.solver_latency_s = 0.5e-3;  // IKAcc class
  config.duration_s = 2.0;
  const auto r = simulateTracking(rig.chain, rig.reference, rig.oracle(),
                                  rig.q0, config);
  EXPECT_GT(r.ik_solves, 100);
  // Past the initial transient (slewing from q0 onto the circle) the
  // error stays small; judge the second half of the run.
  EXPECT_LT(r.error_trace.back(), 0.05);
  double steady_sq = 0.0;
  const std::size_t half = r.error_trace.size() / 2;
  for (std::size_t k = half; k < r.error_trace.size(); ++k)
    steady_sq += r.error_trace[k] * r.error_trace[k];
  EXPECT_LT(std::sqrt(steady_sq /
                      static_cast<double>(r.error_trace.size() - half)),
            0.1);
}

TEST(ControlLoop, LatencyMonotonicallyDegradesTracking) {
  Rig rig;
  double prev_rms = -1.0;
  for (const double latency : {1e-3, 30e-3, 300e-3}) {
    ControlLoopConfig config;
    config.solver_latency_s = latency;
    config.duration_s = 2.0;
    const auto r = simulateTracking(rig.chain, rig.reference, rig.oracle(),
                                    rig.q0, config);
    if (prev_rms >= 0.0) {
      EXPECT_GT(r.rms_error, prev_rms) << latency;
    }
    prev_rms = r.rms_error;
  }
}

TEST(ControlLoop, SlowerSolverCompletesFewerSolves) {
  Rig rig;
  ControlLoopConfig fast;
  fast.solver_latency_s = 1e-3;
  fast.duration_s = 1.0;
  ControlLoopConfig slow = fast;
  slow.solver_latency_s = 100e-3;
  const auto rf = simulateTracking(rig.chain, rig.reference, rig.oracle(),
                                   rig.q0, fast);
  const auto rs = simulateTracking(rig.chain, rig.reference, rig.oracle(),
                                   rig.q0, slow);
  EXPECT_GT(rf.ik_solves, 5 * rs.ik_solves);
}

TEST(ControlLoop, TraceLengthMatchesDuration) {
  Rig rig;
  ControlLoopConfig config;
  config.duration_s = 0.5;
  config.tick_s = 1e-3;
  const auto r = simulateTracking(rig.chain, rig.reference, rig.oracle(),
                                  rig.q0, config);
  EXPECT_EQ(r.error_trace.size(), 500u);
  double max_seen = 0.0;
  for (double e : r.error_trace) max_seen = std::max(max_seen, e);
  EXPECT_DOUBLE_EQ(r.max_error, max_seen);
}

TEST(ControlLoop, RateLimitBoundsJointMotion) {
  // With a tiny rate limit the arm cannot keep up: error stays large.
  Rig rig;
  ControlLoopConfig config;
  config.solver_latency_s = 1e-3;
  config.joint_rate_limit = 0.01;  // nearly frozen joints
  config.duration_s = 1.0;
  const auto slow = simulateTracking(rig.chain, rig.reference, rig.oracle(),
                                     rig.q0, config);
  config.joint_rate_limit = 5.0;
  const auto fast = simulateTracking(rig.chain, rig.reference, rig.oracle(),
                                     rig.q0, config);
  EXPECT_GT(slow.rms_error, fast.rms_error);
}

}  // namespace
}  // namespace dadu
