// System-level bench (ours): what solver latency costs in tracking
// accuracy — the paper's real-time argument made quantitative.
//
// A 1 kHz controller tracks a circular reference with warm-started
// Quick-IK; the IK result arrives `latency` after it was requested.
// We sweep the latencies of Table 2's platforms (IKAcc simulated, TX1
// modelled, host/Atom CPU measured-modelled, plus the ~1 s ROS figure
// from the introduction) and report steady-state task error.
#include <cmath>
#include <iostream>
#include <numbers>

#include "bench_common.hpp"
#include "dadu/core/control_loop.hpp"
#include "dadu/report/table.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parseArgs(argc, argv, "control_latency");
  const std::size_t dof = args.quick ? 25 : 100;
  const double duration = args.quick ? 2.0 : 4.0;

  const auto chain = dadu::kin::makeSerpentine(dof);
  dadu::linalg::VecX q0(chain.dof());
  for (std::size_t i = 0; i < q0.size(); ++i)
    q0[i] = (i % 2 == 0) ? 0.15 : -0.1;

  const dadu::linalg::Vec3 center{0.45 * chain.maxReach(), 0.0,
                                  0.25 * chain.maxReach()};
  const double radius = 0.15 * chain.maxReach();
  const dadu::Reference reference = [&](double t) {
    constexpr double kOmega = 2.0 * std::numbers::pi / 4.0;
    return center + dadu::linalg::Vec3{radius * std::cos(kOmega * t),
                                       radius * std::sin(kOmega * t), 0.0};
  };

  dadu::ik::SolveOptions options;
  options.accuracy = 5e-3;
  dadu::ik::QuickIkSolver solver(chain, options);
  const dadu::IkOracle oracle =
      [&](const dadu::linalg::Vec3& target, const dadu::linalg::VecX& warm) {
        return solver.solve(target, warm).theta;
      };

  dadu::report::banner(
      std::cout, "Tracking error vs IK latency (" + std::to_string(dof) +
                     "-DOF, 1 kHz controller, " +
                     dadu::report::Table::num(duration, 0) + " s circle)");

  struct Platform {
    const char* name;
    double latency_s;
  };
  const Platform platforms[] = {
      {"IKAcc (sim, Table 2)", 0.5e-3},
      {"TX1 (model, Table 2)", 7e-3},
      {"host CPU Quick-IK", 25e-3},
      {"Atom CPU Quick-IK (model)", 260e-3},
      {"ROS/KDL at 100 DOF (paper intro)", 1.0},
  };

  dadu::report::Table table(
      {"platform", "latency", "steady RMS err (m)", "max err (m)",
       "IK solves"});
  for (const Platform& p : platforms) {
    dadu::ControlLoopConfig config;
    config.solver_latency_s = p.latency_s;
    config.duration_s = duration;
    const auto r = dadu::simulateTracking(chain, reference, oracle, q0,
                                          config);
    // Steady state: second half of the trace.
    double sq = 0.0;
    const std::size_t half = r.error_trace.size() / 2;
    for (std::size_t k = half; k < r.error_trace.size(); ++k)
      sq += r.error_trace[k] * r.error_trace[k];
    const double steady =
        std::sqrt(sq / static_cast<double>(r.error_trace.size() - half));

    table.addRow({p.name,
                  dadu::report::Table::num(p.latency_s * 1e3, 1) + " ms",
                  dadu::report::Table::num(steady, 4),
                  dadu::report::Table::num(r.max_error, 3),
                  dadu::report::Table::integer(r.ik_solves)});
  }

  table.print(std::cout);
  std::cout << "\nExpected: error grows monotonically with latency; at the "
               "paper's ROS-scale latency the arm effectively cannot track, "
               "while IKAcc-class latency makes IK a non-factor.\n";
  return 0;
}
