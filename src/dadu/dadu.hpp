// Umbrella header: the full public API of the Dadu library.
//
//   #include <dadu/dadu.hpp>
//
//   auto chain  = dadu::kin::makeSerpentine(100);
//   dadu::IkEngine engine(chain, dadu::Backend::kIkAcc);
//   auto result = engine.solve({0.8, 0.3, 0.5});
//
// Reproduction of: Lian et al., "Dadu: Accelerating Inverse Kinematics
// for High-DOF Robots", DAC 2017.
#pragma once

// Linear algebra substrate.
#include "dadu/linalg/cholesky.hpp"
#include "dadu/linalg/fixed_point.hpp"
#include "dadu/linalg/lu.hpp"
#include "dadu/linalg/mat3.hpp"
#include "dadu/linalg/mat4.hpp"
#include "dadu/linalg/mat34_batch.hpp"
#include "dadu/linalg/matx.hpp"
#include "dadu/linalg/pseudoinverse.hpp"
#include "dadu/linalg/rotation.hpp"
#include "dadu/linalg/svd.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

// Kinematics substrate.
#include "dadu/kinematics/chain.hpp"
#include "dadu/kinematics/dh.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/kinematics/forward_f32.hpp"
#include "dadu/kinematics/forward_fixed.hpp"
#include "dadu/kinematics/jacobian.hpp"
#include "dadu/kinematics/jacobian_full.hpp"
#include "dadu/kinematics/joint.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/kinematics/robot_io.hpp"
#include "dadu/kinematics/analytic.hpp"
#include "dadu/kinematics/workspace.hpp"

// Geometry substrate (collision checking).
#include "dadu/geometry/collision_aware_solver.hpp"
#include "dadu/geometry/distance.hpp"
#include "dadu/geometry/primitives.hpp"
#include "dadu/geometry/robot_geometry.hpp"

// Solvers (the paper's algorithm and every baseline).
#include "dadu/solvers/ccd.hpp"
#include "dadu/solvers/dls.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/ik_solver.hpp"
#include "dadu/solvers/jt_eq8.hpp"
#include "dadu/solvers/jt_fixed_alpha.hpp"
#include "dadu/solvers/jt_momentum.hpp"
#include "dadu/solvers/jt_serial.hpp"
#include "dadu/solvers/pinv_svd.hpp"
#include "dadu/solvers/pose_solvers.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/solvers/quick_ik_f32.hpp"
#include "dadu/solvers/quick_ik_adaptive.hpp"
#include "dadu/solvers/sdls.hpp"
#include "dadu/solvers/types.hpp"

// IKAcc accelerator simulator.
#include "dadu/ikacc/accelerator.hpp"
#include "dadu/ikacc/config.hpp"
#include "dadu/ikacc/design_space.hpp"
#include "dadu/ikacc/stats.hpp"
#include "dadu/ikacc/trace.hpp"
#include "dadu/ikacc/throughput.hpp"

// Platform models, workloads, reporting.
#include "dadu/platform/cpu_model.hpp"
#include "dadu/platform/gpu_model.hpp"
#include "dadu/platform/timer.hpp"
#include "dadu/workload/rng.hpp"
#include "dadu/workload/targets.hpp"
#include "dadu/workload/obstacles.hpp"
#include "dadu/workload/trajectory.hpp"

// Reporting utilities.
#include "dadu/report/ascii_plot.hpp"
#include "dadu/report/csv.hpp"
#include "dadu/report/table.hpp"

// Meta-solvers.
#include "dadu/solvers/restart.hpp"

// Observability: lock-free counters, latency histograms, trace sinks,
// and the Prometheus / JSON / text exporters.
#include "dadu/obs/export.hpp"
#include "dadu/obs/histogram.hpp"
#include "dadu/obs/sharded_counters.hpp"
#include "dadu/obs/sink.hpp"

// Asynchronous serving layer.
#include "dadu/service/ik_service.hpp"
#include "dadu/service/queue.hpp"
#include "dadu/service/request.hpp"
#include "dadu/service/seed_cache.hpp"
#include "dadu/service/service_stats.hpp"

// Multi-robot spec registry and per-spec routing.
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/registry/spec_router.hpp"

// TCP serving front-end: epoll event loop, binary wire protocol,
// non-blocking server and blocking client.
#include "dadu/net/buffer.hpp"
#include "dadu/net/event_loop.hpp"
#include "dadu/net/ik_client.hpp"
#include "dadu/net/ik_server.hpp"
#include "dadu/net/net_stats.hpp"
#include "dadu/net/wire.hpp"

// Top-level engine.
#include "dadu/core/batch_runner.hpp"
#include "dadu/core/engine.hpp"
#include "dadu/core/trajectory_solver.hpp"

// Control-loop co-simulation.
#include "dadu/core/control_loop.hpp"

// Motion planning substrate.
#include "dadu/planning/rrt.hpp"
