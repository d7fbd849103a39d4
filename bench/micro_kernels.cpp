// Google-benchmark microbenches of the kernels the whole system is
// built from: 4x4 matrix multiply (the FKU operation), forward
// kinematics, Jacobian evaluation, the serial iteration head, Jacobi
// SVD, and one full iteration of each solver family.  These ground the
// platform models: the measured per-kernel host throughput is the
// reference point for the Atom/TX1 calibration constants discussed in
// EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "dadu/dadu.hpp"
#include "dadu/kinematics/backends/spec_backend.hpp"

namespace {

void BM_Mat4Multiply(benchmark::State& state) {
  const auto a = dadu::linalg::Mat4::rotationZ(0.3) *
                 dadu::linalg::Mat4::translation({1, 2, 3});
  const auto b = dadu::linalg::Mat4::rotationX(0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_Mat4Multiply);

void BM_ForwardKinematics(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::kin::endEffectorPosition(chain, q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForwardKinematics)->Arg(12)->Arg(25)->Arg(50)->Arg(100);

void BM_Jacobian(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  dadu::linalg::MatX j;
  dadu::kin::JacobianScratch scratch;
  dadu::linalg::Vec3 ee;
  for (auto _ : state) {
    dadu::kin::positionJacobian(chain, q, j, scratch, ee);
    benchmark::DoNotOptimize(j.data());
  }
}
BENCHMARK(BM_Jacobian)->Arg(12)->Arg(50)->Arg(100);

void BM_IterationHead(benchmark::State& state) {
  // The serial head of every Jacobian-transpose iteration
  // (jtIterationHead): J and e through positionJacobian's trig prepass,
  // compose and columns, then dtheta_base = J^T e and alpha_base (Eq. 8),
  // arg = DOF.  Its trig runs on the dispatched speculation backend
  // (DADU_SPEC_BACKEND=scalar|avx2|avx512 forces one).
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::JtWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dadu::ik::jtIterationHead(chain, task.seed, task.target, ws));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_IterationHead)->Arg(12)->Arg(30)->Arg(100);

void BM_SvdJacobian(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.02 * static_cast<double>(i + 1);
  const auto j = dadu::kin::positionJacobian(chain, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::linalg::svdJacobi(j));
  }
}
BENCHMARK(BM_SvdJacobian)->Arg(12)->Arg(50)->Arg(100);

void BM_SpeculationScalar(benchmark::State& state) {
  // The pre-batching speculation sweep: K independent per-candidate FK
  // passes (axpy + Mat4-chain walk + error norm), args = {DOF, K}.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const int k_count = static_cast<int>(state.range(1));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::JtWorkspace ws;
  const auto head =
      dadu::ik::jtIterationHead(chain, task.seed, task.target, ws);
  dadu::linalg::VecX cand(chain.dof());
  for (auto _ : state) {
    double acc = 0.0;
    for (int k = 1; k <= k_count; ++k) {
      const double alpha =
          (static_cast<double>(k) / k_count) * head.alpha_base;
      dadu::linalg::axpyInto(alpha, ws.dtheta_base, task.seed, cand);
      acc += (task.target - dadu::kin::endEffectorPosition(chain, cand)).norm();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * k_count);
}
BENCHMARK(BM_SpeculationScalar)
    ->Args({12, 64})->Args({50, 64})->Args({100, 16})->Args({100, 64});

void BM_SpeculationBatched(benchmark::State& state) {
  // Same sweep through the SoA kernel: one chain walk advances all K
  // candidate transforms, args = {DOF, K}.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const int k_count = static_cast<int>(state.range(1));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::JtWorkspace ws;
  const auto head =
      dadu::ik::jtIterationHead(chain, task.seed, task.target, ws);
  std::vector<double> alphas(static_cast<std::size_t>(k_count));
  for (int k = 1; k <= k_count; ++k)
    alphas[k - 1] = (static_cast<double>(k) / k_count) * head.alpha_base;
  dadu::kin::BatchedForward batch;
  batch.reset(chain, alphas.size());
  for (auto _ : state) {
    batch.evaluateLanes(chain, task.seed, ws.dtheta_base, alphas.data(),
                        task.target, false, 0, alphas.size());
    benchmark::DoNotOptimize(batch.errors().data());
  }
  state.SetItemsProcessed(state.iterations() * k_count);
}
BENCHMARK(BM_SpeculationBatched)
    ->Args({12, 64})->Args({50, 64})->Args({100, 16})->Args({100, 64});

void BM_SpeculationLadder(benchmark::State& state) {
  // BM_SpeculationBatched's inputs through evaluateLadder, the form the
  // solvers call: Eq. 9's ladder gives most lanes their joint trig by
  // one angle-addition rotation, args = {DOF, K}.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto k_count = static_cast<std::size_t>(state.range(1));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::JtWorkspace ws;
  const auto head =
      dadu::ik::jtIterationHead(chain, task.seed, task.target, ws);
  dadu::kin::BatchedForward batch;
  batch.reset(chain, k_count);
  for (auto _ : state) {
    batch.evaluateLadder(chain, task.seed, ws.dtheta_base, head.alpha_base,
                         k_count, task.target, false, 0, k_count);
    benchmark::DoNotOptimize(batch.errors().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_SpeculationLadder)
    ->Args({12, 64})->Args({50, 64})->Args({100, 16})->Args({100, 64});

void BM_SpeculationLadderClamped(benchmark::State& state) {
  // BM_SpeculationLadder with clamp_to_limits on a chain whose limits
  // bind: every revolute joint is limited to [-0.5, 0.5], so joints
  // whose candidates the clamp moves take per-lane trig in the walk,
  // args = {DOF, K}.
  const auto free_chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  std::vector<dadu::kin::Joint> joints = free_chain.joints();
  for (auto& joint : joints) {
    joint.min = -0.5;
    joint.max = 0.5;
  }
  const dadu::kin::Chain chain(std::move(joints), "serpentine+limits");
  const auto k_count = static_cast<std::size_t>(state.range(1));
  const auto task = dadu::workload::generateTask(chain, 0);
  const auto seed = chain.clampToLimits(task.seed);
  dadu::ik::JtWorkspace ws;
  const auto head = dadu::ik::jtIterationHead(chain, seed, task.target, ws);
  dadu::kin::BatchedForward batch;
  batch.reset(chain, k_count);
  for (auto _ : state) {
    batch.evaluateLadder(chain, seed, ws.dtheta_base, head.alpha_base,
                         k_count, task.target, true, 0, k_count);
    benchmark::DoNotOptimize(batch.errors().data());
    benchmark::ClobberMemory();
  }
  // Joints the last sweep gave per-lane trig.
  std::size_t lane_trig = 0;
  for (std::size_t i = 0; i < chain.dof(); ++i)
    lane_trig += batch.laneTrigAt(i) ? 1 : 0;
  state.counters["lane_trig_joints"] = static_cast<double>(lane_trig);
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_SpeculationLadderClamped)->Args({100, 16})->Args({100, 64});

void BM_SpeculationPrepass(benchmark::State& state) {
  // Phase 1 of BM_SpeculationLadder alone: the factor tables of every
  // revolute joint, no walk, args = {DOF, K}.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto k_count = static_cast<std::size_t>(state.range(1));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::JtWorkspace ws;
  const auto head =
      dadu::ik::jtIterationHead(chain, task.seed, task.target, ws);
  dadu::kin::BatchedForward batch;
  batch.reset(chain, k_count);
  for (auto _ : state) {
    batch.prepassLadder(chain, task.seed, ws.dtheta_base, head.alpha_base,
                        k_count, false, 0, k_count);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_SpeculationPrepass)->Args({100, 16})->Args({100, 64});

void BM_SpecSinCos(benchmark::State& state) {
  // The walk's sin/cos alone, through the dispatched backend's
  // SpecBackend::sinCos (DADU_SPEC_BACKEND=scalar|avx2|avx512 forces
  // one), arg = angle count: 100 is the serial head's at 100 DOF, 1600
  // the trig prepass's at 100 DOF and K = 64 (8 base and 8 block
  // factors per joint).  Angles span a few turns, as joint angles do.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n), s(n), c(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 3.0 * std::sin(0.7 * static_cast<double>(i) + 0.3);
  const dadu::kin::SpecBackend& backend = dadu::kin::dispatchedSpecBackend();
  for (auto _ : state) {
    backend.sinCos(x.data(), s.data(), c.data(), n);
    benchmark::DoNotOptimize(s.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(backend.name());
}
BENCHMARK(BM_SpecSinCos)->Arg(100)->Arg(1600);

void BM_QuickIkIteration(benchmark::State& state) {
  // One Quick-IK iteration = head + 64 speculative FK passes; measured
  // as a 1-iteration solve budget.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::ik::QuickIkSolver solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_QuickIkIteration)->Arg(12)->Arg(50)->Arg(100);

void BM_JtSerialIteration(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::ik::JtSerialSolver solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_JtSerialIteration)->Arg(12)->Arg(50)->Arg(100);

void BM_PinvSvdIteration(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::ik::PinvSvdSolver solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_PinvSvdIteration)->Arg(12)->Arg(50)->Arg(100);

void BM_CordicSinCos(benchmark::State& state) {
  const dadu::linalg::FixedFormat fmt{static_cast<int>(state.range(0))};
  double angle = 0.1;
  for (auto _ : state) {
    double s, c;
    dadu::linalg::cordicSinCos(fmt, angle, s, c);
    benchmark::DoNotOptimize(s);
    angle += 0.01;
  }
}
BENCHMARK(BM_CordicSinCos)->Arg(16)->Arg(24);

void BM_ForwardKinematicsF32(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::kin::endEffectorPositionF32(chain, q));
  }
}
BENCHMARK(BM_ForwardKinematicsF32)->Arg(50)->Arg(100);

void BM_ForwardKinematicsFixed(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const dadu::linalg::FixedFormat fmt{20};
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::kin::endEffectorPositionFixed(chain, q, fmt));
  }
}
BENCHMARK(BM_ForwardKinematicsFixed)->Arg(50)->Arg(100);

void BM_SegmentSegmentDistance(benchmark::State& state) {
  const dadu::linalg::Vec3 p1{0, 0, 0}, q1{1, 0.2, -0.3};
  const dadu::linalg::Vec3 p2{0.4, 1, 0.7}, q2{-0.2, 0.5, 1.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dadu::geom::segmentSegmentDistance(p1, q1, p2, q2));
  }
}
BENCHMARK(BM_SegmentSegmentDistance);

void BM_SelfClearance(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const dadu::geom::RobotGeometry body(chain, 0.02);
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.03 * static_cast<double>(i % 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(body.selfClearance(q));
  }
}
BENCHMARK(BM_SelfClearance)->Arg(12)->Arg(50);

void BM_AccelSimIteration(benchmark::State& state) {
  // Simulator overhead per modelled iteration (functional math + cycle
  // accounting).
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::acc::IkAccelerator solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_AccelSimIteration)->Arg(50)->Arg(100);

}  // namespace
