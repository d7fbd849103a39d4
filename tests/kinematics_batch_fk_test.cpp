// Batched speculative FK kernel tests: lane-for-lane agreement with the
// scalar per-candidate path (f64 and f32, revolute and prismatic,
// identity and offset bases, clamped and free), independence from the lane-chunk split, solver
// equivalence after the rewire, and an allocation audit of the solver
// hot loop using a counting global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/kinematics/forward_f32.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/jt_common.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global new/delete in this test binary bumps
// a counter, letting tests assert that solver iterations allocate
// nothing once warm.
namespace {
std::atomic<long long> g_allocations{0};
long long allocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dadu {
namespace {

using kin::BatchedForward;

// The pre-batching per-candidate reference: theta_k = theta + alpha_k *
// dtheta (clamped when asked), one scalar FK pass per candidate.
struct ScalarSweep {
  std::vector<linalg::VecX> theta_k;
  std::vector<linalg::Vec3> x_k;
  std::vector<double> error_k;
};
ScalarSweep scalarSweep(const kin::Chain& chain, const linalg::VecX& theta,
                        const linalg::VecX& dtheta,
                        const std::vector<double>& alphas,
                        const linalg::Vec3& target, bool clamp,
                        bool use_f32 = false) {
  ScalarSweep s;
  for (double alpha : alphas) {
    linalg::VecX cand(chain.dof());
    linalg::axpyInto(alpha, dtheta, theta, cand);
    if (clamp) cand = chain.clampToLimits(cand);
    const linalg::Vec3 x = use_f32 ? kin::endEffectorPositionF32(chain, cand)
                                   : kin::endEffectorPosition(chain, cand);
    s.theta_k.push_back(cand);
    s.x_k.push_back(x);
    s.error_k.push_back((target - x).norm());
  }
  return s;
}

std::vector<double> alphaLadder(int max_spec, double alpha_base) {
  std::vector<double> alphas(static_cast<std::size_t>(max_spec));
  for (int k = 1; k <= max_spec; ++k)
    alphas[k - 1] = (static_cast<double>(k) / max_spec) * alpha_base;
  return alphas;
}

// A chain mixing revolute and prismatic joints (every third joint
// telescopes), exercising both per-joint kernels.
kin::Chain makeMixedChain(std::size_t dof) {
  std::vector<kin::Joint> joints;
  for (std::size_t i = 0; i < dof; ++i) {
    kin::DhParam dh;
    dh.a = 0.08;
    dh.alpha = (i % 2 == 0) ? 1.5707963267948966 : -1.5707963267948966;
    if (i % 3 == 2) {
      dh.theta = 0.2;
      joints.push_back(kin::prismatic(dh, 0.0, 0.15));
    } else {
      joints.push_back(kin::revolute(dh));
    }
  }
  return kin::Chain(std::move(joints), "mixed");
}

// The same joints behind a rotated and translated base.  The f64 walk
// applies the base in its own final step, so every parity check runs
// against a non-identity base too.
kin::Chain withOffsetBase(const kin::Chain& chain) {
  linalg::Mat4 base =
      linalg::Mat4::rotationZ(0.7) * linalg::Mat4::rotationY(-0.4);
  base(0, 3) = 0.3;
  base(1, 3) = -0.25;
  base(2, 3) = 0.15;
  return kin::Chain(chain.joints(), chain.name() + "+base", base);
}

// Deterministic pseudo-random joint/dir vectors for kernel inputs.
linalg::VecX patternVec(std::size_t n, double scale, double phase) {
  linalg::VecX v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = scale * std::sin(0.7 * static_cast<double>(i) + phase);
  return v;
}

TEST(BatchedForwardKinematics, MatchesScalarAcrossPresetsAndBatchSizes) {
  for (std::size_t dof : {12u, 25u, 50u, 75u, 100u}) {
    const auto serpentine = kin::makeSerpentine(dof);
    const linalg::VecX theta = patternVec(dof, 0.4, 0.3);
    const linalg::VecX dtheta = patternVec(dof, 1.1, 1.9);
    const linalg::Vec3 target{0.3, -0.2, 0.5};
    for (const kin::Chain& chain : {serpentine, withOffsetBase(serpentine)}) {
      for (int k_count : {1, 3, 16, 64}) {
        const auto alphas = alphaLadder(k_count, 0.37);
        const auto ref =
            scalarSweep(chain, theta, dtheta, alphas, target, false);

        BatchedForward batch;
        batch.reset(chain, alphas.size());
        batch.evaluateLanes(chain, theta, dtheta, alphas.data(), target,
                            false, 0, alphas.size());
        for (std::size_t k = 0; k < alphas.size(); ++k) {
          EXPECT_LT((batch.position(k) - ref.x_k[k]).norm(), 1e-12)
              << chain.name() << " " << dof << "-DOF K=" << k_count
              << " lane " << k;
          EXPECT_NEAR(batch.errors()[k], ref.error_k[k], 1e-12);
          linalg::VecX cand;
          batch.candidateInto(k, cand);
          EXPECT_LT((cand - ref.theta_k[k]).norm(), 1e-15);
        }
      }
    }
  }
}

TEST(BatchedForwardKinematics, MatchesScalarOnPrismaticJoints) {
  const auto mixed = makeMixedChain(30);
  const linalg::VecX theta = patternVec(30, 0.3, 0.1);
  const linalg::VecX dtheta = patternVec(30, 0.9, 2.3);
  const linalg::Vec3 target{0.4, 0.1, -0.3};
  for (const kin::Chain& chain : {mixed, withOffsetBase(mixed)}) {
    for (bool clamp : {false, true}) {
      const auto alphas = alphaLadder(16, 0.8);
      const auto ref =
          scalarSweep(chain, theta, dtheta, alphas, target, clamp);
      BatchedForward batch;
      batch.reset(chain, alphas.size());
      batch.evaluateLanes(chain, theta, dtheta, alphas.data(), target, clamp,
                          0, alphas.size());
      for (std::size_t k = 0; k < alphas.size(); ++k) {
        EXPECT_LT((batch.position(k) - ref.x_k[k]).norm(), 1e-12)
            << chain.name() << " clamp=" << clamp << " lane " << k;
        EXPECT_NEAR(batch.errors()[k], ref.error_k[k], 1e-12);
      }
    }
  }
}

TEST(BatchedForwardKinematics, ClampedCandidatesMatchChainClamp) {
  auto base = kin::makeSerpentine(25);
  std::vector<kin::Joint> joints = base.joints();
  for (auto& j : joints) {
    j.min = -0.5;
    j.max = 0.5;
  }
  const kin::Chain chain(std::move(joints), "limited");
  const linalg::VecX theta = patternVec(25, 0.45, 0.8);
  const linalg::VecX dtheta = patternVec(25, 2.0, 0.2);
  const linalg::Vec3 target{0.2, 0.2, 0.2};
  const auto alphas = alphaLadder(16, 1.0);
  const auto ref = scalarSweep(chain, theta, dtheta, alphas, target, true);

  BatchedForward batch;
  batch.reset(chain, alphas.size());
  batch.evaluateLanes(chain, theta, dtheta, alphas.data(), target, true, 0,
                      alphas.size());
  for (std::size_t k = 0; k < alphas.size(); ++k) {
    linalg::VecX cand;
    batch.candidateInto(k, cand);
    EXPECT_TRUE(chain.withinLimits(cand)) << "lane " << k;
    EXPECT_LT((cand - ref.theta_k[k]).norm(), 1e-15);
    EXPECT_LT((batch.position(k) - ref.x_k[k]).norm(), 1e-12);
  }
}

TEST(BatchedForwardKinematics, F32PrecisionMatchesScalarF32Path) {
  for (std::size_t dof : {12u, 50u, 100u}) {
    const auto chain = kin::makeSerpentine(dof);
    const linalg::VecX theta = patternVec(dof, 0.35, 1.2);
    const linalg::VecX dtheta = patternVec(dof, 0.8, 0.6);
    const linalg::Vec3 target{0.1, 0.4, -0.2};
    const auto alphas = alphaLadder(16, 0.42);
    const auto ref =
        scalarSweep(chain, theta, dtheta, alphas, target, false, true);

    BatchedForward batch(BatchedForward::Precision::kF32);
    batch.reset(chain, alphas.size());
    batch.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                        alphas.size());
    for (std::size_t k = 0; k < alphas.size(); ++k) {
      // Same float operations in the same order: the widened results
      // agree far below f32 round-off (1e-12 would catch any
      // reassociation, which would sit near 1e-7).
      EXPECT_LT((batch.position(k) - ref.x_k[k]).norm(), 1e-12)
          << dof << "-DOF lane " << k;
      EXPECT_NEAR(batch.errors()[k], ref.error_k[k], 1e-12);
    }
  }
}

TEST(BatchedForwardKinematics, LaneChunkSplitIsIrrelevant) {
  // Evaluating [0,K) in one call or as disjoint chunks (as thread-pool
  // workers do) must produce identical lanes.
  const auto chain = kin::makeSerpentine(50);
  const linalg::VecX theta = patternVec(50, 0.4, 0.0);
  const linalg::VecX dtheta = patternVec(50, 1.0, 1.0);
  const linalg::Vec3 target{0.3, 0.3, 0.3};
  const auto alphas = alphaLadder(64, 0.5);

  BatchedForward whole;
  whole.reset(chain, alphas.size());
  whole.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                      alphas.size());

  BatchedForward split;
  split.reset(chain, alphas.size());
  for (std::size_t lo = 0; lo < alphas.size(); lo += 13)
    split.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false,
                        lo, std::min(alphas.size(), lo + 13));

  for (std::size_t k = 0; k < alphas.size(); ++k) {
    EXPECT_EQ(whole.position(k), split.position(k)) << "lane " << k;
    EXPECT_EQ(whole.errors()[k], split.errors()[k]);
  }
}

TEST(BatchedForwardKinematics, SerialAndThreadPoolQuickIkIdentical) {
  // The rewired solver must stay bit-identical across execution
  // strategies and speculation counts.
  const auto chain = kin::makeSerpentine(25);
  for (int k_count : {1, 3, 16, 64}) {
    ik::SolveOptions options;
    options.speculations = k_count;
    ik::QuickIkSolver serial(chain, options,
                             ik::QuickIkSolver::Execution::kSerial);
    ik::QuickIkSolver pooled(chain, options,
                             ik::QuickIkSolver::Execution::kThreadPool, 4);
    for (int i = 0; i < 3; ++i) {
      const auto task = workload::generateTask(chain, i);
      const auto rs = serial.solve(task.target, task.seed);
      const auto rp = pooled.solve(task.target, task.seed);
      EXPECT_EQ(rs.status, rp.status) << "K=" << k_count << " task " << i;
      EXPECT_EQ(rs.iterations, rp.iterations);
      EXPECT_EQ(rs.error, rp.error);
      EXPECT_EQ(rs.theta, rp.theta) << "bit-identical selection required";
    }
  }
}

TEST(BatchedForwardKinematics, QuickIkMatchesScalarReferenceSweep) {
  // One full solver iteration cross-checked against the per-candidate
  // reference: the winning candidate and error the solver reports must
  // be the argmin of the scalar sweep.
  const auto chain = kin::makeSerpentine(50);
  const auto task = workload::generateTask(chain, 3);
  ik::SolveOptions options;
  options.max_iterations = 1;
  ik::QuickIkSolver solver(chain, options);
  const auto r = solver.solve(task.target, task.seed);

  ik::JtWorkspace ws;
  const auto head = ik::jtIterationHead(chain, task.seed, task.target, ws);
  const auto alphas = alphaLadder(options.speculations, head.alpha_base);
  const auto ref = scalarSweep(chain, task.seed, ws.dtheta_base, alphas,
                               task.target, false);
  std::size_t best = 0;
  for (std::size_t k = 1; k < ref.error_k.size(); ++k)
    if (ref.error_k[k] < ref.error_k[best]) best = k;
  EXPECT_NEAR(r.error, ref.error_k[best], 1e-12);
  EXPECT_LT((r.theta - ref.theta_k[best]).norm(), 1e-15);
}

TEST(BatchedForwardKinematics, SolverIterationsAllocateNothingOnceWarm) {
  // Heap traffic per solve must not scale with the iteration count:
  // the kernel workspace, candidates and errors are all owned by the
  // solver and reused.  (Counting allocator: see operator new above.)
  const auto chain = kin::makeSerpentine(50);
  const auto task = workload::generateTask(chain, 1);
  const auto solve_allocs = [&](int iterations) {
    ik::SolveOptions options;
    options.accuracy = 0.0;  // never converge: run the full budget
    options.max_iterations = iterations;
    ik::QuickIkSolver solver(chain, options);
    (void)solver.solve(task.target, task.seed);  // warm-up
    const long long before = allocationCount();
    (void)solver.solve(task.target, task.seed);
    return allocationCount() - before;
  };
  const long long short_run = solve_allocs(8);
  const long long long_run = solve_allocs(64);
  EXPECT_EQ(short_run, long_run)
      << "per-iteration allocations detected in the speculation loop";
}

}  // namespace
}  // namespace dadu
