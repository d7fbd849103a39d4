// Speculation-backend tests: registry/dispatch sanity, bit-exact
// parity of every carried wide backend (AVX2, AVX-512) against the
// scalar reference across DOF x K grids — revolute and prismatic
// chains, identity and offset bases, clamped and free, ragged lane ranges, hostile lanes that take
// the walk's libm trig fallback, grouped sweeps — the
// walk-slicing cache seam (both precisions), and solver-level identity
// at K > the slice budget.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu {
namespace {

using kin::BatchedForward;
using kin::SpecBackend;

// Backends this binary carries AND this CPU can execute.  Always holds
// at least the scalar backend.
std::vector<const SpecBackend*> runnableBackends() {
  std::vector<const SpecBackend*> out;
  for (const SpecBackend* b : kin::allSpecBackends())
    if (kin::specBackendSupported(*b)) out.push_back(b);
  return out;
}

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

// The same joints behind a rotated and translated base (the walk
// applies the base in its own final step).
kin::Chain withOffsetBase(const kin::Chain& chain) {
  linalg::Mat4 base =
      linalg::Mat4::rotationZ(0.7) * linalg::Mat4::rotationY(-0.4);
  base(0, 3) = 0.3;
  base(1, 3) = -0.25;
  base(2, 3) = 0.15;
  return kin::Chain(chain.joints(), chain.name() + "+base", base);
}

linalg::VecX patternVec(std::size_t n, double scale, double phase) {
  linalg::VecX v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = scale * std::sin(0.7 * static_cast<double>(i) + phase);
  return v;
}

std::vector<double> alphaLadder(int max_spec, double alpha_base) {
  std::vector<double> alphas(static_cast<std::size_t>(max_spec));
  for (int k = 1; k <= max_spec; ++k)
    alphas[k - 1] = (static_cast<double>(k) / max_spec) * alpha_base;
  return alphas;
}

/// The IEEE bit pattern of x (tells +0 from -0 and NaN payloads apart).
std::uint64_t bitsOf(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof x);
  return bits;
}

TEST(SpecBackendRegistry, ScalarIsAlwaysPresentAndRunnable) {
  const SpecBackend& scalar = kin::scalarSpecBackend();
  EXPECT_STREQ(scalar.name(), "scalar");
  EXPECT_TRUE(kin::specBackendSupported(scalar));
  EXPECT_EQ(kin::specBackendByName("scalar"), &scalar);
  EXPECT_EQ(kin::specBackendByName("no-such-backend"), nullptr);
}

TEST(SpecBackendRegistry, CapsAreSane) {
  for (const SpecBackend* b : kin::allSpecBackends()) {
    EXPECT_GE(b->laneMultiple(), 1u) << b->name();
    EXPECT_GE(BatchedForward::kMaxWalkSliceLanes, b->laneMultiple())
        << b->name();
  }
}

TEST(SpecBackendRegistry, DispatchPicksARunnableBackend) {
  const SpecBackend& active = kin::dispatchedSpecBackend();
  EXPECT_TRUE(kin::specBackendSupported(active));
  EXPECT_EQ(kin::activeSpecBackendName(), active.name());
}

TEST(SpecBackendRegistry, OverrideRoundTrips) {
  const std::string original = kin::activeSpecBackendName();
  ASSERT_TRUE(kin::setSpecBackendOverride("scalar"));
  EXPECT_EQ(kin::activeSpecBackendName(), "scalar");
  // A BatchedForward constructed under the override binds scalar.
  BatchedForward batch;
  EXPECT_STREQ(batch.backend().name(), "scalar");
  EXPECT_FALSE(kin::setSpecBackendOverride("bogus"));
  EXPECT_EQ(kin::activeSpecBackendName(), "scalar") << "failed set must not change dispatch";
  ASSERT_TRUE(kin::setSpecBackendOverride(original));
  EXPECT_EQ(kin::activeSpecBackendName(), original);
}

// Every runnable wide backend must reproduce the scalar backend's
// candidates, positions and errors bit-for-bit
// across the DOF x K grid, on revolute-only and mixed prismatic
// chains, with identity and offset bases, clamped and free.
TEST(SpecBackendParity, BitExactAcrossDofKGrid) {
  const auto backends = runnableBackends();
  for (const std::size_t dof : {7u, 30u, 100u}) {
    for (const int k_count : {8, 64, 256, 512}) {
      const kin::Chain serpentine = kin::makeSerpentine(dof);
      const kin::Chain mixed = makeMixedChain(dof);
      for (const kin::Chain& chain :
           {serpentine, mixed, withOffsetBase(serpentine),
            withOffsetBase(mixed)}) {
        const linalg::VecX theta = patternVec(dof, 0.4, 0.3);
        const linalg::VecX dtheta = patternVec(dof, 1.1, 1.9);
        const linalg::Vec3 target{0.3, -0.2, 0.5};
        const auto alphas = alphaLadder(k_count, 0.37);

        for (const bool clamp : {false, true}) {
          BatchedForward ref(BatchedForward::Precision::kF64,
                             &kin::scalarSpecBackend());
          ref.reset(chain, alphas.size());
          ref.evaluateLanes(chain, theta, dtheta, alphas.data(), target,
                            clamp, 0, alphas.size());

          for (const SpecBackend* backend : backends) {
            if (backend == &kin::scalarSpecBackend()) continue;
            BatchedForward wide(BatchedForward::Precision::kF64, backend);
            wide.reset(chain, alphas.size());
            wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target,
                               clamp, 0, alphas.size());
            for (std::size_t k = 0; k < alphas.size(); ++k) {
              const linalg::Vec3 pr = ref.position(k);
              const linalg::Vec3 pw = wide.position(k);
              EXPECT_EQ(bitsOf(pr.x), bitsOf(pw.x))
                  << backend->name() << " " << chain.name() << " dof=" << dof
                  << " K=" << k_count << " clamp=" << clamp << " lane " << k;
              EXPECT_EQ(bitsOf(pr.y), bitsOf(pw.y));
              EXPECT_EQ(bitsOf(pr.z), bitsOf(pw.z));
              EXPECT_EQ(bitsOf(ref.errors()[k]), bitsOf(wide.errors()[k]))
                  << backend->name() << " lane " << k;
              linalg::VecX cr, cw;
              ref.candidateInto(k, cr);
              wide.candidateInto(k, cw);
              EXPECT_EQ(cr, cw) << backend->name() << " candidates lane " << k;
            }
          }
        }
      }
    }
  }
}

// Ragged tails: lane counts and sub-ranges that do not divide the
// vector width exercise the scalar tail path of the wide kernels.
TEST(SpecBackendParity, RaggedLaneRangesBitExact) {
  const auto chain = kin::makeSerpentine(30);
  const linalg::VecX theta = patternVec(30, 0.4, 0.0);
  const linalg::VecX dtheta = patternVec(30, 1.0, 1.0);
  const linalg::Vec3 target{0.3, 0.3, 0.3};
  const auto alphas = alphaLadder(13, 0.5);  // 13: never a lane multiple

  BatchedForward ref(BatchedForward::Precision::kF64,
                     &kin::scalarSpecBackend());
  ref.reset(chain, alphas.size());
  ref.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                    alphas.size());

  for (const SpecBackend* backend : runnableBackends()) {
    BatchedForward wide(BatchedForward::Precision::kF64, backend);
    wide.reset(chain, alphas.size());
    // Odd split points: [0,5), [5,6), [6,13).
    wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                       5);
    wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 5,
                       6);
    wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 6,
                       13);
    for (std::size_t k = 0; k < alphas.size(); ++k) {
      EXPECT_EQ(ref.position(k), wide.position(k))
          << backend->name() << " lane " << k;
      EXPECT_EQ(ref.errors()[k], wide.errors()[k]);
    }
  }
}

/// Bit-identical, except that any two NaNs match (NaN payloads are not
/// part of the parity contract).
bool sameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// alphaLadder with every third lane replaced by a hostile step: NaN,
/// +-Inf, +-1e300 and +-1e5.  With theta[0] = 0 and dtheta[0] = 1 the
/// first joint's candidate angle is exactly the step, so the walk's
/// libm fix-up lanes (non-finite, beyond and at the 1e5 cutoff) sit
/// between ordinary lanes inside every vector.
std::vector<double> hostileLadder(int max_spec, double alpha_base) {
  const double inf = std::numeric_limits<double>::infinity();
  const double hostile[] = {std::numeric_limits<double>::quiet_NaN(),
                            inf, -inf, 1e300, -1e300, 1e5, -1e5};
  std::vector<double> alphas = alphaLadder(max_spec, alpha_base);
  for (std::size_t k = 1; k < alphas.size(); k += 3)
    alphas[k] = hostile[(k / 3) % std::size(hostile)];
  return alphas;
}

void expectSameLanes(const BatchedForward& ref, const BatchedForward& wide,
                     std::size_t lanes, const char* name) {
  for (std::size_t k = 0; k < lanes; ++k) {
    const linalg::Vec3 pr = ref.position(k);
    const linalg::Vec3 pw = wide.position(k);
    EXPECT_TRUE(sameBits(pr.x, pw.x) && sameBits(pr.y, pw.y) &&
                sameBits(pr.z, pw.z))
        << name << " position lane " << k;
    EXPECT_TRUE(sameBits(ref.errors()[k], wide.errors()[k]))
        << name << " error lane " << k;
    linalg::VecX cr, cw;
    ref.candidateInto(k, cr);
    wide.candidateInto(k, cw);
    for (std::size_t i = 0; i < cr.size(); ++i)
      EXPECT_TRUE(sameBits(cr[i], cw[i]))
          << name << " candidate lane " << k << " joint " << i;
  }
}

// The DOF x K grid again with hostile lanes interleaved: every wide
// backend's libm fix-up lanes, and the ordinary lanes sharing their
// vectors, must match the scalar reference bit for bit.
TEST(SpecBackendParity, HostileLanesBitExactAcrossDofKGrid) {
  for (const std::size_t dof : {7u, 30u, 100u}) {
    for (const int k_count : {8, 64, 256}) {
      for (const bool mixed : {false, true}) {
        const kin::Chain chain =
            mixed ? makeMixedChain(dof) : kin::makeSerpentine(dof);
        linalg::VecX theta = patternVec(dof, 0.4, 0.3);
        linalg::VecX dtheta = patternVec(dof, 1.1, 1.9);
        theta[0] = 0.0;
        dtheta[0] = 1.0;
        const linalg::Vec3 target{0.3, -0.2, 0.5};
        const auto alphas = hostileLadder(k_count, 0.37);
        for (const bool clamp : {false, true}) {
          BatchedForward ref(BatchedForward::Precision::kF64,
                             &kin::scalarSpecBackend());
          ref.reset(chain, alphas.size());
          ref.evaluateLanes(chain, theta, dtheta, alphas.data(), target,
                            clamp, 0, alphas.size());
          for (const SpecBackend* backend : runnableBackends()) {
            if (backend == &kin::scalarSpecBackend()) continue;
            BatchedForward wide(BatchedForward::Precision::kF64, backend);
            wide.reset(chain, alphas.size());
            wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target,
                               clamp, 0, alphas.size());
            expectSameLanes(ref, wide, alphas.size(), backend->name());
          }
        }
      }
    }
  }
}

// Hostile lanes on both sides of ragged split points.
TEST(SpecBackendParity, HostileRaggedLanesBitExact) {
  const auto chain = kin::makeSerpentine(30);
  linalg::VecX theta = patternVec(30, 0.4, 0.0);
  linalg::VecX dtheta = patternVec(30, 1.0, 1.0);
  theta[0] = 0.0;
  dtheta[0] = 1.0;
  const linalg::Vec3 target{0.3, 0.3, 0.3};
  const auto alphas = hostileLadder(21, 0.5);  // never a lane multiple

  BatchedForward ref(BatchedForward::Precision::kF64,
                     &kin::scalarSpecBackend());
  ref.reset(chain, alphas.size());
  ref.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                    alphas.size());
  for (const SpecBackend* backend : runnableBackends()) {
    BatchedForward wide(BatchedForward::Precision::kF64, backend);
    wide.reset(chain, alphas.size());
    // Odd split points: [0,5), [5,6), [6,21).
    wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                       5);
    wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 5,
                       6);
    wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 6,
                       alphas.size());
    expectSameLanes(ref, wide, alphas.size(), backend->name());
  }
}

// Grouped sweeps run through the same backend seam: per-group results
// must equal per-group evaluateLanes calls on every backend.
TEST(SpecBackendParity, GroupedSweepMatchesPerGroupCalls) {
  const auto chain = kin::makeSerpentine(25);
  const linalg::Vec3 targets[3] = {
      {0.3, -0.2, 0.5}, {0.1, 0.4, -0.2}, {0.25, 0.25, 0.25}};
  const linalg::VecX thetas[3] = {patternVec(25, 0.4, 0.3),
                                  patternVec(25, 0.3, 1.1),
                                  patternVec(25, 0.5, 2.2)};
  const linalg::VecX dthetas[3] = {patternVec(25, 1.1, 1.9),
                                   patternVec(25, 0.9, 0.4),
                                   patternVec(25, 1.3, 2.8)};
  const std::size_t K = 19;  // ragged on purpose
  std::vector<double> alphas(3 * K);
  for (std::size_t g = 0; g < 3; ++g)
    for (std::size_t k = 0; k < K; ++k)
      alphas[g * K + k] =
          (static_cast<double>(k + 1) / static_cast<double>(K)) *
          (0.3 + 0.2 * static_cast<double>(g));

  for (const SpecBackend* backend : runnableBackends()) {
    BatchedForward grouped(BatchedForward::Precision::kF64, backend);
    grouped.reset(chain, 3 * K);
    BatchedForward::LaneGroup groups[3];
    for (std::size_t g = 0; g < 3; ++g)
      groups[g] = {&thetas[g], &dthetas[g], targets[g], g * K, (g + 1) * K};
    grouped.evaluateGrouped(chain, groups, 3, alphas.data(), false);

    BatchedForward single(BatchedForward::Precision::kF64, backend);
    single.reset(chain, 3 * K);
    for (std::size_t g = 0; g < 3; ++g)
      single.evaluateLanes(chain, thetas[g], dthetas[g], alphas.data(),
                           targets[g], false, g * K, (g + 1) * K);

    for (std::size_t k = 0; k < 3 * K; ++k) {
      EXPECT_EQ(grouped.position(k), single.position(k))
          << backend->name() << " lane " << k;
      EXPECT_EQ(grouped.errors()[k], single.errors()[k]);
    }
  }
}

// The cache seam: no contiguous walk may exceed the slice budget,
// however large the lane range and in either precision — and slicing
// must not change results (regression for the K > budget chunking
// defect, and for the f32 walk that never sliced).
TEST(SpecBackendSlicing, WalksNeverExceedFusedBudget) {
  const auto chain = kin::makeSerpentine(30);
  const linalg::VecX theta = patternVec(30, 0.4, 0.0);
  const linalg::VecX dtheta = patternVec(30, 1.0, 1.0);
  const linalg::Vec3 target{0.3, 0.3, 0.3};
  const auto alphas = alphaLadder(512, 0.5);
  const std::size_t budget = BatchedForward::kMaxWalkSliceLanes;
  ASSERT_LT(budget, alphas.size()) << "test needs K > budget";

  // Every runnable backend on the f64 walk, plus the f32 walk (which
  // always runs the scalar reference).
  std::vector<std::pair<BatchedForward::Precision, const SpecBackend*>> cases;
  for (const SpecBackend* backend : runnableBackends())
    cases.emplace_back(BatchedForward::Precision::kF64, backend);
  cases.emplace_back(BatchedForward::Precision::kF32,
                     &kin::scalarSpecBackend());

  for (const auto& [precision, backend] : cases) {
    const bool f32 = precision == BatchedForward::Precision::kF32;
    BatchedForward batch(precision, backend);
    batch.reset(chain, alphas.size());
    EXPECT_EQ(batch.maxWalkSliceLanes(), 0u) << "reset clears the seam";
    batch.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                        alphas.size());
    EXPECT_LE(batch.maxWalkSliceLanes(), budget)
        << backend->name() << " f32=" << f32;
    EXPECT_GT(batch.maxWalkSliceLanes(), 0u);

    // A 512-lane group through evaluateGrouped slices identically.
    BatchedForward grouped(precision, backend);
    grouped.reset(chain, alphas.size());
    const BatchedForward::LaneGroup group{&theta, &dtheta, target, 0,
                                          alphas.size()};
    grouped.evaluateGrouped(chain, &group, 1, alphas.data(), false);
    EXPECT_LE(grouped.maxWalkSliceLanes(), budget);
    for (std::size_t k = 0; k < alphas.size(); ++k) {
      EXPECT_EQ(batch.position(k), grouped.position(k)) << "lane " << k;
      EXPECT_EQ(batch.errors()[k], grouped.errors()[k]);
    }
  }
}

// Solver-level regression for the chunk-sizing defect: a K=512 burst
// (K far above the slice budget) through solveMany must produce
// bit-identical results to per-lane solve() calls.
TEST(SpecBackendSlicing, SolveManyAtK512MatchesPerLaneSolves) {
  const auto chain = kin::makeSerpentine(20);
  ik::SolveOptions options;
  options.speculations = 512;
  options.max_iterations = 12;

  ik::QuickIkSolver batched(chain, options,
                            ik::QuickIkSolver::Execution::kSerial);
  ik::QuickIkSolver single(chain, options,
                           ik::QuickIkSolver::Execution::kSerial);

  constexpr std::size_t kLanes = 5;
  std::vector<workload::IkTask> tasks;
  std::vector<ik::BatchLane> lanes;
  for (std::size_t i = 0; i < kLanes; ++i)
    tasks.push_back(workload::generateTask(chain, static_cast<int>(i)));
  for (std::size_t i = 0; i < kLanes; ++i)
    lanes.push_back({tasks[i].target, &tasks[i].seed, {}});

  std::vector<ik::BatchLaneResult> out(kLanes);
  batched.solveMany(lanes.data(), out.data(), kLanes);

  for (std::size_t i = 0; i < kLanes; ++i) {
    ASSERT_FALSE(out[i].error) << "lane " << i;
    const ik::SolveResult ref = single.solve(tasks[i].target, tasks[i].seed);
    EXPECT_EQ(out[i].result.status, ref.status) << "lane " << i;
    EXPECT_EQ(out[i].result.iterations, ref.iterations);
    EXPECT_EQ(out[i].result.error, ref.error);
    EXPECT_EQ(out[i].result.theta, ref.theta) << "bit-identical required";
  }
}

// The f32 datapath ignores the backend parameter (it always runs the
// scalar reference walk): explicit wide construction must not change
// f32 results.
TEST(SpecBackendParity, F32PathUnaffectedByBackendChoice) {
  const auto chain = kin::makeSerpentine(40);
  const linalg::VecX theta = patternVec(40, 0.35, 1.2);
  const linalg::VecX dtheta = patternVec(40, 0.8, 0.6);
  const linalg::Vec3 target{0.1, 0.4, -0.2};
  const auto alphas = alphaLadder(16, 0.42);

  BatchedForward ref(BatchedForward::Precision::kF32,
                     &kin::scalarSpecBackend());
  ref.reset(chain, alphas.size());
  ref.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                    alphas.size());
  for (const SpecBackend* backend : runnableBackends()) {
    BatchedForward wide(BatchedForward::Precision::kF32, backend);
    wide.reset(chain, alphas.size());
    wide.evaluateLanes(chain, theta, dtheta, alphas.data(), target, false, 0,
                       alphas.size());
    for (std::size_t k = 0; k < alphas.size(); ++k) {
      EXPECT_EQ(ref.position(k), wide.position(k))
          << backend->name() << " lane " << k;
      EXPECT_EQ(ref.errors()[k], wide.errors()[k]);
    }
  }
}

}  // namespace
}  // namespace dadu
