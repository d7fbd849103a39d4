// Batched speculative FK kernel tests: lane-for-lane agreement with the
// scalar per-candidate path (f64 and f32, revolute and prismatic,
// identity and offset bases, clamped and free, per-lane trig and Eq. 9's
// ladder), independence from the lane-chunk split, solver equivalence
// after the rewire, and an allocation audit of the solver hot loop using
// a counting global operator new.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

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

//
// The replacements are never inlined, so every call site pairs an
// `operator new` call with an `operator delete` call.  Inlined, GCC 12
// sees `std::free` applied to a pointer from `operator new` and reports
// -Wmismatched-new-delete, although malloc and free match here.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

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

/// Lanes [lo, hi) of alphaLadder(alphas.size(), alpha_base): the alpha
/// array with per-lane trig, or Eq. 9's ladder (evaluateLadder).
void sweepLanes(BatchedForward& batch, bool ladder, const kin::Chain& chain,
                const linalg::VecX& theta, const linalg::VecX& dtheta,
                const std::vector<double>& alphas, double alpha_base,
                const linalg::Vec3& target, bool clamp, std::size_t lo,
                std::size_t hi) {
  if (ladder)
    batch.evaluateLadder(chain, theta, dtheta, alpha_base, alphas.size(),
                         target, clamp, lo, hi);
  else
    batch.evaluateLanes(chain, theta, dtheta, alphas.data(), target, clamp,
                        lo, hi);
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

        for (const bool ladder : {false, true}) {
          BatchedForward batch;
          batch.reset(chain, alphas.size());
          sweepLanes(batch, ladder, chain, theta, dtheta, alphas, 0.37,
                     target, false, 0, alphas.size());
          for (std::size_t k = 0; k < alphas.size(); ++k) {
            EXPECT_LT((batch.position(k) - ref.x_k[k]).norm(), 1e-12)
                << chain.name() << " " << dof << "-DOF K=" << k_count
                << " ladder=" << ladder << " lane " << k;
            EXPECT_NEAR(batch.errors()[k], ref.error_k[k], 1e-12);
            linalg::VecX cand;
            batch.candidateInto(k, cand);
            EXPECT_LT((cand - ref.theta_k[k]).norm(), 1e-15);
          }
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
      for (const bool ladder : {false, true}) {
        BatchedForward batch;
        batch.reset(chain, alphas.size());
        sweepLanes(batch, ladder, chain, theta, dtheta, alphas, 0.8, target,
                   clamp, 0, alphas.size());
        for (std::size_t k = 0; k < alphas.size(); ++k) {
          EXPECT_LT((batch.position(k) - ref.x_k[k]).norm(), 1e-12)
              << chain.name() << " clamp=" << clamp << " ladder=" << ladder
              << " lane " << k;
          EXPECT_NEAR(batch.errors()[k], ref.error_k[k], 1e-12);
        }
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

  for (const bool ladder : {false, true}) {
    BatchedForward batch;
    batch.reset(chain, alphas.size());
    sweepLanes(batch, ladder, chain, theta, dtheta, alphas, 1.0, target, true,
               0, alphas.size());
    for (std::size_t k = 0; k < alphas.size(); ++k) {
      linalg::VecX cand;
      batch.candidateInto(k, cand);
      EXPECT_TRUE(chain.withinLimits(cand))
          << "ladder=" << ladder << " lane " << k;
      EXPECT_LT((cand - ref.theta_k[k]).norm(), 1e-15);
      EXPECT_LT((batch.position(k) - ref.x_k[k]).norm(), 1e-12);
    }
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
  // Evaluating [0,K) in one call or as disjoint chunks must produce
  // identical lanes, in either form of the sweep.
  const auto chain = kin::makeSerpentine(50);
  const linalg::VecX theta = patternVec(50, 0.4, 0.0);
  const linalg::VecX dtheta = patternVec(50, 1.0, 1.0);
  const linalg::Vec3 target{0.3, 0.3, 0.3};
  const auto alphas = alphaLadder(64, 0.5);

  for (const bool ladder : {false, true}) {
    BatchedForward whole;
    whole.reset(chain, alphas.size());
    sweepLanes(whole, ladder, chain, theta, dtheta, alphas, 0.5, target,
               false, 0, alphas.size());

    BatchedForward split;
    split.reset(chain, alphas.size());
    for (std::size_t lo = 0; lo < alphas.size(); lo += 13)
      sweepLanes(split, ladder, chain, theta, dtheta, alphas, 0.5, target,
                 false, lo, std::min(alphas.size(), lo + 13));

    for (std::size_t k = 0; k < alphas.size(); ++k) {
      EXPECT_EQ(whole.position(k), split.position(k))
          << "ladder=" << ladder << " lane " << k;
      EXPECT_EQ(whole.errors()[k], split.errors()[k]);
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

// ---------------------------------------------------------------------------
// Golden bits.  The parity suites compare backends with each other; these
// hashes pin the f64 walk to fixed bits.  They were recorded when the
// walk's sin/cos, Eq. 9's rotation and the point step took fused
// multiply-adds, with each of the scalar, AVX2 and AVX-512 backends
// forced (all three agreed), and must not change when the walk's
// structure changes: every lane performs the same IEEE operations.

/// FNV-1a over 64-bit words.  NaNs hash as one canonical pattern (their
/// payloads are not part of the walk's contract).
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double x) {
    std::uint64_t bits = 0x7ff8000000000000ULL;
    if (!std::isnan(x)) std::memcpy(&bits, &x, sizeof x);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Every lane's error, position and candidate, in lane order.
std::uint64_t lanesHash(const BatchedForward& batch, std::size_t lanes) {
  BitHash hash;
  linalg::VecX cand;
  for (std::size_t k = 0; k < lanes; ++k) {
    hash.add(batch.errors()[k]);
    const linalg::Vec3 p = batch.position(k);
    hash.add(p.x);
    hash.add(p.y);
    hash.add(p.z);
    batch.candidateInto(k, cand);
    for (std::size_t i = 0; i < cand.size(); ++i) hash.add(cand[i]);
  }
  return hash.h;
}

/// `chain` with every revolute joint limited to [-0.5, 0.5], so the
/// clamp binds on some lanes of most joints.
kin::Chain withRevoluteLimits(const kin::Chain& chain) {
  std::vector<kin::Joint> joints = chain.joints();
  for (kin::Joint& joint : joints) {
    if (joint.type != kin::JointType::kRevolute) continue;
    joint.min = -0.5;
    joint.max = 0.5;
  }
  return kin::Chain(std::move(joints), chain.name() + "+limits",
                    chain.base());
}

/// makeMixedChain with a DH angle offset on every other revolute joint
/// (the walk adds it to each candidate angle).
kin::Chain makeOffsetMixedChain(std::size_t dof) {
  std::vector<kin::Joint> joints = makeMixedChain(dof).joints();
  for (std::size_t i = 0; i < dof; ++i)
    if (i % 3 == 1) joints[i].dh.theta = -0.7;
  return kin::Chain(std::move(joints), "mixed-offset");
}

/// Lane partitions every golden sweep runs: one call over all lanes,
/// ragged splits at lanes 5 and 6, and IKAcc-style waves of 1, 3 and 32
/// lanes.
using LanePartition = std::vector<std::pair<std::size_t, std::size_t>>;
std::vector<LanePartition> goldenPartitions(std::size_t lanes) {
  std::vector<LanePartition> parts = {{{0, lanes}}, {}};
  std::size_t lo = 0;
  for (const std::size_t cut : {std::size_t{5}, std::size_t{6}, lanes}) {
    if (std::min(cut, lanes) <= lo) continue;
    parts.back().push_back({lo, std::min(cut, lanes)});
    lo = std::min(cut, lanes);
  }
  for (const std::size_t wave : {1u, 3u, 32u}) {
    parts.emplace_back();
    for (std::size_t w = 0; w < lanes; w += wave)
      parts.back().push_back({w, std::min(lanes, w + wave)});
  }
  return parts;
}

struct GoldenCase {
  const char* name;
  std::uint64_t hash;
};

// One hash per chain x form x hostility x clamp, over K in
// {1, 7, 8, 9, 16, 64, 100}.  "far" puts one mid-chain joint's lane
// angles across the walk's 1e5 trig cutoff; "nan" gives another
// mid-chain joint a NaN dtheta.
const GoldenCase kGoldenCases[] = {
    {"kuka-iiwa14/ladder/far/clamp", 0xafadc30723497425ULL},
    {"kuka-iiwa14/ladder/far/free", 0x1bd8a534a7001623ULL},
    {"kuka-iiwa14/ladder/nan/clamp", 0x7cb2ed65245a1010ULL},
    {"kuka-iiwa14/ladder/nan/free", 0x7cb2ed65245a1010ULL},
    {"kuka-iiwa14/ladder/plain/clamp", 0x331cd5a69123579fULL},
    {"kuka-iiwa14/ladder/plain/free", 0x331cd5a69123579fULL},
    {"kuka-iiwa14/lanes/far/clamp", 0x9f0bbf1eb9d79f6fULL},
    {"kuka-iiwa14/lanes/far/free", 0xa133cc3266aae41dULL},
    {"kuka-iiwa14/lanes/nan/clamp", 0x7cb2ed65245a1010ULL},
    {"kuka-iiwa14/lanes/nan/free", 0x7cb2ed65245a1010ULL},
    {"kuka-iiwa14/lanes/plain/clamp", 0x9f55713a3d651d53ULL},
    {"kuka-iiwa14/lanes/plain/free", 0x9f55713a3d651d53ULL},
    {"mixed-offset+base/ladder/far/clamp", 0x361a7c5688ea3a9bULL},
    {"mixed-offset+base/ladder/far/free", 0xc8fcddb44e99cd1cULL},
    {"mixed-offset+base/ladder/nan/clamp", 0x72370226cd9fbb3dULL},
    {"mixed-offset+base/ladder/nan/free", 0x1e467cb241023e51ULL},
    {"mixed-offset+base/ladder/plain/clamp", 0xcc1291ad8f1a9358ULL},
    {"mixed-offset+base/ladder/plain/free", 0xc4a01f1d8cb49948ULL},
    {"mixed-offset+base/lanes/far/clamp", 0x519e5a70fbe08c41ULL},
    {"mixed-offset+base/lanes/far/free", 0xcc5620167ba054d3ULL},
    {"mixed-offset+base/lanes/nan/clamp", 0x72370226cd9fbb3dULL},
    {"mixed-offset+base/lanes/nan/free", 0x1e467cb241023e51ULL},
    {"mixed-offset+base/lanes/plain/clamp", 0x167007200ee88723ULL},
    {"mixed-offset+base/lanes/plain/free", 0x8bfd52ba685ce0edULL},
    {"serpentine-100dof+limits/ladder/far/clamp", 0x7a5fb9f0a84091e1ULL},
    {"serpentine-100dof+limits/ladder/far/free", 0x837fea72b98305e3ULL},
    {"serpentine-100dof+limits/ladder/nan/clamp", 0x8a0cc59c0d93b30cULL},
    {"serpentine-100dof+limits/ladder/nan/free", 0x78905249b3a2ddffULL},
    {"serpentine-100dof+limits/ladder/plain/clamp", 0x78641f8e6d919b3cULL},
    {"serpentine-100dof+limits/ladder/plain/free", 0xab3bfaa3a1c7f0ULL},
    {"serpentine-100dof+limits/lanes/far/clamp", 0xa73d76a918ef3fddULL},
    {"serpentine-100dof+limits/lanes/far/free", 0x2a7d0f6a7cd42a0cULL},
    {"serpentine-100dof+limits/lanes/nan/clamp", 0x8a0cc59c0d93b30cULL},
    {"serpentine-100dof+limits/lanes/nan/free", 0x78905249b3a2ddffULL},
    {"serpentine-100dof+limits/lanes/plain/clamp", 0x42e05c270562ec4aULL},
    {"serpentine-100dof+limits/lanes/plain/free", 0x859d67f51bb0b0c9ULL},
    {"serpentine-100dof/ladder/far/clamp", 0x837fea72b98305e3ULL},
    {"serpentine-100dof/ladder/far/free", 0x837fea72b98305e3ULL},
    {"serpentine-100dof/ladder/nan/clamp", 0x78905249b3a2ddffULL},
    {"serpentine-100dof/ladder/nan/free", 0x78905249b3a2ddffULL},
    {"serpentine-100dof/ladder/plain/clamp", 0xab3bfaa3a1c7f0ULL},
    {"serpentine-100dof/ladder/plain/free", 0xab3bfaa3a1c7f0ULL},
    {"serpentine-100dof/lanes/far/clamp", 0x2a7d0f6a7cd42a0cULL},
    {"serpentine-100dof/lanes/far/free", 0x2a7d0f6a7cd42a0cULL},
    {"serpentine-100dof/lanes/nan/clamp", 0x78905249b3a2ddffULL},
    {"serpentine-100dof/lanes/nan/free", 0x78905249b3a2ddffULL},
    {"serpentine-100dof/lanes/plain/clamp", 0x859d67f51bb0b0c9ULL},
    {"serpentine-100dof/lanes/plain/free", 0x859d67f51bb0b0c9ULL},
    {"serpentine-12dof/ladder/far/clamp", 0x5ff4c96403da386fULL},
    {"serpentine-12dof/ladder/far/free", 0x5ff4c96403da386fULL},
    {"serpentine-12dof/ladder/nan/clamp", 0x792abefbc689882aULL},
    {"serpentine-12dof/ladder/nan/free", 0x792abefbc689882aULL},
    {"serpentine-12dof/ladder/plain/clamp", 0x49d741a12c87f30aULL},
    {"serpentine-12dof/ladder/plain/free", 0x49d741a12c87f30aULL},
    {"serpentine-12dof/lanes/far/clamp", 0x36c19bdfccef25bfULL},
    {"serpentine-12dof/lanes/far/free", 0x36c19bdfccef25bfULL},
    {"serpentine-12dof/lanes/nan/clamp", 0x792abefbc689882aULL},
    {"serpentine-12dof/lanes/nan/free", 0x792abefbc689882aULL},
    {"serpentine-12dof/lanes/plain/clamp", 0x75340ac3abac0bf2ULL},
    {"serpentine-12dof/lanes/plain/free", 0x75340ac3abac0bf2ULL},
};

TEST(BatchedForwardGoldenBits, WalkMatchesRecordedBits) {
  const std::vector<kin::Chain> chains = {
      kin::makeSerpentine(12), kin::makeSerpentine(100),
      withRevoluteLimits(kin::makeSerpentine(100)), kin::makeKukaIiwa(),
      withOffsetBase(makeOffsetMixedChain(30))};
  const linalg::Vec3 target{0.3, -0.2, 0.5};
  const double alpha_base = 0.37;
  std::size_t checked = 0;
  for (const kin::Chain& chain : chains) {
    const std::size_t dof = chain.dof();
    for (const bool ladder : {false, true}) {
      for (const char* hostility : {"plain", "far", "nan"}) {
        linalg::VecX theta = patternVec(dof, 1.5, 0.3);
        linalg::VecX dtheta = patternVec(dof, 3.0, 1.9);
        if (std::string(hostility) == "far") {
          theta[dof / 2] = 99990.0;
          dtheta[dof / 2] = 40.0;
        } else if (std::string(hostility) == "nan") {
          dtheta[dof / 3] = std::numeric_limits<double>::quiet_NaN();
        }
        for (const bool clamp : {false, true}) {
          const std::string name = chain.name() + "/" +
                                   (ladder ? "ladder" : "lanes") + "/" +
                                   hostility + (clamp ? "/clamp" : "/free");
          BitHash combined;
          for (const std::size_t k_count : {1u, 7u, 8u, 9u, 16u, 64u, 100u}) {
            const auto alphas =
                alphaLadder(static_cast<int>(k_count), alpha_base);
            std::uint64_t whole = 0;
            for (const auto& part : goldenPartitions(k_count)) {
              BatchedForward batch;
              batch.reset(chain, k_count);
              for (const auto& [lo, hi] : part)
                sweepLanes(batch, ladder, chain, theta, dtheta, alphas,
                           alpha_base, target, clamp, lo, hi);
              const std::uint64_t h = lanesHash(batch, k_count);
              if (part.size() == 1) whole = h;
              EXPECT_EQ(h, whole) << name << " K=" << k_count << " split into "
                                  << part.size() << " calls";
            }
            combined.add(std::bit_cast<double>(whole));
          }
          const auto it = std::find_if(
              std::begin(kGoldenCases), std::end(kGoldenCases),
              [&](const GoldenCase& c) { return name == c.name; });
          const std::uint64_t expected =
              it != std::end(kGoldenCases) ? it->hash : 0;
          EXPECT_EQ(combined.h, expected)
              << "{\"" << name << "\", 0x" << std::hex << combined.h << "ULL},";
          checked += it != std::end(kGoldenCases);
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenCases));
}

/// serpentine:100 with one mid-chain joint limited so that the clamp
/// moves some of its lanes and not others; every other joint is free.
constexpr std::size_t kLimitedJoint = 57;
kin::Chain oneLimitedJointChain() {
  std::vector<kin::Joint> joints = kin::makeSerpentine(100).joints();
  joints[kLimitedJoint].min = -0.5;
  joints[kLimitedJoint].max = 0.5;
  return kin::Chain(std::move(joints), "serpentine-100dof+one-limit");
}

// Recorded like kGoldenCases: oneLimitedJointChain's clamped ladder
// sweep at K = 64, whole and in IKAcc-style waves.
constexpr std::uint64_t kOneLimitedJointHash = 0xbe84be197d224ffdULL;

TEST(BatchedForwardGoldenBits, OnlyTheClampedJointTakesLaneTrig) {
  const kin::Chain chain = oneLimitedJointChain();
  linalg::VecX theta = patternVec(100, 0.4, 0.3);
  linalg::VecX dtheta = patternVec(100, 1.1, 1.9);
  // The limited joint's candidates run from 0.3 to 0.3 + 0.37 * 1.1 =
  // 0.707: the clamp moves lanes k >= 31 to 0.5.
  theta[kLimitedJoint] = 0.3;
  dtheta[kLimitedJoint] = 1.1;
  const linalg::Vec3 target{0.3, -0.2, 0.5};
  const std::size_t k_count = 64;
  for (const auto& part : goldenPartitions(k_count)) {
    BatchedForward batch;
    batch.reset(chain, k_count);
    for (const auto& [lo, hi] : part) {
      batch.evaluateLadder(chain, theta, dtheta, 0.37, k_count, target, true,
                           lo, hi);
      // Only the limited joint can ever need per-lane trig.  (Ranges
      // inside the first ladder block are per-lane trig at every joint:
      // there the ladder's factors are the lanes' own.)
      for (std::size_t i = 0; i < chain.dof(); ++i) {
        if (i != kLimitedJoint && hi > kin::kLadderBlock) {
          EXPECT_FALSE(batch.laneTrigAt(i)) << "joint " << i;
        }
      }
    }
    if (part.size() == 1) {
      EXPECT_TRUE(batch.laneTrigAt(kLimitedJoint));
    }
    EXPECT_EQ(lanesHash(batch, k_count), kOneLimitedJointHash)
        << part.size() << " calls";
  }
}

// candidateInto recomputes the winning row from the kept theta, dtheta
// and alpha: after a clamped sweep it is exactly the chain's clamp of
// theta + alpha_k * dtheta, for every lane, whole or in waves.
TEST(BatchedForwardKinematics, CandidateIntoIsTheClampedLadderRow) {
  for (const kin::Chain& chain :
       {kin::makeKukaIiwa(), withRevoluteLimits(kin::makeSerpentine(30)),
        withOffsetBase(makeOffsetMixedChain(30))}) {
    const linalg::VecX theta = patternVec(chain.dof(), 1.5, 0.3);
    const linalg::VecX dtheta = patternVec(chain.dof(), 3.0, 1.9);
    for (const std::size_t k_count : {7u, 64u, 100u}) {
      const auto alphas = alphaLadder(static_cast<int>(k_count), 0.37);
      for (const auto& part : goldenPartitions(k_count)) {
        BatchedForward batch;
        batch.reset(chain, k_count);
        for (const auto& [lo, hi] : part)
          batch.evaluateLadder(chain, theta, dtheta, 0.37, k_count,
                               {0.3, -0.2, 0.5}, true, lo, hi);
        linalg::VecX cand, expected(chain.dof());
        for (std::size_t k = 0; k < k_count; ++k) {
          batch.candidateInto(k, cand);
          linalg::axpyInto(alphas[k], dtheta, theta, expected);
          EXPECT_EQ(cand, chain.clampToLimits(expected))
              << chain.name() << " K=" << k_count << " lane " << k << ", "
              << part.size() << " calls";
        }
      }
    }
  }
}

TEST(BatchedForwardKinematics, ClampedSolverIterationsAllocateNothingOnceWarm) {
  // SolverIterationsAllocateNothingOnceWarm on a joint-limited chain
  // with clamping on, so the walk's fix-up lanes run every iteration.
  const auto chain = withRevoluteLimits(kin::makeSerpentine(50));
  const auto task = workload::generateTask(chain, 1);
  const auto solve_allocs = [&](int iterations) {
    ik::SolveOptions options;
    options.accuracy = 0.0;  // never converge: run the full budget
    options.max_iterations = iterations;
    options.clamp_to_limits = true;
    ik::QuickIkSolver solver(chain, options);
    (void)solver.solve(task.target, task.seed);  // warm-up
    const long long before = allocationCount();
    (void)solver.solve(task.target, task.seed);
    return allocationCount() - before;
  };
  EXPECT_EQ(solve_allocs(8), solve_allocs(64))
      << "per-iteration allocations detected in the clamped speculation loop";
}

}  // namespace
}  // namespace dadu
