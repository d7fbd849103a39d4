// Speculation-backend tests: registry/dispatch sanity, bit-exact
// parity of every carried wide backend (AVX2, AVX-512) against the
// scalar reference across DOF x K grids — revolute and prismatic
// chains, identity and offset bases, clamped and free, ragged lane
// ranges, hostile lanes that take the walk's libm trig fallback,
// grouped sweeps, and all of it again through Eq. 9's ladder
// (evaluateLadder) with its fix-up lanes and wave-shaped partitions —
// the walk-slicing cache seam (both precisions), and solver-level
// identity at K > the slice budget, the serial head's trig
// (SpecBackend::sinCos) against specSinCos, and the fused multiply-add
// contract of the sin/cos and the walk on every backend.
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
#include "dadu/kinematics/backends/walk_ref.hpp"
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

// Every third joint telescopes; of the revolute joints, every other one
// has a DH angle offset, which the walk adds to each candidate angle.
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
      if (i % 3 == 1) dh.theta = -0.7;
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

/// The two forms of a sweep over alphaLadder(k_count, alpha_base): the
/// alpha array with per-lane trig, and Eq. 9's ladder.
enum class Form { kArray, kLadder };

const char* formName(Form form) {
  return form == Form::kArray ? "array" : "ladder";
}

void sweep(BatchedForward& batch, Form form, const kin::Chain& chain,
           const linalg::VecX& theta, const linalg::VecX& dtheta,
           double alpha_base, std::size_t k_count,
           const linalg::Vec3& target, bool clamp, std::size_t lo,
           std::size_t hi) {
  if (form == Form::kLadder) {
    batch.evaluateLadder(chain, theta, dtheta, alpha_base, k_count, target,
                         clamp, lo, hi);
  } else {
    const auto alphas = alphaLadder(static_cast<int>(k_count), alpha_base);
    batch.evaluateLanes(chain, theta, dtheta, alphas.data(), target, clamp,
                        lo, hi);
  }
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
// chains, with identity and offset bases, clamped and free, in both
// forms of the sweep.
TEST(SpecBackendParity, BitExactAcrossDofKGrid) {
  const auto backends = runnableBackends();
  for (const std::size_t dof : {7u, 30u, 100u}) {
    for (const std::size_t k_count : {8u, 64u, 256u, 512u}) {
      const kin::Chain serpentine = kin::makeSerpentine(dof);
      const kin::Chain mixed = makeMixedChain(dof);
      for (const kin::Chain& chain :
           {serpentine, mixed, withOffsetBase(serpentine),
            withOffsetBase(mixed)}) {
        const linalg::VecX theta = patternVec(dof, 0.4, 0.3);
        const linalg::VecX dtheta = patternVec(dof, 1.1, 1.9);
        const linalg::Vec3 target{0.3, -0.2, 0.5};

        for (const Form form : {Form::kArray, Form::kLadder}) {
          for (const bool clamp : {false, true}) {
            BatchedForward ref(BatchedForward::Precision::kF64,
                               &kin::scalarSpecBackend());
            ref.reset(chain, k_count);
            sweep(ref, form, chain, theta, dtheta, 0.37, k_count, target,
                  clamp, 0, k_count);

            for (const SpecBackend* backend : backends) {
              if (backend == &kin::scalarSpecBackend()) continue;
              BatchedForward wide(BatchedForward::Precision::kF64, backend);
              wide.reset(chain, k_count);
              sweep(wide, form, chain, theta, dtheta, 0.37, k_count, target,
                    clamp, 0, k_count);
              for (std::size_t k = 0; k < k_count; ++k) {
                const linalg::Vec3 pr = ref.position(k);
                const linalg::Vec3 pw = wide.position(k);
                EXPECT_EQ(bitsOf(pr.x), bitsOf(pw.x))
                    << backend->name() << " " << formName(form) << " "
                    << chain.name() << " dof=" << dof << " K=" << k_count
                    << " clamp=" << clamp << " lane " << k;
                EXPECT_EQ(bitsOf(pr.y), bitsOf(pw.y));
                EXPECT_EQ(bitsOf(pr.z), bitsOf(pw.z));
                EXPECT_EQ(bitsOf(ref.errors()[k]), bitsOf(wide.errors()[k]))
                    << backend->name() << " lane " << k;
                linalg::VecX cr, cw;
                ref.candidateInto(k, cr);
                wide.candidateInto(k, cw);
                EXPECT_EQ(cr, cw)
                    << backend->name() << " candidates lane " << k;
              }
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
  const std::size_t k_count = 13;  // never a lane multiple

  for (const Form form : {Form::kArray, Form::kLadder}) {
    BatchedForward ref(BatchedForward::Precision::kF64,
                       &kin::scalarSpecBackend());
    ref.reset(chain, k_count);
    sweep(ref, form, chain, theta, dtheta, 0.5, k_count, target, false, 0,
          k_count);

    for (const SpecBackend* backend : runnableBackends()) {
      BatchedForward wide(BatchedForward::Precision::kF64, backend);
      wide.reset(chain, k_count);
      // Odd split points: [0,5), [5,6), [6,13).
      sweep(wide, form, chain, theta, dtheta, 0.5, k_count, target, false, 0,
            5);
      sweep(wide, form, chain, theta, dtheta, 0.5, k_count, target, false, 5,
            6);
      sweep(wide, form, chain, theta, dtheta, 0.5, k_count, target, false, 6,
            13);
      for (std::size_t k = 0; k < k_count; ++k) {
        EXPECT_EQ(ref.position(k), wide.position(k))
            << backend->name() << " " << formName(form) << " lane " << k;
        EXPECT_EQ(ref.errors()[k], wide.errors()[k]);
      }
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

/// Hostile inputs for the ladder, which takes no alpha array: each
/// variant patches one joint's theta/dtheta so that the ladder's fix-up
/// pass owns some lanes.  "limits" clamps every revolute joint to
/// [-0.5, 0.5] instead.
struct LadderHostility {
  const char* name;
  std::size_t joint;
  double theta, dtheta;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
const LadderHostility kLadderHostility[] = {
    {"none", 0, 0.0, 0.0},
    {"limits", 0, 0.0, 0.0},
    // Lane angles run from 99980 past the 1e5 cutoff.
    {"crosses cutoff", 0, 99980.0, 150.0},
    // Block steps j * 8 / K * 0.37 * 5e5 leave the fast range while the
    // base and many lane angles stay inside it.
    {"huge block step", 1, -9e4, 5e5},
    {"NaN dtheta", 2, 0.3, std::numeric_limits<double>::quiet_NaN()},
    {"+Inf dtheta", 2, 0.3, kInf},
    {"-Inf dtheta", 3, 0.3, -kInf},
};

/// `chain` with every revolute joint limited to [-0.5, 0.5].
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

// The ladder's fix-up lanes — clamped, past the 1e5 cutoff, behind an
// out-of-range block step, non-finite dtheta — on the DOF x K grid:
// every wide backend matches the scalar reference bit for bit.
TEST(SpecBackendParity, HostileLadderBitExactAcrossDofKGrid) {
  for (const std::size_t dof : {7u, 30u, 100u}) {
    for (const std::size_t k_count : {8u, 64u, 256u, 512u}) {
      for (const bool mixed : {false, true}) {
        for (const LadderHostility& h : kLadderHostility) {
          const kin::Chain plain =
              mixed ? makeMixedChain(dof) : kin::makeSerpentine(dof);
          const bool limits = std::string(h.name) == "limits";
          const kin::Chain chain = limits ? withRevoluteLimits(plain) : plain;
          linalg::VecX theta = patternVec(dof, 0.4, 0.3);
          linalg::VecX dtheta = patternVec(dof, 1.1, 1.9);
          if (h.dtheta != 0.0) {
            theta[h.joint] = h.theta;
            dtheta[h.joint] = h.dtheta;
          }
          const linalg::Vec3 target{0.3, -0.2, 0.5};
          for (const bool clamp : {false, true}) {
            BatchedForward ref(BatchedForward::Precision::kF64,
                               &kin::scalarSpecBackend());
            ref.reset(chain, k_count);
            ref.evaluateLadder(chain, theta, dtheta, 0.37, k_count, target,
                               clamp, 0, k_count);
            for (const SpecBackend* backend : runnableBackends()) {
              if (backend == &kin::scalarSpecBackend()) continue;
              BatchedForward wide(BatchedForward::Precision::kF64, backend);
              wide.reset(chain, k_count);
              wide.evaluateLadder(chain, theta, dtheta, 0.37, k_count,
                                  target, clamp, 0, k_count);
              expectSameLanes(ref, wide, k_count,
                              (std::string(backend->name()) + " " + h.name)
                                  .c_str());
            }
          }
        }
      }
    }
  }
}

// Wave-shaped partitions of the ladder — IKAcc's num_ssus-lane waves,
// odd splits and one-lane waves, with hostile lanes — equal one call
// over the whole range on every backend, bit for bit: each lane's
// factors depend on its index only.
TEST(SpecBackendParity, LadderWavePartitionsBitExact) {
  const auto chain = withRevoluteLimits(makeMixedChain(30));
  for (const std::size_t k_count : {13u, 64u, 300u, 512u}) {
    for (const LadderHostility& h : kLadderHostility) {
      linalg::VecX theta = patternVec(30, 0.4, 0.0);
      linalg::VecX dtheta = patternVec(30, 1.0, 1.0);
      if (h.dtheta != 0.0) {
        theta[h.joint] = h.theta;
        dtheta[h.joint] = h.dtheta;
      }
      const linalg::Vec3 target{0.3, 0.3, 0.3};
      const bool clamp = std::string(h.name) == "limits";
      BatchedForward ref(BatchedForward::Precision::kF64,
                         &kin::scalarSpecBackend());
      ref.reset(chain, k_count);
      ref.evaluateLadder(chain, theta, dtheta, 0.5, k_count, target, clamp, 0,
                         k_count);
      for (const SpecBackend* backend : runnableBackends()) {
        for (const std::size_t wave : {1u, 3u, 5u, 8u, 13u, 16u, 100u}) {
          BatchedForward waves(BatchedForward::Precision::kF64, backend);
          waves.reset(chain, k_count);
          for (std::size_t lo = 0; lo < k_count; lo += wave)
            waves.evaluateLadder(chain, theta, dtheta, 0.5, k_count, target,
                                 clamp, lo, std::min(k_count, lo + wave));
          expectSameLanes(ref, waves, k_count,
                          (std::string(backend->name()) + " " + h.name +
                           " wave " + std::to_string(wave))
                              .c_str());
        }
      }
    }
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

  ik::QuickIkSolver batched(chain, options);
  ik::QuickIkSolver single(chain, options);

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

// SpecBackend::sinCos, the serial head's trig, returns specSinCos's
// bits on every backend: whole vectors, ragged tails (n = 0, 1, 7, 8, 9
// and 100 cover every backend's widths), angles on both sides of the
// +-1e5 libm cutoff, and NaN/+-Inf lanes in vector bodies and tails.
// Nothing past n is written.
TEST(SpecBackendParity, SinCosMatchesSpecSinCosBitForBit) {
  const double hostile[] = {1e5,
                            -1e5,
                            std::nextafter(1e5, 0.0),
                            std::nextafter(-1e5, 0.0),
                            std::nextafter(1e5, 2e5),
                            -2.5e7,
                            std::numeric_limits<double>::quiet_NaN(),
                            kInf,
                            -kInf,
                            -0.0};
  constexpr double kCanary = -7.25;
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
    for (std::size_t shift = 0; shift < std::size(hostile); ++shift) {
      // Every lane whose index is 3 mod 4 is hostile, cycling through
      // the list from `shift`, so each value meets each lane position.
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = i % 4 == 3
                   ? hostile[(shift + i / 4) % std::size(hostile)]
                   : 9.0 * std::sin(1.3 * static_cast<double>(i + shift));
      std::vector<double> s_ref(n), c_ref(n);
      kin::specSinCos(x.data(), s_ref.data(), c_ref.data(), n);
      for (const SpecBackend* backend : runnableBackends()) {
        std::vector<double> s(n + 8, kCanary), c(n + 8, kCanary);
        backend->sinCos(x.data(), s.data(), c.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bitsOf(s[i]), bitsOf(s_ref[i]))
              << backend->name() << " n " << n << " sin lane " << i
              << " x = " << x[i];
          ASSERT_EQ(bitsOf(c[i]), bitsOf(c_ref[i]))
              << backend->name() << " n " << n << " cos lane " << i
              << " x = " << x[i];
        }
        for (std::size_t i = n; i < n + 8; ++i) {
          ASSERT_EQ(s[i], kCanary) << backend->name() << " wrote sin " << i;
          ASSERT_EQ(c[i], kCanary) << backend->name() << " wrote cos " << i;
        }
      }
    }
  }
}

// ---- The fused multiply-add contract -------------------------------------
//
// The walk's sin/cos, Eq. 9's rotation and the DH point step use V::fma
// and V::fnma, each rounded once.  A backend that lowered them to a
// rounded multiply and an add would stay within a few ULPs of libm and
// agree with itself, so these tests compare every runnable backend with
// the contract written out here, fused and unfused, and need no second
// backend to fail.  This file compiles with -ffp-contract=off, so the
// unfused forms below stay unfused.

/// ScalarLane with the fused ops lowered to a rounded multiply and an
/// add: what a backend that dropped the fusion would compute.
struct UnfusedLane : kin::detail::ScalarLane {
  static reg fma(reg a, reg b, reg c) { return a * b + c; }
  static reg fnma(reg a, reg b, reg c) { return c - a * b; }
};

TEST(SpecBackendFusedOps, ScalarLaneRoundsOnce) {
  // (1 + 2^-52)(1 - 2^-52) = 1 - 2^-104 rounds to 1 as a product.
  volatile double a = 1.0 + 0x1p-52, b = 1.0 - 0x1p-52;
  EXPECT_EQ(kin::detail::ScalarLane::fma(a, b, -1.0), -0x1p-104);
  EXPECT_EQ(kin::detail::ScalarLane::fnma(a, b, 1.0), 0x1p-104);
  EXPECT_EQ(UnfusedLane::fma(a, b, -1.0), 0.0);
  EXPECT_EQ(UnfusedLane::fnma(a, b, 1.0), 0.0);
}

/// Angles like a chain's joints: a few turns, and the prepass's small
/// block steps.
std::vector<double> fusedSweep() {
  std::vector<double> x;
  for (int i = 0; i < 2000; ++i)
    x.push_back(7.0 * std::sin(0.37 * i + 0.1) + 1e-3 * (i % 7));
  for (int i = 1; i <= 500; ++i) x.push_back(0.4 / i);
  return x;
}

TEST(SpecBackendFusedOps, EverySinCosIsTheFusedEvaluation) {
  const std::vector<double> x = fusedSweep();
  const std::size_t n = x.size();
  std::size_t unfused_differs = 0;
  std::vector<double> s_fused(n), c_fused(n);
  for (std::size_t i = 0; i < n; ++i) {
    kin::detail::sinCosFastWide<kin::detail::ScalarLane>(x[i], s_fused[i],
                                                        c_fused[i]);
    double s_unfused, c_unfused;
    kin::detail::sinCosFastWide<UnfusedLane>(x[i], s_unfused, c_unfused);
    unfused_differs += bitsOf(s_unfused) != bitsOf(s_fused[i]) ||
                       bitsOf(c_unfused) != bitsOf(c_fused[i]);
  }
  // The two evaluations differ often enough that any lowering shows.
  EXPECT_GT(unfused_differs, n / 20) << "of " << n;
  for (const SpecBackend* backend : runnableBackends()) {
    std::vector<double> s(n), c(n);
    backend->sinCos(x.data(), s.data(), c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bitsOf(s[i]), bitsOf(s_fused[i]))
          << backend->name() << " sin x = " << x[i];
      ASSERT_EQ(bitsOf(c[i]), bitsOf(c_fused[i]))
          << backend->name() << " cos x = " << x[i];
    }
  }
}

/// Lane k's position and error by the walk's arithmetic contract, with
/// Lane's fused ops: the lane's (cos, sin) per lane or by Eq. 9's
/// rotation, the DH point step from the tip to the base, then the chain
/// base and the error, both unfused.  Free candidates in the fast trig
/// range only (no fix-up lanes).
template <typename Lane>
std::pair<linalg::Vec3, double> contractLane(
    const kin::Chain& chain, const linalg::VecX& theta,
    const linalg::VecX& dtheta, double alpha_base, std::size_t k_count,
    const linalg::Vec3& target, Form form, std::size_t k) {
  const double kc = static_cast<double>(k_count);
  const auto alpha = [&](std::size_t l) {
    return (static_cast<double>(l + 1) / kc) * alpha_base;
  };
  const std::size_t j = k / kin::kLadderBlock, m = k % kin::kLadderBlock;
  const double* trig = chain.dhTrig();
  double vx = 0.0, vy = 0.0, vz = 0.0;
  for (std::size_t i = chain.dof(); i-- > 0;) {
    const kin::Joint& joint = chain.joint(i);
    const double q = theta[i] + alpha(k) * dtheta[i];
    double c = trig[4 * i + 2], s = trig[4 * i + 3], d = joint.dh.d;
    if (joint.type != kin::JointType::kRevolute) {
      d = d + q;
    } else if (form == Form::kArray || j == 0) {
      kin::detail::sinCosFastWide<Lane>(joint.dh.theta + q, s, c);
    } else {
      double sm, cm, sj, cj;
      kin::detail::sinCosFastWide<Lane>(
          joint.dh.theta + (theta[i] + alpha(m) * dtheta[i]), sm, cm);
      const double step =
          (static_cast<double>(j * kin::kLadderBlock) / kc) * alpha_base;
      kin::detail::sinCosFastWide<Lane>(step * dtheta[i], sj, cj);
      c = Lane::fnma(sm, sj, cm * cj);
      s = Lane::fma(cm, sj, sm * cj);
    }
    const double ca = trig[4 * i], sa = trig[4 * i + 1];
    const double wx = vx + joint.dh.a;
    const double wy = Lane::fnma(sa, vz, ca * vy);
    const double wz = Lane::fma(sa, vy, Lane::fma(ca, vz, d));
    vx = Lane::fnma(s, wy, c * wx);
    vy = Lane::fma(c, wy, s * wx);
    vz = wz;
  }
  const linalg::Mat4& b = chain.base();
  linalg::Vec3 p;
  for (std::size_t r = 0; r < 3; ++r)
    p[r] = b(r, 0) * vx + b(r, 1) * vy + b(r, 2) * vz + b(r, 3);
  const double dx = target.x - p.x, dy = target.y - p.y, dz = target.z - p.z;
  return {p, std::sqrt(dx * dx + dy * dy + dz * dz)};
}

TEST(SpecBackendFusedOps, EveryWalkIsTheFusedEvaluation) {
  const linalg::Vec3 target{0.3, -0.2, 0.5};
  for (const kin::Chain& chain :
       {kin::makeSerpentine(100), withOffsetBase(makeMixedChain(30))}) {
    const linalg::VecX theta = patternVec(chain.dof(), 1.5, 0.3);
    const linalg::VecX dtheta = patternVec(chain.dof(), 3.0, 1.9);
    for (const Form form : {Form::kArray, Form::kLadder}) {
      for (const std::size_t k_count : {9u, 64u}) {
        std::size_t unfused_differs = 0;
        std::vector<std::pair<linalg::Vec3, double>> fused;
        for (std::size_t k = 0; k < k_count; ++k) {
          fused.push_back(contractLane<kin::detail::ScalarLane>(
              chain, theta, dtheta, 0.37, k_count, target, form, k));
          const auto unfused = contractLane<UnfusedLane>(
              chain, theta, dtheta, 0.37, k_count, target, form, k);
          for (std::size_t r = 0; r < 3; ++r)
            unfused_differs += bitsOf(unfused.first[r]) !=
                               bitsOf(fused[k].first[r]);
        }
        // Most coordinates tell the two evaluations apart.
        EXPECT_GT(2 * unfused_differs, 3 * k_count)
            << chain.name() << " " << formName(form) << " K=" << k_count;
        for (const SpecBackend* backend : runnableBackends()) {
          BatchedForward batch(BatchedForward::Precision::kF64, backend);
          batch.reset(chain, k_count);
          sweep(batch, form, chain, theta, dtheta, 0.37, k_count, target,
                false, 0, k_count);
          for (std::size_t k = 0; k < k_count; ++k) {
            const linalg::Vec3 p = batch.position(k);
            for (std::size_t r = 0; r < 3; ++r) {
              ASSERT_EQ(bitsOf(p[r]), bitsOf(fused[k].first[r]))
                  << backend->name() << " " << chain.name() << " "
                  << formName(form) << " K=" << k_count << " lane " << k
                  << " row " << r;
            }
            ASSERT_EQ(bitsOf(batch.errors()[k]), bitsOf(fused[k].second))
                << backend->name() << " " << chain.name() << " "
                << formName(form) << " K=" << k_count << " lane " << k;
          }
        }
      }
    }
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
