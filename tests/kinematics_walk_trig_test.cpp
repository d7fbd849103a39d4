// The speculation walk's own sin/cos (kin::specSinCos): accuracy
// against libm on a seeded sweep, signed zeros, the libm fallback at and
// beyond the cutoff and for non-finite angles, and bit-identity of every
// backend's walk with the scalar reference, fallback lanes included.
// Eq. 9's ladder (evaluateLadder): a derived error bound against libm on
// a seeded sweep over theta, dtheta, alpha_base and K, and per-lane trig
// on exactly the lanes its fix-up pass owns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/forward_batch.hpp"

namespace dadu {
namespace {

constexpr double kCutoff = 1e5;  // fast-path range is |x| < kCutoff
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// ULP distance on the monotone integer mapping of doubles (crosses
/// zero correctly; +0 and -0 are one step apart).
std::int64_t ulpDiff(double a, double b) {
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof a);
  std::memcpy(&ib, &b, sizeof b);
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  const std::int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

/// Seeded sweep of |x| < 1e5: uniform over the whole range, uniform
/// over the angles joints actually take, log-uniform magnitudes down to
/// the denormals, and points near multiples of pi/2 where the results
/// approach zero.
std::vector<double> sweep() {
  std::mt19937_64 rng(20170618);
  std::uniform_real_distribution<double> wide(-kCutoff, kCutoff);
  std::uniform_real_distribution<double> joint(-40.0, 40.0);
  std::uniform_real_distribution<double> log_mag(-310.0, 5.0);
  std::uniform_int_distribution<int> quadrant(-63000, 63000);
  std::uniform_real_distribution<double> offset(-1e-6, 1e-6);
  std::vector<double> xs;
  for (int i = 0; i < 400000; ++i) xs.push_back(wide(rng));
  for (int i = 0; i < 400000; ++i) xs.push_back(joint(rng));
  for (int i = 0; i < 200000; ++i) {
    const double m = std::pow(10.0, log_mag(rng));
    xs.push_back((i % 2 == 0) ? m : -m);
  }
  for (int i = 0; i < 200000; ++i)
    xs.push_back(quadrant(rng) * 1.5707963267948966 + offset(rng));
  return xs;
}

TEST(WalkTrig, WithinTwoUlpOfLibmOnSeededSweep) {
  const std::vector<double> xs = sweep();
  std::vector<double> s(xs.size()), c(xs.size());
  kin::specSinCos(xs.data(), s.data(), c.data(), xs.size());
  std::int64_t worst_sin = 0, worst_cos = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_LT(std::abs(xs[i]), kCutoff);
    const std::int64_t ds = ulpDiff(s[i], std::sin(xs[i]));
    const std::int64_t dc = ulpDiff(c[i], std::cos(xs[i]));
    ASSERT_LE(ds, 2) << "sin x=" << xs[i];
    ASSERT_LE(dc, 2) << "cos x=" << xs[i];
    worst_sin = std::max(worst_sin, ds);
    worst_cos = std::max(worst_cos, dc);
  }
  std::printf("worst ULP vs libm over %zu angles: sin %lld, cos %lld\n",
              xs.size(), static_cast<long long>(worst_sin),
              static_cast<long long>(worst_cos));
}

TEST(WalkTrig, SignedZerosAndCosZeroIsOne) {
  const double xs[2] = {0.0, -0.0};
  double s[2], c[2];
  kin::specSinCos(xs, s, c, 2);
  EXPECT_EQ(bits(s[0]), bits(0.0)) << "sin(+0) = +0";
  EXPECT_EQ(bits(s[1]), bits(-0.0)) << "sin(-0) = -0";
  EXPECT_EQ(c[0], 1.0);
  EXPECT_EQ(c[1], 1.0);
}

TEST(WalkTrig, LibmAtAndBeyondCutoffAndForNonFinite) {
  const double dmax = std::numeric_limits<double>::max();
  const std::vector<double> xs = {
      kCutoff, -kCutoff, std::nextafter(kCutoff, kInf),
      -std::nextafter(kCutoff, kInf), 1e6, -3.5e7, 1e300, -1e300, dmax,
      -dmax, kInf, -kInf, kNaN};
  std::vector<double> s(xs.size()), c(xs.size());
  kin::specSinCos(xs.data(), s.data(), c.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ls = std::sin(xs[i]), lc = std::cos(xs[i]);
    if (std::isnan(ls)) {
      EXPECT_TRUE(std::isnan(s[i])) << "x=" << xs[i];
      EXPECT_TRUE(std::isnan(c[i])) << "x=" << xs[i];
    } else {
      EXPECT_EQ(bits(s[i]), bits(ls)) << "sin x=" << xs[i];
      EXPECT_EQ(bits(c[i]), bits(lc)) << "cos x=" << xs[i];
    }
  }
  // Just inside the cutoff the fast path still answers within 2 ULP.
  const double inside = std::nextafter(kCutoff, 0.0);
  double si, ci;
  kin::specSinCos(&inside, &si, &ci, 1);
  EXPECT_LE(ulpDiff(si, std::sin(inside)), 2);
  EXPECT_LE(ulpDiff(ci, std::cos(inside)), 2);
}

// Through a one-joint chain (a = 1, no twist, no offsets) a lane's
// position is (cos q, sin q, 0), so every backend's in-walk trig can be
// read back and compared with specSinCos lane by lane: sweep angles and
// hostile ones (the libm fix-up lanes) interleaved, over a lane count
// that leaves a ragged tail for every vector width.
TEST(WalkTrig, EveryBackendWalkMatchesSpecSinCos) {
  const kin::Chain chain({kin::revolute({1.0, 0.0, 0.0, 0.0})}, "unit");
  const std::vector<double> hostile = {kNaN,    kInf,     -kInf, 1e300,
                                       -1e300,  kCutoff,  -kCutoff,
                                       std::nextafter(kCutoff, 0.0)};
  const std::vector<double> swept = sweep();
  std::vector<double> xs;
  for (std::size_t i = 0; xs.size() < 1021; ++i) {
    xs.push_back(swept[(i * 7919) % swept.size()]);
    if (i % 3 == 1) xs.push_back(hostile[i % hostile.size()]);
  }
  std::vector<double> s(xs.size()), c(xs.size());
  kin::specSinCos(xs.data(), s.data(), c.data(), xs.size());

  const linalg::VecX theta(1, 0.0);
  const linalg::VecX dtheta(1, 1.0);  // candidate angle = 0 + x * 1 = x
  for (const kin::SpecBackend* backend : kin::allSpecBackends()) {
    if (!kin::specBackendSupported(*backend)) continue;
    kin::BatchedForward batch(kin::BatchedForward::Precision::kF64, backend);
    batch.reset(chain, xs.size());
    batch.evaluateLanes(chain, theta, dtheta, xs.data(), {0.0, 0.0, 0.0},
                        false, 0, xs.size());
    for (std::size_t k = 0; k < xs.size(); ++k) {
      const linalg::Vec3 p = batch.position(k);
      if (std::isnan(c[k])) {
        EXPECT_TRUE(std::isnan(p.x)) << backend->name() << " x=" << xs[k];
      } else {
        EXPECT_EQ(p.x, c[k]) << backend->name() << " cos x=" << xs[k];
        EXPECT_EQ(p.y, s[k]) << backend->name() << " sin x=" << xs[k];
      }
    }
  }
}

// ---- Eq. 9's ladder ----------------------------------------------------

constexpr double kPi = 3.141592653589793;
constexpr double kEps = 0x1p-52;  // one ULP of 1.0

/// One joint with DH offset t0 and a = 1: lane k's position is
/// (cos x_k, sin x_k, 0) with x_k = t0 + q_k, so the walk's trig can be
/// read back through position(k).
kin::Chain unitJoint(double t0, double lo = -kInf, double hi = kInf) {
  return kin::Chain({kin::revolute({1.0, 0.0, 0.0, t0}, lo, hi)}, "unit");
}

std::vector<const kin::SpecBackend*> runnable() {
  std::vector<const kin::SpecBackend*> out;
  for (const kin::SpecBackend* b : kin::allSpecBackends())
    if (kin::specBackendSupported(*b)) out.push_back(b);
  return out;
}

// The bound, to first order in u = eps / 2, with P_k = alpha_k * dtheta
// and lane m = k mod 8 the lane's base lane.  The ladder evaluates the
// angle (t0 + q_m) + g_j, which differs from x_k = t0 + q_k only by
// roundings: 3u|P_k| in forming alpha_k * dtheta, 3u|P_m| + 3u|g_j| for
// lane m and the block step (|P_m| + |g_j| = |P_k|), and u each for q_k,
// q_m, t0 + q_k, t0 + q_m.  Each factor is within 3u of the true value
// (2 ULP of libm, plus libm's own ULP), which the rotation turns into at
// most 3u(|c| + |s| + |C| + |S|) <= 8.5u; the rotation's two products
// and one add round by at most 2u, and libm's reference is within u of
// the true value.  So
//
//   |ladder - libm(x_k)| <= u (6|P_k| + |q_k| + |q_m| + |x_k| + |x_m| + 12).
//
// The sweep keeps |theta|, |t0| <= pi, |alpha_base| <= 1 and |dtheta|
// <= 2, so |P_k| <= 2, |q| <= pi + 2 and |x| <= 2 pi + 2: the bound is at
// most 26 ULPs of max(|x_k|, 1) (1 ULP = eps).  Per-lane trig is within
// 2 ULPs of libm.
TEST(WalkTrig, LadderWithinDerivedBoundOfLibm) {
  std::mt19937_64 rng(20260418);
  std::uniform_real_distribution<double> angle(-kPi, kPi);
  std::uniform_real_distribution<double> step(-2.0, 2.0);
  std::uniform_real_distribution<double> base(0.0, 1.0);
  const double u = kEps / 2;
  double worst_ulps = 0.0, worst_slack = 0.0;
  std::size_t lanes_checked = 0;
  for (const std::size_t k_count : {1u, 7u, 8u, 9u, 16u, 64u, 512u}) {
    for (int sample = 0; sample < 1000; ++sample) {
      const double t0 = angle(rng);
      const kin::Chain chain = unitJoint(t0);
      const linalg::VecX theta(1, angle(rng));
      const linalg::VecX dtheta(1, step(rng));
      const double alpha_base = base(rng);
      kin::BatchedForward batch;
      batch.reset(chain, k_count);
      batch.evaluateLadder(chain, theta, dtheta, alpha_base, k_count,
                           {0.0, 0.0, 0.0}, false, 0, k_count);
      linalg::VecX qk, qm;
      for (std::size_t k = 0; k < k_count; ++k) {
        batch.candidateInto(k, qk);
        batch.candidateInto(k % kin::kLadderBlock, qm);
        const double xk = t0 + qk[0], xm = t0 + qm[0];
        const double pk =
            (static_cast<double>(k + 1) / static_cast<double>(k_count)) *
            alpha_base * dtheta[0];
        const double bound =
            u * (6 * std::abs(pk) + std::abs(qk[0]) + std::abs(qm[0]) +
                 std::abs(xk) + std::abs(xm) + 12);
        const linalg::Vec3 p = batch.position(k);
        const double err = std::max(std::abs(p.x - std::cos(xk)),
                                    std::abs(p.y - std::sin(xk)));
        ASSERT_LE(err, bound) << "K=" << k_count << " lane " << k
                              << " t0=" << t0 << " theta=" << theta[0]
                              << " dtheta=" << dtheta[0]
                              << " alpha_base=" << alpha_base;
        const double ulps = err / (kEps * std::max(std::abs(xk), 1.0));
        ASSERT_LE(ulps, 26.0) << "K=" << k_count << " lane " << k;
        worst_ulps = std::max(worst_ulps, ulps);
        worst_slack = std::max(worst_slack, err / bound);
        ++lanes_checked;
      }
    }
  }
  std::printf("ladder vs libm over %zu lanes: worst %.2f ULPs of "
              "max(|x|, 1), worst error/bound %.3f\n",
              lanes_checked, worst_ulps, worst_slack);
}

// For K <= 8 every lane is in block 0 and takes its own base factor:
// the ladder is per-lane trig bit for bit, on every backend, in one call
// and one lane at a time.
TEST(WalkTrig, LadderIsPerLaneTrigUpToOneBlock) {
  const kin::Chain chain = unitJoint(0.3);
  const linalg::VecX theta(1, -0.7);
  const linalg::VecX dtheta(1, 1.9);
  for (const kin::SpecBackend* backend : runnable()) {
    for (std::size_t k_count = 1; k_count <= kin::kLadderBlock; ++k_count) {
      kin::BatchedForward whole(kin::BatchedForward::Precision::kF64,
                                backend);
      whole.reset(chain, k_count);
      whole.evaluateLadder(chain, theta, dtheta, 0.8, k_count,
                           {0.0, 0.0, 0.0}, false, 0, k_count);
      kin::BatchedForward lanes(kin::BatchedForward::Precision::kF64,
                                backend);
      lanes.reset(chain, k_count);
      for (std::size_t k = 0; k < k_count; ++k)
        lanes.evaluateLadder(chain, theta, dtheta, 0.8, k_count,
                             {0.0, 0.0, 0.0}, false, k, k + 1);
      linalg::VecX q;
      for (std::size_t k = 0; k < k_count; ++k) {
        whole.candidateInto(k, q);
        const double x = 0.3 + q[0];
        double s, c;
        kin::specSinCos(&x, &s, &c, 1);
        for (const kin::BatchedForward* batch : {&whole, &lanes}) {
          EXPECT_EQ(bits(batch->position(k).x), bits(c))
              << backend->name() << " K=" << k_count << " lane " << k;
          EXPECT_EQ(bits(batch->position(k).y), bits(s));
        }
      }
    }
  }
}

// The fix-up pass owns exactly these lanes, and gives them per-lane trig
// (specSinCos: the fast path in range, libm outside it):
//   - lanes the clamp moved;
//   - lanes whose angle crosses the 1e5 cutoff;
//   - lanes whose block step g_j is outside the fast range although
//     their own angle and their base angle are inside it;
//   - every lane of a non-finite dtheta.
// Every other lane keeps the ladder.  The cases run on every backend,
// over the whole range and over ragged pieces.
TEST(WalkTrig, LadderFixupLanesTakePerLaneTrig) {
  enum class Path { kClamped, kCrossesCutoff, kBlockStep, kNonFinite };
  struct Case {
    const char* name;
    Path path;
    double t0, theta, dtheta, alpha_base, lo, hi;
    std::size_t k_count;
  };
  const Case cases[] = {
      {"clamped", Path::kClamped, 0.1, 0.2, 1.5, 1.0, -0.5, 0.9, 64},
      {"crosses cutoff", Path::kCrossesCutoff, 0.0, kCutoff - 20.0, 1.0, 40.0,
       -kInf, kInf, 64},
      // Base angles -9e4 + [2812, 22500], lane angles up to 9e4, block
      // steps j * 22500: blocks 5..7 have g_j >= 1e5.
      {"huge block step", Path::kBlockStep, 0.0, -9e4, 2.0, 9e4, -kInf, kInf,
       64},
      {"NaN dtheta", Path::kNonFinite, 0.0, 0.3, kNaN, 0.5, -kInf, kInf, 24},
      {"Inf dtheta", Path::kNonFinite, 0.0, 0.3, kInf, 0.5, -kInf, kInf, 24},
      {"-Inf dtheta", Path::kNonFinite, 0.0, 0.3, -kInf, 0.5, -kInf, kInf,
       24},
  };
  for (const Case& tc : cases) {
    const kin::Chain chain = unitJoint(tc.t0, tc.lo, tc.hi);
    const linalg::VecX theta(1, tc.theta);
    const linalg::VecX dtheta(1, tc.dtheta);
    const bool clamp = tc.path == Path::kClamped;
    for (const kin::SpecBackend* backend : runnable()) {
      kin::BatchedForward whole(kin::BatchedForward::Precision::kF64,
                                backend);
      whole.reset(chain, tc.k_count);
      whole.evaluateLadder(chain, theta, dtheta, tc.alpha_base, tc.k_count,
                           {0.0, 0.0, 0.0}, clamp, 0, tc.k_count);
      kin::BatchedForward split(kin::BatchedForward::Precision::kF64,
                                backend);
      split.reset(chain, tc.k_count);
      for (std::size_t lo = 0; lo < tc.k_count; lo += 11)
        split.evaluateLadder(chain, theta, dtheta, tc.alpha_base, tc.k_count,
                             {0.0, 0.0, 0.0}, clamp, lo,
                             std::min(tc.k_count, lo + 11));
      const double k_count = static_cast<double>(tc.k_count);
      int fixed_up = 0;
      linalg::VecX q;
      for (std::size_t k = 0; k < tc.k_count; ++k) {
        whole.candidateInto(k, q);
        const double unclamped =
            tc.theta +
            (static_cast<double>(k + 1) / k_count) * tc.alpha_base * tc.dtheta;
        const double x = tc.t0 + q[0];
        const std::size_t block_lane =
            k / kin::kLadderBlock * kin::kLadderBlock;
        const double g =
            (static_cast<double>(block_lane) / k_count) * tc.alpha_base *
            tc.dtheta;
        const bool moved = q[0] != unclamped && !std::isnan(q[0]);
        const bool outside = !(std::abs(x) < kCutoff);
        const bool huge_step = block_lane != 0 && !(std::abs(g) < kCutoff);
        const bool expect_fixup =
            (tc.path == Path::kClamped && moved) ||
            (tc.path == Path::kCrossesCutoff && outside) ||
            (tc.path == Path::kBlockStep && huge_step && !outside) ||
            tc.path == Path::kNonFinite;
        if (!expect_fixup) {
          EXPECT_FALSE(moved || outside || huge_step)
              << tc.name << ": lane " << k << " takes another path too";
          continue;  // a ladder lane
        }
        ++fixed_up;
        double s, c;
        kin::specSinCos(&x, &s, &c, 1);
        for (const kin::BatchedForward* batch : {&whole, &split}) {
          const linalg::Vec3 p = batch->position(k);
          if (std::isnan(c)) {
            EXPECT_TRUE(std::isnan(p.x) && std::isnan(p.y))
                << tc.name << " " << backend->name() << " lane " << k;
          } else {
            EXPECT_EQ(bits(p.x), bits(c))
                << tc.name << " " << backend->name() << " cos lane " << k;
            EXPECT_EQ(bits(p.y), bits(s))
                << tc.name << " " << backend->name() << " sin lane " << k;
          }
        }
      }
      // Each case reaches its path on some lanes and, but for the
      // non-finite ones, keeps the ladder on others.
      EXPECT_GT(fixed_up, 0) << tc.name;
      if (tc.path != Path::kNonFinite) {
        EXPECT_LT(fixed_up, static_cast<int>(tc.k_count)) << tc.name;
      }
    }
  }
}

}  // namespace
}  // namespace dadu
