// The speculation walk's own sin/cos (kin::specSinCos): accuracy
// against libm on a seeded sweep, signed zeros, the libm fallback at and
// beyond the cutoff and for non-finite angles, and bit-identity of every
// backend's walk with the scalar reference, fallback lanes included.
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

}  // namespace
}  // namespace dadu
