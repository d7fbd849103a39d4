// Lane primitives of the batched chain walks: the walk's deterministic
// sin/cos, the one-lane vector type the f64 walk uses for the scalar
// backend and for every backend's ragged lanes, the candidate clamp, and
// the f32 datapath's walk.
//
// Strict IEEE arithmetic in program order, with the fused
// multiply-adds written out: V::fma(a, b, c) = a * b + c and
// V::fnma(a, b, c) = c - a * b, each rounded once, at the sites the
// walk names (the sin/cos below, Eq. 9's rotation and the point step in
// walk_wide.hpp).  Nothing else fuses: translation units including this
// header compile with -ffp-contract=off, so the compiler contracts no
// mul+add on its own.  ScalarLane's fused ops are std::fma, correctly
// rounded everywhere, so results are identical whatever ISA a backend
// compiles them for.  The f64 walk itself is walk_wide.hpp, one
// template over a vector type V: the scalar backend instantiates it
// with ScalarLane below, the AVX2 and AVX-512 backends with their
// 4- and 8-lane types.
//
// Everything here has internal linkage (an unnamed namespace): each
// backend translation unit compiles it with its own ISA flags, and an
// out-of-line copy shared through the linker could carry another
// unit's instructions into the baseline one.
//
// The f32 walk (walkLanesF32, the FP32-FKU model) keeps the base-to-tip
// 3x4 transform compose of endEffectorPositionF32 and libm trig.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat34_batch.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin::detail {
namespace {

// ---- The walk's deterministic sin/cos ---------------------------------
//
// x = k * pi/2 + r with k = round(x * 2/pi), |r| <= pi/4.  pi/2 is split
// Cody-Waite style into kPio2Hi + kPio2Mid + kPio2Lo, the first two
// with 33 significant bits, so k * kPio2Hi and k * kPio2Mid are exact
// for |k| < 2^20 (|x| < kWalkTrigCutoff keeps |k| below 2^16).  sin r
// and cos r are the Taylor series through r^17 and r^18 (truncation
// error below 1e-19 on [-pi/4, pi/4]), then the quadrant k mod 4 swaps
// and negates them.  k is rounded with the 1.5 * 2^52 shifter, so its
// low bits sit in the shifted value's mantissa and the quadrant needs
// no float-to-int conversion.  The shifter, the three reduction terms,
// every Horner step and the last step of each series are fused
// multiply-adds.  Measured against glibc: at most 2 ULP for
// |x| < kWalkTrigCutoff.  Angles that are non-finite or at least
// kWalkTrigCutoff in magnitude take std::sin/std::cos instead.
inline constexpr double kWalkTrigCutoff = 1e5;
inline constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
inline constexpr double kRoundShifter = 0x1.8p52;
inline constexpr double kPio2Hi = 0x1.921fb544p+0;
inline constexpr double kPio2Mid = 0x1.0b4611a6p-34;
inline constexpr double kPio2Lo = 0x1.3198a2e037073p-69;
// Taylor coefficients (-1)^n / (2n+1)! and (-1)^n / (2n)!; every
// factorial here is exact in a double.
inline constexpr double kSin3 = -1.0 / 6.0;
inline constexpr double kSin5 = 1.0 / 120.0;
inline constexpr double kSin7 = -1.0 / 5040.0;
inline constexpr double kSin9 = 1.0 / 362880.0;
inline constexpr double kSin11 = -1.0 / 39916800.0;
inline constexpr double kSin13 = 1.0 / 6227020800.0;
inline constexpr double kSin15 = -1.0 / 1307674368000.0;
inline constexpr double kSin17 = 1.0 / 355687428096000.0;
inline constexpr double kCos2 = -1.0 / 2.0;
inline constexpr double kCos4 = 1.0 / 24.0;
inline constexpr double kCos6 = -1.0 / 720.0;
inline constexpr double kCos8 = 1.0 / 40320.0;
inline constexpr double kCos10 = -1.0 / 3628800.0;
inline constexpr double kCos12 = 1.0 / 479001600.0;
inline constexpr double kCos14 = -1.0 / 87178291200.0;
inline constexpr double kCos16 = 1.0 / 20922789888000.0;
inline constexpr double kCos18 = -1.0 / 6402373705728000.0;

/// True when x must take the libm fallback (NaN and +-Inf included).
inline bool outsideWalkTrig(double x) {
  return !(std::abs(x) < kWalkTrigCutoff);
}

/// One f64 lane as a "vector" of width 1: the ops the walk templates
/// need, with the semantics of the wide types' lane operations.
struct ScalarLane {
  static constexpr std::size_t width = 1;
  using reg = double;
  static reg load(const double* p) { return *p; }
  static void store(double* p, reg v) { *p = v; }
  static reg set1(double v) { return v; }
  static reg add(reg a, reg b) { return a + b; }
  static reg sub(reg a, reg b) { return a - b; }
  static reg mul(reg a, reg b) { return a * b; }
  /// a * b + c, rounded once.
  static reg fma(reg a, reg b, reg c) { return std::fma(a, b, c); }
  /// c - a * b, rounded once (negating a is exact).
  static reg fnma(reg a, reg b, reg c) { return std::fma(-a, b, c); }
  static reg sqrt(reg a) { return std::sqrt(a); }
  /// q < lim ? lim : q (NaN keeps q).
  static reg clampBelow(reg q, reg lim) { return q < lim ? lim : q; }
  /// q > lim ? lim : q.
  static reg clampAbove(reg q, reg lim) { return q > lim ? lim : q; }
  static reg andBits(reg a, reg b) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) &
                                 std::bit_cast<std::uint64_t>(b));
  }
  static reg xorBits(reg a, reg b) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) ^
                                 std::bit_cast<std::uint64_t>(b));
  }
  static reg shiftLeftBits(reg a, unsigned n) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) << n);
  }
  /// m's sign bit set ? b : a.
  static reg selectBySign(reg m, reg a, reg b) {
    return std::signbit(m) ? b : a;
  }
  /// !(|x| < lim) — NaN included.
  static bool anyAbsNotBelow(reg x, reg lim) { return !(std::abs(x) < lim); }
  /// All bits set where !(a == b) (NaN included), else zero.
  static reg notEqualMask(reg a, reg b) {
    return a == b ? 0.0 : std::bit_cast<double>(~std::uint64_t{0});
  }
  static reg orBits(reg a, reg b) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) |
                                 std::bit_cast<std::uint64_t>(b));
  }
  /// True when some lane of m has its sign bit set.
  static bool anySign(reg m) { return std::signbit(m); }
};

/// s, c = sin, cos of x, V::width lanes at a time; any value for lanes
/// outside the fast range (callers fix those up).  Written over V ops
/// because not every ISA's autovectorizer takes the scalar code.
/// Always inlined: as a call, its vector arguments and results would
/// go through memory.
template <typename V>
[[gnu::always_inline]] inline void sinCosFastWide(typename V::reg x, typename V::reg& s,
                    typename V::reg& c) {
  const auto shifter = V::set1(kRoundShifter);
  const auto sign = V::set1(-0.0);
  const auto horner = [](typename V::reg p, typename V::reg r2, double k) {
    return V::fma(p, r2, V::set1(k));
  };
  const auto shifted = V::fma(x, V::set1(kTwoOverPi), shifter);
  const auto kq = V::sub(shifted, shifter);
  const auto r = V::fnma(kq, V::set1(kPio2Lo),
                         V::fnma(kq, V::set1(kPio2Mid),
                                 V::fnma(kq, V::set1(kPio2Hi), x)));
  // sin r is evaluated on |r| and given r's sign back, which is exact
  // (the polynomial is odd) and keeps sin(-0) = -0.
  const auto r_sign = V::andBits(r, sign);
  const auto ra = V::xorBits(r, r_sign);
  const auto r2 = V::mul(r, r);
  auto ps = V::set1(kSin17);
  ps = horner(ps, r2, kSin15);
  ps = horner(ps, r2, kSin13);
  ps = horner(ps, r2, kSin11);
  ps = horner(ps, r2, kSin9);
  ps = horner(ps, r2, kSin7);
  ps = horner(ps, r2, kSin5);
  ps = horner(ps, r2, kSin3);
  const auto sr = V::xorBits(V::fma(V::mul(ra, r2), ps, ra), r_sign);
  auto pc = V::set1(kCos18);
  pc = horner(pc, r2, kCos16);
  pc = horner(pc, r2, kCos14);
  pc = horner(pc, r2, kCos12);
  pc = horner(pc, r2, kCos10);
  pc = horner(pc, r2, kCos8);
  pc = horner(pc, r2, kCos6);
  pc = horner(pc, r2, kCos4);
  pc = horner(pc, r2, kCos2);
  const auto cr = V::fma(r2, pc, V::set1(1.0));
  // Quadrant k mod 4 = low two bits of `shifted`: odd k swaps sin and
  // cos; bit 1 of k negates sin, bit 1 of k + 1 negates cos.
  const auto swap = V::shiftLeftBits(shifted, 63);  // bit 0 -> sign
  const auto sin_sign = V::andBits(V::shiftLeftBits(shifted, 62), sign);
  const auto cos_sign = V::andBits(
      V::shiftLeftBits(V::xorBits(shifted, V::shiftLeftBits(shifted, 1)), 62),
      sign);
  s = V::xorBits(V::selectBySign(swap, sr, cr), sin_sign);
  c = V::xorBits(V::selectBySign(swap, cr, sr), cos_sign);
}

/// sin and cos of one x for |x| < kWalkTrigCutoff (any value for other
/// x): the one-lane sinCosFastWide.
inline void sinCosFast(double x, double& s, double& c) {
  sinCosFastWide<ScalarLane>(x, s, c);
}

/// Joint::clamp's if-chain, the candidate clamp every walk applies.
inline double clampCandidate(double q, double qmin, double qmax) {
  if (q < qmin) q = qmin;
  if (q > qmax) q = qmax;
  return q;
}

// ---- The f32 FKU model -------------------------------------------------
//
// Advance the K accumulator transforms across one joint: A_k := A_k *
// {i-1}T_i(q_k), with the batch index innermost so every statement in
// the lane loop is a unit-stride multiply-add the compiler can
// vectorize.  The per-entry expressions reproduce the f32 DH transform
// times the 4x4 product of forward_f32.cpp term for term (left-to-right
// accumulation, row 3 contributions dropped — they are exact zeros and
// an exact +a(i,3)), so lanes match endEffectorPositionF32 bit for bit
// up to the sign of zero rotation entries.
template <bool kPrismatic>
void advanceJointF32(linalg::Mat34BatchF& acc, const float* ct,
                     const float* st, float ca, float sa, float a_len,
                     float d_fixed, const double* q, std::size_t lo,
                     std::size_t hi) {
  float* a00 = acc.row(0, 0); float* a01 = acc.row(0, 1); float* a02 = acc.row(0, 2); float* a03 = acc.row(0, 3);
  float* a10 = acc.row(1, 0); float* a11 = acc.row(1, 1); float* a12 = acc.row(1, 2); float* a13 = acc.row(1, 3);
  float* a20 = acc.row(2, 0); float* a21 = acc.row(2, 1); float* a22 = acc.row(2, 2); float* a23 = acc.row(2, 3);
  for (std::size_t k = lo; k < hi; ++k) {
    const float c = ct[k], s = st[k];
    // Column entries of {i-1}T_i at lane k (the DH transform's values).
    const float b01 = -s * ca, b11 = c * ca;
    const float b02 = s * sa, b12 = -c * sa;
    const float b03 = a_len * c, b13 = a_len * s;
    float dl;
    if constexpr (kPrismatic)
      dl = d_fixed + static_cast<float>(q[k]);
    else
      dl = d_fixed;

    const float o00 = a00[k], o01 = a01[k], o02 = a02[k], o03 = a03[k];
    const float o10 = a10[k], o11 = a11[k], o12 = a12[k], o13 = a13[k];
    const float o20 = a20[k], o21 = a21[k], o22 = a22[k], o23 = a23[k];

    a00[k] = o00 * c + o01 * s;
    a01[k] = o00 * b01 + o01 * b11 + o02 * sa;
    a02[k] = o00 * b02 + o01 * b12 + o02 * ca;
    a03[k] = o00 * b03 + o01 * b13 + o02 * dl + o03;

    a10[k] = o10 * c + o11 * s;
    a11[k] = o10 * b01 + o11 * b11 + o12 * sa;
    a12[k] = o10 * b02 + o11 * b12 + o12 * ca;
    a13[k] = o10 * b03 + o11 * b13 + o12 * dl + o13;

    a20[k] = o20 * c + o21 * s;
    a21[k] = o20 * b01 + o21 * b11 + o22 * sa;
    a22[k] = o20 * b02 + o21 * b12 + o22 * ca;
    a23[k] = o20 * b03 + o21 * b13 + o22 * dl + o23;
  }
}

// One full f32 chain walk over lanes [lo, hi), base to tip: candidates
// stay double (as forward_f32 takes them; each joint's row of them in
// `q`, `stride` lanes wide), every FK intermediate is float with libm
// float trig.  `trig` is the f32 DH constant table laid out like
// Chain::dhTrig().
inline void walkLanesF32(const Chain& chain, linalg::Mat34BatchF& acc,
                         float* ct, float* st, double* q, const float* trig,
                         const linalg::VecX& theta,
                         const linalg::VecX& dtheta, const double* alpha,
                         bool clamp_to_limits, std::size_t lo,
                         std::size_t hi) {
  acc.setLanes(chain.base(), lo, hi);
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const Joint& joint = chain.joint(i);
    const DhParam& p = joint.dh;
    const double ti = theta[i], di = dtheta[i];
    for (std::size_t k = lo; k < hi; ++k) q[k] = ti + alpha[k] * di;
    if (clamp_to_limits)
      for (std::size_t k = lo; k < hi; ++k)
        q[k] = clampCandidate(q[k], joint.min, joint.max);

    const float ca = trig[4 * i + 0];
    const float sa = trig[4 * i + 1];
    const float a_len = static_cast<float>(p.a);
    const float d_fix = static_cast<float>(p.d);
    if (joint.type == JointType::kRevolute) {
      const float t0 = static_cast<float>(p.theta);
      for (std::size_t k = lo; k < hi; ++k) {
        const float qk = t0 + static_cast<float>(q[k]);
        ct[k] = std::cos(qk);
        st[k] = std::sin(qk);
      }
      advanceJointF32<false>(acc, ct, st, ca, sa, a_len, d_fix, q, lo, hi);
    } else {
      const float c0 = trig[4 * i + 2];
      const float s0 = trig[4 * i + 3];
      for (std::size_t k = lo; k < hi; ++k) {
        ct[k] = c0;
        st[k] = s0;
      }
      advanceJointF32<true>(acc, ct, st, ca, sa, a_len, d_fix, q, lo, hi);
    }
  }
}

// e_k = ||target - p_k|| from the f32 x, y, z position rows, widened to
// double first as endEffectorPositionF32 does, and accumulated like
// Vec3::norm.
inline void reduceErrorsF32(const float* px, const float* py, const float* pz,
                            double* err, const linalg::Vec3& target,
                            std::size_t lo, std::size_t hi) {
  const double tx = target.x, ty = target.y, tz = target.z;
  for (std::size_t k = lo; k < hi; ++k) {
    const double dx = tx - static_cast<double>(px[k]);
    const double dy = ty - static_cast<double>(py[k]);
    const double dz = tz - static_cast<double>(pz[k]);
    err[k] = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
}

}  // namespace
}  // namespace dadu::kin::detail
