// Reference batched chain walk, shared by the scalar backend, the f32
// datapath, and the ragged-tail handling of the wide backends.
//
// These templates are the original autovectorizable SoA kernel: batch
// index innermost, unit-stride lane loops, strict IEEE arithmetic in
// scalar program order (no reassociation, no FMA — translation units
// including this header compile with -ffp-contract=off so results are
// identical whatever ISA the compiler autovectorizes them to).  Every
// other backend is measured, and ULP-bounded, against this code.
//
// The f64 walk takes its candidate sin/cos from sinCosLanes() below,
// not from libm: a Cody-Waite reduction plus Taylor polynomials built
// only from IEEE mul/add/sub, so the wide backends can evaluate the
// same function a vector at a time and stay bit-identical.  Lanes whose
// angle is non-finite or at least kWalkTrigCutoff in magnitude fall
// back to std::sin/std::cos in one shared fix-up pass.  The f32 walk
// keeps libm.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat34_batch.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin::detail {

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
// no float-to-int conversion.  Measured against glibc: at most 2 ULP
// for |x| < kWalkTrigCutoff.
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
inline constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/// True when x must take the libm fallback (NaN and +-Inf included).
inline bool outsideWalkTrig(double x) {
  return !(std::abs(x) < kWalkTrigCutoff);
}

inline std::uint64_t toBits(double x) { return std::bit_cast<std::uint64_t>(x); }
inline double fromBits(std::uint64_t b) { return std::bit_cast<double>(b); }

/// sin and cos of x for |x| < kWalkTrigCutoff; any value for other x
/// (callers fix those lanes up).  sinCosLanesWide in walk_wide.hpp
/// performs the same operations in the same order.
inline void sinCosFast(double x, double& s, double& c) {
  const double shifted = x * kTwoOverPi + kRoundShifter;
  const double k = shifted - kRoundShifter;
  const double r = ((x - k * kPio2Hi) - k * kPio2Mid) - k * kPio2Lo;
  // sin r is evaluated on |r| and given r's sign back, which is exact
  // (the polynomial is odd) and keeps sin(-0) = -0.
  const std::uint64_t r_sign = toBits(r) & kSignBit;
  const double ra = fromBits(toBits(r) ^ r_sign);
  const double r2 = r * r;
  double ps = kSin17;
  ps = ps * r2 + kSin15;
  ps = ps * r2 + kSin13;
  ps = ps * r2 + kSin11;
  ps = ps * r2 + kSin9;
  ps = ps * r2 + kSin7;
  ps = ps * r2 + kSin5;
  ps = ps * r2 + kSin3;
  const double sr = fromBits(toBits(ra + (ra * r2) * ps) ^ r_sign);
  double pc = kCos18;
  pc = pc * r2 + kCos16;
  pc = pc * r2 + kCos14;
  pc = pc * r2 + kCos12;
  pc = pc * r2 + kCos10;
  pc = pc * r2 + kCos8;
  pc = pc * r2 + kCos6;
  pc = pc * r2 + kCos4;
  pc = pc * r2 + kCos2;
  const double cr = 1.0 + r2 * pc;
  // Quadrant k mod 4 = low two bits of `shifted`: odd k swaps sin and
  // cos; bit 1 of k negates sin, bit 1 of k + 1 negates cos.
  const std::uint64_t q = toBits(shifted);
  const bool swap = (q & 1) != 0;
  const std::uint64_t sin_sign = (q << 62) & kSignBit;
  const std::uint64_t cos_sign = ((q ^ (q << 1)) << 62) & kSignBit;
  s = fromBits(toBits(swap ? cr : sr) ^ sin_sign);
  c = fromBits(toBits(swap ? sr : cr) ^ cos_sign);
}

/// The shared fix-up pass: lanes whose angle t0 + q[k] is outside the
/// fast range take libm.  Every backend runs exactly this loop.
inline void sinCosFallback(double t0, const double* q, double* ct, double* st,
                           std::size_t lo, std::size_t hi) {
  for (std::size_t k = lo; k < hi; ++k) {
    const double x = t0 + q[k];
    if (outsideWalkTrig(x)) {
      ct[k] = std::cos(x);
      st[k] = std::sin(x);
    }
  }
}

/// ct[k] = cos(t0 + q[k]), st[k] = sin(t0 + q[k]) over lanes [lo, hi).
inline void sinCosLanes(double t0, const double* q, double* ct, double* st,
                        std::size_t lo, std::size_t hi) {
  bool any_outside = false;
  for (std::size_t k = lo; k < hi; ++k) {
    const double x = t0 + q[k];
    sinCosFast(x, st[k], ct[k]);
    any_outside |= outsideWalkTrig(x);
  }
  if (any_outside) sinCosFallback(t0, q, ct, st, lo, hi);
}

// Advance the K accumulator transforms across one joint: A_k := A_k *
// {i-1}T_i(q_k), with the batch index innermost so every statement in
// the lane loop is a unit-stride multiply-add the compiler can
// vectorize.  The per-entry expressions reproduce dhTransform{Revolute,
// Prismatic} times the scalar 4x4 product term-for-term (left-to-right
// accumulation, row 3 contributions dropped — they are exact zeros and
// an exact +a(i,3)), so given the same per-lane sin/cos, lane results
// match the scalar chain walk bit-for-bit up to the sign of zero
// rotation entries.
template <typename T, bool kPrismatic>
void advanceJoint(linalg::Mat34BatchT<T>& acc, const T* ct, const T* st,
                  T ca, T sa, T a_len, T d_fixed, const double* q,
                  std::size_t lo, std::size_t hi) {
  T* a00 = acc.row(0, 0); T* a01 = acc.row(0, 1); T* a02 = acc.row(0, 2); T* a03 = acc.row(0, 3);
  T* a10 = acc.row(1, 0); T* a11 = acc.row(1, 1); T* a12 = acc.row(1, 2); T* a13 = acc.row(1, 3);
  T* a20 = acc.row(2, 0); T* a21 = acc.row(2, 1); T* a22 = acc.row(2, 2); T* a23 = acc.row(2, 3);
  for (std::size_t k = lo; k < hi; ++k) {
    const T c = ct[k], s = st[k];
    // Column entries of {i-1}T_i at lane k (the dhTransform* values).
    const T b01 = -s * ca, b11 = c * ca;
    const T b02 = s * sa, b12 = -c * sa;
    const T b03 = a_len * c, b13 = a_len * s;
    T dl;
    if constexpr (kPrismatic)
      dl = d_fixed + static_cast<T>(q[k]);
    else
      dl = d_fixed;

    const T o00 = a00[k], o01 = a01[k], o02 = a02[k], o03 = a03[k];
    const T o10 = a10[k], o11 = a11[k], o12 = a12[k], o13 = a13[k];
    const T o20 = a20[k], o21 = a21[k], o22 = a22[k], o23 = a23[k];

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

// One full chain walk over lanes [lo, hi): candidate formation, trig,
// and the per-joint batched advance.  T = double follows the Mat4 path
// term for term with sinCosLanes() for the candidate trig (within 1e-12
// of it on the tested chains); T = float reproduces the forward_f32
// path (candidates stay double, every FK intermediate is float).
// `trig` is the per-joint DH constant table, 4 entries per joint —
// cos/sin of the link twist alpha, cos/sin of the fixed theta offset
// (Chain::dhTrig() for f64).  `stride` is the padded lane stride of the
// candidate matrix.
template <typename T>
void walkLanes(const Chain& chain, linalg::Mat34BatchT<T>& acc, T* ct, T* st,
               double* cand, std::size_t stride, const T* trig,
               const linalg::VecX& theta, const linalg::VecX& dtheta,
               const double* alpha, bool clamp_to_limits, std::size_t lo,
               std::size_t hi) {
  acc.setLanes(chain.base(), lo, hi);
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const Joint& joint = chain.joint(i);
    const DhParam& p = joint.dh;
    double* q = cand + i * stride;

    // Candidate joint values theta_i + alpha_k * dtheta_i, clamped the
    // same way Joint::clamp does.
    const double ti = theta[i], di = dtheta[i];
    for (std::size_t k = lo; k < hi; ++k) q[k] = ti + alpha[k] * di;
    if (clamp_to_limits) {
      const double qmin = joint.min, qmax = joint.max;
      for (std::size_t k = lo; k < hi; ++k) {
        if (q[k] < qmin) q[k] = qmin;
        if (q[k] > qmax) q[k] = qmax;
      }
    }

    const T ca = trig[4 * i + 0];
    const T sa = trig[4 * i + 1];
    const T a_len = static_cast<T>(p.a);
    const T d_fix = static_cast<T>(p.d);
    if (joint.type == JointType::kRevolute) {
      if constexpr (std::is_same_v<T, double>) {
        sinCosLanes(p.theta, q, ct, st, lo, hi);
      } else {
        const T t0 = static_cast<T>(p.theta);
        for (std::size_t k = lo; k < hi; ++k) {
          const T qk = t0 + static_cast<T>(q[k]);
          ct[k] = std::cos(qk);
          st[k] = std::sin(qk);
        }
      }
      advanceJoint<T, false>(acc, ct, st, ca, sa, a_len, d_fix, q, lo, hi);
    } else {
      // Prismatic: the rotation block is fixed; only d varies per lane.
      const T c0 = trig[4 * i + 2];
      const T s0 = trig[4 * i + 3];
      for (std::size_t k = lo; k < hi; ++k) {
        ct[k] = c0;
        st[k] = s0;
      }
      advanceJoint<T, true>(acc, ct, st, ca, sa, a_len, d_fix, q, lo, hi);
    }
  }
}

// e_k = ||target - x_k||, accumulated x, y, z like Vec3::norm so the
// scalar path's errors are reproduced exactly.  f32 positions are
// widened to double first, as endEffectorPositionF32 does.
template <typename T>
void reduceErrors(const linalg::Mat34BatchT<T>& acc, double* err,
                  const linalg::Vec3& target, std::size_t lo,
                  std::size_t hi) {
  const double tx = target.x, ty = target.y, tz = target.z;
  const T* px = acc.row(0, 3);
  const T* py = acc.row(1, 3);
  const T* pz = acc.row(2, 3);
  for (std::size_t k = lo; k < hi; ++k) {
    const double dx = tx - static_cast<double>(px[k]);
    const double dy = ty - static_cast<double>(py[k]);
    const double dz = tz - static_cast<double>(pz[k]);
    err[k] = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
}

}  // namespace dadu::kin::detail
