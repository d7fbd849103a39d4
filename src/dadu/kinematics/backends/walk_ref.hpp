// Reference batched chain walks, shared by the scalar backend, the f32
// datapath, and the ragged-tail handling of the wide backends.
//
// These are autovectorizable SoA kernels: batch index innermost,
// unit-stride lane loops, strict IEEE arithmetic in scalar program
// order (no reassociation, no FMA — translation units including this
// header compile with -ffp-contract=off so results are identical
// whatever ISA the compiler autovectorizes them to).  Every other
// backend is measured, and ULP-bounded, against this code.
//
// The f64 walk (walkPointLanes) computes only what Quick-IK scores: the
// end-effector position of each candidate.  It applies Eq. 10 to one
// point from the tip to the base, f(theta) = B * T_1(T_2(... T_N * 0)),
// so each joint is one DH-structured matrix-vector step on three
// position lanes (pointStep: 8 mul + 6 add per lane) and the chain base
// B is applied once, at the end.  Its candidate sin/cos come from
// sinCosLanes() below, not from libm: a Cody-Waite reduction plus
// Taylor polynomials built only from IEEE mul/add/sub, so the wide
// backends can evaluate the same function a vector at a time and stay
// bit-identical.  Lanes whose angle is non-finite or at least
// kWalkTrigCutoff in magnitude fall back to std::sin/std::cos in one
// shared fix-up pass.
//
// The f32 walk (walkLanesF32, the FP32-FKU model) keeps the base-to-tip
// 3x4 transform compose of endEffectorPositionF32 and libm trig.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat34_batch.hpp"
#include "dadu/linalg/mat4.hpp"
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

// Candidate joint values q[k] = theta_i + alpha[k] * dtheta_i over
// lanes [lo, hi), clamped the same way Joint::clamp does.
inline void formCandidates(const Joint& joint, double ti, double di,
                           const double* alpha, bool clamp_to_limits,
                           double* q, std::size_t lo, std::size_t hi) {
  for (std::size_t k = lo; k < hi; ++k) q[k] = ti + alpha[k] * di;
  if (clamp_to_limits) {
    const double qmin = joint.min, qmax = joint.max;
    for (std::size_t k = lo; k < hi; ++k) {
      if (q[k] < qmin) q[k] = qmin;
      if (q[k] > qmax) q[k] = qmax;
    }
  }
}

// One joint of the tip-to-base point walk over lanes [lo, hi):
//
//   v_k := {i-1}T_i(q_k) * v_k = RotZ(theta_k) * (RotX(alpha) * v_k + (a, 0, d_k))
//
// with ct/st holding cos/sin of each lane's total joint angle and ca/sa
// those of the link twist.  The DH matrix's exact 0 and 1 entries are
// never multiplied: 8 mul + 6 add per lane, plus the add that forms a
// prismatic lane's d.  pointStepWide in walk_wide.hpp performs the
// same operations in the same order.
template <bool kPrismatic>
void pointStep(double* vx, double* vy, double* vz, const double* ct,
               const double* st, double ca, double sa, double a_len,
               double d_fixed, const double* q, std::size_t lo,
               std::size_t hi) {
  for (std::size_t k = lo; k < hi; ++k) {
    const double c = ct[k], s = st[k];
    const double x = vx[k], y = vy[k], z = vz[k];
    double dl;
    if constexpr (kPrismatic)
      dl = d_fixed + q[k];
    else
      dl = d_fixed;
    const double wx = x + a_len;
    const double wy = ca * y - sa * z;
    const double wz = sa * y + ca * z + dl;
    vx[k] = c * wx - s * wy;
    vy[k] = s * wx + c * wy;
    vz[k] = wz;
  }
}

// p_k := B * v_k for the chain base B, each row accumulated left to
// right as Mat4::transformPoint does.
inline void applyBase(const linalg::Mat4& b, double* vx, double* vy,
                      double* vz, std::size_t lo, std::size_t hi) {
  for (std::size_t k = lo; k < hi; ++k) {
    const double x = vx[k], y = vy[k], z = vz[k];
    vx[k] = b(0, 0) * x + b(0, 1) * y + b(0, 2) * z + b(0, 3);
    vy[k] = b(1, 0) * x + b(1, 1) * y + b(1, 2) * z + b(1, 3);
    vz[k] = b(2, 0) * x + b(2, 1) * y + b(2, 2) * z + b(2, 3);
  }
}

// One full f64 chain walk over lanes [lo, hi), joint-major from the tip
// to the base: each joint forms its K candidate values, takes their
// sin/cos into ct/st (sinCosLanes), then moves the K points one joint
// closer to the base (pointStep); the chain base is applied last.  The
// candidate rows are filled in reverse joint order, which changes
// nothing — every row and lane is independent.  Positions agree with
// the scalar Mat4 FK to ~1e-15 (another association order, and the
// walk's own trig).
inline void walkPointLanes(const Chain& chain, const SpecLaneBlock& ws,
                           const linalg::VecX& theta,
                           const linalg::VecX& dtheta, const double* alpha,
                           bool clamp_to_limits, std::size_t lo,
                           std::size_t hi) {
  double* vx = ws.pos;
  double* vy = ws.pos + ws.stride;
  double* vz = ws.pos + 2 * ws.stride;
  for (std::size_t k = lo; k < hi; ++k) vx[k] = vy[k] = vz[k] = 0.0;
  for (std::size_t i = chain.dof(); i-- > 0;) {
    const Joint& joint = chain.joint(i);
    const DhParam& p = joint.dh;
    const double* trig = ws.trig + 4 * i;
    double* q = ws.cand + i * ws.stride;
    formCandidates(joint, theta[i], dtheta[i], alpha, clamp_to_limits, q, lo,
                   hi);
    if (joint.type == JointType::kRevolute) {
      sinCosLanes(p.theta, q, ws.ct, ws.st, lo, hi);
      pointStep<false>(vx, vy, vz, ws.ct, ws.st, trig[0], trig[1], p.a, p.d,
                       q, lo, hi);
    } else {
      // Prismatic: the rotation is fixed; only d varies per lane.
      for (std::size_t k = lo; k < hi; ++k) {
        ws.ct[k] = trig[2];
        ws.st[k] = trig[3];
      }
      pointStep<true>(vx, vy, vz, ws.ct, ws.st, trig[0], trig[1], p.a, p.d,
                      q, lo, hi);
    }
  }
  applyBase(chain.base(), vx, vy, vz, lo, hi);
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
// stay double (as forward_f32 takes them), every FK intermediate is
// float with libm float trig.  `trig` is the f32 DH constant table laid
// out like Chain::dhTrig(); `stride` is the padded lane stride of the
// candidate matrix.
inline void walkLanesF32(const Chain& chain, linalg::Mat34BatchF& acc,
                         float* ct, float* st, double* cand,
                         std::size_t stride, const float* trig,
                         const linalg::VecX& theta,
                         const linalg::VecX& dtheta, const double* alpha,
                         bool clamp_to_limits, std::size_t lo,
                         std::size_t hi) {
  acc.setLanes(chain.base(), lo, hi);
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const Joint& joint = chain.joint(i);
    const DhParam& p = joint.dh;
    double* q = cand + i * stride;
    formCandidates(joint, theta[i], dtheta[i], alpha, clamp_to_limits, q, lo,
                   hi);

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

// e_k = ||target - p_k|| from the x, y, z position rows, accumulated
// like Vec3::norm so the scalar path's errors are reproduced exactly.
// f32 positions are widened to double first, as endEffectorPositionF32
// does.
template <typename T>
void reduceErrors(const T* px, const T* py, const T* pz, double* err,
                  const linalg::Vec3& target, std::size_t lo,
                  std::size_t hi) {
  const double tx = target.x, ty = target.y, tz = target.z;
  for (std::size_t k = lo; k < hi; ++k) {
    const double dx = tx - static_cast<double>(px[k]);
    const double dy = ty - static_cast<double>(py[k]);
    const double dz = tz - static_cast<double>(pz[k]);
    err[k] = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
}

}  // namespace dadu::kin::detail
