// Explicit-SIMD batched chain walk, templated over a vector abstraction.
//
// One kernel body serves every wide ISA: the backend translation unit
// defines a vector wrapper V (width, load/store, broadcast, mul/add/
// sub, IEEE sqrt, ordered-compare blends, raw 64-bit bit ops) with
// its own -m flags, instantiates these templates, and gets a kernel
// whose *operation order is exactly the scalar reference* — each lane
// performs the same IEEE doubles in the same sequence, just `V::width`
// lanes per instruction.  The walk is walk_ref.hpp's tip-to-base point
// walk: per joint a trig pass into ct/st, then the DH-structured point
// step (pointStepWide, 8 mul + 6 add per lane) on three position
// lanes, and the chain base applied once at the end.  Multiplies and
// adds stay separate (no FMA contraction; the TU compiles with
// -ffp-contract=off as a belt-and-braces), the candidate sin/cos is
// sinCosFast() from walk_ref.hpp written over V ops (sinCosLanesWide),
// lanes outside its range take the same libm fix-up pass as the
// reference, and vector sqrt is correctly rounded — so the wide
// backends are bit-identical to the scalar walk, as the parity
// contract in spec_backend.hpp requires.
//
// Lane ranges need not be multiples of V::width: the vectorized middle
// covers [lo, lo + floor((hi-lo)/width)*width) and the ragged tail
// falls through to the reference templates in walk_ref.hpp.
#pragma once

#include <cmath>
#include <cstddef>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/backends/walk_ref.hpp"
#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat4.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin::detail {

// One joint of the tip-to-base point walk, V::width lanes per step.
// Mirrors pointStep<kPrismatic> statement for statement.
template <typename V, bool kPrismatic>
void pointStepWide(double* vx, double* vy, double* vz, const double* ct,
                   const double* st, double ca, double sa, double a_len,
                   double d_fixed, const double* q, std::size_t lo,
                   std::size_t hi) {
  const auto ca_v = V::set1(ca);
  const auto sa_v = V::set1(sa);
  const auto al_v = V::set1(a_len);
  const auto df_v = V::set1(d_fixed);

  std::size_t k = lo;
  for (; k + V::width <= hi; k += V::width) {
    const auto c = V::load(ct + k);
    const auto s = V::load(st + k);
    const auto x = V::load(vx + k);
    const auto y = V::load(vy + k);
    const auto z = V::load(vz + k);
    const auto dl = kPrismatic ? V::add(df_v, V::load(q + k)) : df_v;
    const auto wx = V::add(x, al_v);
    const auto wy = V::sub(V::mul(ca_v, y), V::mul(sa_v, z));
    const auto wz = V::add(V::add(V::mul(sa_v, y), V::mul(ca_v, z)), dl);
    V::store(vx + k, V::sub(V::mul(c, wx), V::mul(s, wy)));
    V::store(vy + k, V::add(V::mul(s, wx), V::mul(c, wy)));
    V::store(vz + k, wz);
  }
  if (k < hi)
    pointStep<kPrismatic>(vx, vy, vz, ct, st, ca, sa, a_len, d_fixed, q, k,
                          hi);
}

// p_k := B * v_k, V::width lanes per step; applyBase's order.
template <typename V>
void applyBaseWide(const linalg::Mat4& b, double* vx, double* vy, double* vz,
                   std::size_t lo, std::size_t hi) {
  const auto row = [&b](std::size_t r, typename V::reg x, typename V::reg y,
                        typename V::reg z) {
    return V::add(V::add(V::add(V::mul(V::set1(b(r, 0)), x),
                                V::mul(V::set1(b(r, 1)), y)),
                         V::mul(V::set1(b(r, 2)), z)),
                  V::set1(b(r, 3)));
  };
  std::size_t k = lo;
  for (; k + V::width <= hi; k += V::width) {
    const auto x = V::load(vx + k);
    const auto y = V::load(vy + k);
    const auto z = V::load(vz + k);
    V::store(vx + k, row(0, x, y, z));
    V::store(vy + k, row(1, x, y, z));
    V::store(vz + k, row(2, x, y, z));
  }
  if (k < hi) applyBase(b, vx, vy, vz, k, hi);
}

// ct[k] = cos(t0 + q[k]), st[k] = sin(t0 + q[k]) over lanes [lo, hi):
// sinCosFast() statement for statement, V::width lanes per step, then
// the shared libm fix-up pass for out-of-range lanes.  Written out over
// V ops because not every ISA's autovectorizer takes the scalar loop.
template <typename V>
void sinCosLanesWide(double t0, const double* q, double* ct, double* st,
                     std::size_t lo, std::size_t hi) {
  const auto t0_v = V::set1(t0);
  const auto two_over_pi = V::set1(kTwoOverPi);
  const auto shifter = V::set1(kRoundShifter);
  const auto pio2_hi = V::set1(kPio2Hi);
  const auto pio2_mid = V::set1(kPio2Mid);
  const auto pio2_lo = V::set1(kPio2Lo);
  const auto one = V::set1(1.0);
  const auto sign = V::set1(-0.0);
  const auto cutoff = V::set1(kWalkTrigCutoff);
  const auto horner = [](typename V::reg p, typename V::reg r2, double c) {
    return V::add(V::mul(p, r2), V::set1(c));
  };

  bool any_outside = false;
  std::size_t k = lo;
  for (; k + V::width <= hi; k += V::width) {
    const auto x = V::add(t0_v, V::load(q + k));
    const auto shifted = V::add(V::mul(x, two_over_pi), shifter);
    const auto kq = V::sub(shifted, shifter);
    const auto r = V::sub(V::sub(V::sub(x, V::mul(kq, pio2_hi)),
                                 V::mul(kq, pio2_mid)),
                          V::mul(kq, pio2_lo));
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
    const auto sr = V::xorBits(V::add(ra, V::mul(V::mul(ra, r2), ps)), r_sign);
    auto pc = V::set1(kCos18);
    pc = horner(pc, r2, kCos16);
    pc = horner(pc, r2, kCos14);
    pc = horner(pc, r2, kCos12);
    pc = horner(pc, r2, kCos10);
    pc = horner(pc, r2, kCos8);
    pc = horner(pc, r2, kCos6);
    pc = horner(pc, r2, kCos4);
    pc = horner(pc, r2, kCos2);
    const auto cr = V::add(one, V::mul(r2, pc));
    // Quadrant from the low bits of `shifted`, as in sinCosFast().
    const auto swap = V::shiftLeftBits(shifted, 63);  // bit 0 -> sign
    const auto sin_sign = V::andBits(V::shiftLeftBits(shifted, 62), sign);
    const auto cos_sign = V::andBits(
        V::shiftLeftBits(V::xorBits(shifted, V::shiftLeftBits(shifted, 1)),
                         62),
        sign);
    V::store(st + k, V::xorBits(V::selectBySign(swap, sr, cr), sin_sign));
    V::store(ct + k, V::xorBits(V::selectBySign(swap, cr, sr), cos_sign));
    any_outside |= V::anyAbsNotBelow(x, cutoff);
  }
  if (any_outside) sinCosFallback(t0, q, ct, st, lo, k);
  if (k < hi) sinCosLanes(t0, q, ct, st, k, hi);
}

// One full wide chain walk over lanes [lo, hi): walkPointLanes with
// vectorized candidate formation and clamp, vectorized trig
// (bit-identical to the reference's) and the wide point step.
template <typename V>
void walkPointLanesWide(const Chain& chain, const SpecLaneBlock& ws,
                        const linalg::VecX& theta,
                        const linalg::VecX& dtheta, const double* alpha,
                        bool clamp_to_limits, std::size_t lo,
                        std::size_t hi) {
  double* vx = ws.pos;
  double* vy = ws.pos + ws.stride;
  double* vz = ws.pos + 2 * ws.stride;
  for (std::size_t k = lo; k < hi; ++k) vx[k] = vy[k] = vz[k] = 0.0;
  const std::size_t main_end = lo + ((hi - lo) / V::width) * V::width;
  for (std::size_t i = chain.dof(); i-- > 0;) {
    const Joint& joint = chain.joint(i);
    const DhParam& p = joint.dh;
    const double* trig = ws.trig + 4 * i;
    double* q = ws.cand + i * ws.stride;

    // q[k] = theta_i + alpha[k] * dtheta_i (mul first, then add — the
    // scalar expression order), clamped with ordered compares so NaN
    // propagation matches the scalar if-chains.
    const double ti = theta[i], di = dtheta[i];
    {
      const auto ti_v = V::set1(ti);
      const auto di_v = V::set1(di);
      std::size_t k = lo;
      for (; k < main_end; k += V::width)
        V::store(q + k, V::add(ti_v, V::mul(V::load(alpha + k), di_v)));
      for (; k < hi; ++k) q[k] = ti + alpha[k] * di;
    }
    if (clamp_to_limits) {
      const double qmin = joint.min, qmax = joint.max;
      const auto lo_v = V::set1(qmin);
      const auto hi_v = V::set1(qmax);
      std::size_t k = lo;
      for (; k < main_end; k += V::width) {
        auto v = V::load(q + k);
        v = V::clampBelow(v, lo_v);  // q < qmin ? qmin : q
        v = V::clampAbove(v, hi_v);  // q > qmax ? qmax : q
        V::store(q + k, v);
      }
      for (; k < hi; ++k) {
        if (q[k] < qmin) q[k] = qmin;
        if (q[k] > qmax) q[k] = qmax;
      }
    }

    if (joint.type == JointType::kRevolute) {
      sinCosLanesWide<V>(p.theta, q, ws.ct, ws.st, lo, hi);
      pointStepWide<V, false>(vx, vy, vz, ws.ct, ws.st, trig[0], trig[1],
                              p.a, p.d, q, lo, hi);
    } else {
      for (std::size_t k = lo; k < hi; ++k) {
        ws.ct[k] = trig[2];
        ws.st[k] = trig[3];
      }
      pointStepWide<V, true>(vx, vy, vz, ws.ct, ws.st, trig[0], trig[1],
                             p.a, p.d, q, lo, hi);
    }
  }
  applyBaseWide<V>(chain.base(), vx, vy, vz, lo, hi);
}

// errors[k] = sqrt(dx*dx + dy*dy + dz*dz), V::width lanes at a time,
// same association order as the scalar reduction; vector sqrt is
// IEEE-correctly rounded, so results are bit-identical.
template <typename V>
void reduceErrorsWide(const SpecLaneBlock& ws, const linalg::Vec3& target,
                      std::size_t lo, std::size_t hi) {
  const double* px = ws.pos;
  const double* py = ws.pos + ws.stride;
  const double* pz = ws.pos + 2 * ws.stride;
  const auto tx = V::set1(target.x);
  const auto ty = V::set1(target.y);
  const auto tz = V::set1(target.z);
  std::size_t k = lo;
  for (; k + V::width <= hi; k += V::width) {
    const auto dx = V::sub(tx, V::load(px + k));
    const auto dy = V::sub(ty, V::load(py + k));
    const auto dz = V::sub(tz, V::load(pz + k));
    const auto d2 = V::add(V::add(V::mul(dx, dx), V::mul(dy, dy)),
                           V::mul(dz, dz));
    V::store(ws.errors + k, V::sqrt(d2));
  }
  if (k < hi) reduceErrors<double>(px, py, pz, ws.errors, target, k, hi);
}

}  // namespace dadu::kin::detail
