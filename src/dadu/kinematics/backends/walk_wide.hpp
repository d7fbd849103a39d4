// The f64 speculation walk, one template over a vector type V.
//
// The backend translation unit defines a vector wrapper V (width,
// load/store, broadcast, mul/add/sub, fused fma/fnma, IEEE sqrt,
// ordered-compare blends, raw 64-bit bit ops) with its own -m flags and
// instantiates walkLanesWide<V, G> — G lane vectors per walking group,
// a compile-time constant per backend.  The scalar backend's V is
// ScalarLane (walk_ref.hpp), one lane per "vector"; ragged lanes of the
// wide backends take the same one-lane walk.  Every lane performs the
// same IEEE doubles in the same order whatever V is, so the backends
// are bit-identical, as the parity contract in spec_backend.hpp
// requires.  The multiply-adds of the sin/cos (walk_ref.hpp), Eq. 9's
// rotation and the point step are V::fma / V::fnma, each rounded once
// on every backend; every other multiply and add stays separate (the
// TU compiles with -ffp-contract=off, so the compiler fuses nothing on
// its own), and vector sqrt is correctly rounded.
//
// The walk computes only what Quick-IK scores: the end-effector
// position of each candidate theta + alpha_k * dtheta.  It applies
// Eq. 10 to one point from the tip to the base, f(theta) = B * T_1(T_2(
// ... T_N * 0)), in two phases:
//
//   1. prepassWide: the trig that does not depend on the walk's state.
//      For Eq. 9's ladder, each revolute joint's kLadderBlock base
//      factors and its block factors (below) go into per-joint tables,
//      a dependency-free vector loop, and each joint gets its JointTrig
//      form.
//   2. walkGroup: a group of G lane vectors carries x, y, z from the
//      tip to the base in registers.  At each joint it forms the lanes'
//      (cos, sin) — the ladder's rotation from the tables, or per-lane
//      trig — and takes one DH-structured point step (3 mul, 1 add and
//      6 fused multiply-adds per lane); then it applies the chain base B,
//      reduces the error, and stores position and error once.  No
//      candidate matrix and no per-lane cos/sin rows exist: a lane's
//      candidate is formed in registers at the joints that need it.
//
// ---- Eq. 9's ladder ----------------------------------------------------
//
// evaluateLadder's candidates are q_k = theta_i + alpha_k * dtheta_i with
// alpha_k = ((k + 1) / K) * alpha_base.  Write lane k = j * B + m, with
// B = kLadderBlock and m < B.  Lane k's angle is lane m's plus
//
//   g_j = step[j] * dtheta_i,   step[j] = (j * B / K) * alpha_base
//
// (SpecLaneBlock::ladder_step; each product rounded in that order), so
//
//   cos x_k = c_m * C_j - s_m * S_j,   sin x_k = s_m * C_j + c_m * S_j
//
// with base factors (c_m, s_m) = sinCosFast(t0 + q_m) of the unclamped
// candidate and block factors (C_j, S_j) = sinCosFast(g_j): B + K / B
// trig evaluations per joint instead of K, and per lane one multiply
// and one fused multiply-add for each of cos and sin.  Block 0 takes its base
// factors as they are, so K <= B is per-lane trig exactly, and a lane
// range inside block 0 takes the kLanes form, with no tables.  Both
// factors depend on the lane's absolute index only, never on the lane
// range, so any partition or slicing of [0, K) gives the same bits; a
// chained ladder (block j rotated from block j - 1) would depend on
// where a range starts, and its error would grow with K.  DESIGN.md
// §4.5 derives the rotation's error bound; kinematics_walk_trig_test
// checks it.
//
// Fix-up lanes take per-lane trig — sinCosFast in range, libm outside
// it: lanes the clamp moved, lanes whose angle t0 + q_k is outside the
// fast range or non-finite, and lanes whose base or block factor angle
// is (those factors are poisoned to NaN, so the rotation marks their
// lanes).  The prepass gives a joint the kLadderFixup form when any
// factor is poisoned or an end lane of the range needs a fix-up:
// alpha_k is monotone in k, and so are q_k, its clamp and t0 + q_k, so
// the clamp moves a lane, or a lane angle leaves the fast range, only if
// it does so at lane lo or lane hi - 1.  Every other revolute joint
// takes the rotation alone (kLadder).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/backends/walk_ref.hpp"
#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat4.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin::detail {
namespace {

/// f(0), f(1), ..., f(G - 1), unrolled at compile time, so a group's
/// per-vector arrays are indexed by constants and live in registers.
template <std::size_t G, typename F>
void forEachVector(F&& f) {
  [&]<std::size_t... g>(std::index_sequence<g...>) {
    (f(g), ...);
  }(std::make_index_sequence<G>{});
}

// ---- Phase 1: the trig prepass -----------------------------------------

/// Base factors 0..kLadderBlock and block factors [jb, je) of one
/// revolute joint into its table row; returns whether any factor angle
/// is outside the fast range, after poisoning those factors to NaN.
template <typename V>
bool ladderFactors(const SpecLaneBlock& ws, double* fc, double* fs,
                   double t0, double ti, double di, std::size_t jb,
                   std::size_t je) {
  static_assert(kLadderBlock % V::width == 0);
  const auto cutoff = V::set1(kWalkTrigCutoff);
  typename V::reg s, c;
  bool poisoned = false;
  {
    const auto t0_v = V::set1(t0);
    const auto ti_v = V::set1(ti);
    const auto di_v = V::set1(di);
    for (std::size_t m = 0; m < kLadderBlock; m += V::width) {
      const auto x =
          V::add(t0_v, V::add(ti_v, V::mul(V::load(ws.alpha + m), di_v)));
      sinCosFastWide<V>(x, s, c);
      V::store(fs + m, s);
      V::store(fc + m, c);
      poisoned |= V::anyAbsNotBelow(x, cutoff);
    }
    // Whole vectors of block steps from a multiple of V::width
    // (ladder_step is padded to whole kLadderBlock groups); a last
    // partial vector stores only its blocks, so the table rows need no
    // padding.  Factors below jb are computed and never read.
    for (std::size_t j = jb / V::width * V::width; j < je; j += V::width) {
      const auto g = V::mul(V::load(ws.ladder_step + j), di_v);
      sinCosFastWide<V>(g, s, c);
      if (j + V::width <= je) {
        V::store(fs + kLadderBlock + j, s);
        V::store(fc + kLadderBlock + j, c);
        poisoned |= V::anyAbsNotBelow(g, cutoff);
        continue;
      }
      alignas(64) double gs[V::width], ss[V::width], cs[V::width];
      V::store(gs, g);
      V::store(ss, s);
      V::store(cs, c);
      for (std::size_t l = 0; j + l < je; ++l) {
        fs[kLadderBlock + j + l] = ss[l];
        fc[kLadderBlock + j + l] = cs[l];
        poisoned |= j + l >= jb && outsideWalkTrig(gs[l]);
      }
    }
  }
  if (poisoned) {
    // Rare: mark the out-of-range factors, recomputing their angles
    // with the same expressions.
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t m = 0; m < kLadderBlock; ++m)
      if (outsideWalkTrig(t0 + (ti + ws.alpha[m] * di))) fc[m] = fs[m] = kNaN;
    for (std::size_t j = jb; j < je; ++j)
      if (outsideWalkTrig(ws.ladder_step[j] * di))
        fc[kLadderBlock + j] = fs[kLadderBlock + j] = kNaN;
  }
  return poisoned;
}

/// Whether lane k of a ladder joint needs per-lane trig: the clamp moves
/// it, or its angle is outside the fast range (NaN included).
inline bool ladderLaneNeedsFixup(const Joint& joint, double ti, double di,
                                 double alpha, bool clamp_to_limits) {
  const double u = ti + alpha * di;
  const double q =
      clamp_to_limits ? clampCandidate(u, joint.min, joint.max) : u;
  return (clamp_to_limits && q != u) || outsideWalkTrig(joint.dh.theta + q);
}

/// Phase 1 over lanes [lo, hi): every joint's JointTrig, and for Eq. 9's
/// ladder the revolute joints' factor tables.
template <typename V>
void prepassWide(const Chain& chain, const SpecLaneBlock& ws,
                 const linalg::VecX& theta, const linalg::VecX& dtheta,
                 bool clamp_to_limits, std::size_t lo, std::size_t hi) {
  const std::size_t jb = std::max<std::size_t>(lo / kLadderBlock, 1);
  const std::size_t je = (hi + kLadderBlock - 1) / kLadderBlock;
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const Joint& joint = chain.joint(i);
    if (joint.type != JointType::kRevolute) {
      ws.joint_trig[i] = JointTrig::kPrismatic;
      continue;
    }
    // Lanes of block 0 take their base factors as they are, which is
    // per-lane trig exactly: a range inside block 0 needs no tables.
    if (ws.ladder_step == nullptr || hi <= kLadderBlock) {
      ws.joint_trig[i] = JointTrig::kLanes;
      continue;
    }
    const double ti = theta[i], di = dtheta[i];
    const bool poisoned =
        ladderFactors<V>(ws, ws.fc + i * ws.factor_stride,
                         ws.fs + i * ws.factor_stride, joint.dh.theta, ti, di,
                         jb, je);
    const bool fixup =
        poisoned ||
        ladderLaneNeedsFixup(joint, ti, di, ws.alpha[lo], clamp_to_limits) ||
        ladderLaneNeedsFixup(joint, ti, di, ws.alpha[hi - 1], clamp_to_limits);
    ws.joint_trig[i] = fixup ? JointTrig::kLadderFixup : JointTrig::kLadder;
  }
}

// ---- Phase 2: the register-resident walk --------------------------------

/// libm for the lanes among n whose angle t0 + q is outside the fast
/// range (non-finite included); other lanes keep c, s.  The rare,
/// lane-at-a-time part of the walk.
[[gnu::noinline]] inline void libmLanes(double t0, const double* q, double* c,
                                        double* s, std::size_t n) {
  for (std::size_t l = 0; l < n; ++l) {
    const double x = t0 + q[l];
    if (outsideWalkTrig(x)) {
      c[l] = std::cos(x);
      s[l] = std::sin(x);
    }
  }
}

/// libmLanes over one vector's lanes, through memory.
template <typename V>
void libmVector(double t0, typename V::reg q, typename V::reg& c,
                typename V::reg& s) {
  alignas(64) double qs[V::width], cs[V::width], ss[V::width];
  V::store(qs, q);
  V::store(cs, c);
  V::store(ss, s);
  libmLanes(t0, qs, cs, ss, V::width);
  c = V::load(cs);
  s = V::load(ss);
}

/// s, c = sin, cos of x[0, n): sinCosFastWide a vector at a time, then
/// libm for the lanes outside the fast range (non-finite included);
/// the ragged tail takes the one-lane form.  ScalarLane's instance is
/// specSinCos, so every backend returns its values.
template <typename V>
void sinCosWide(const double* x, double* s, double* c, std::size_t n) {
  const auto cutoff = V::set1(kWalkTrigCutoff);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    const auto xv = V::load(x + i);
    typename V::reg sv, cv;
    sinCosFastWide<V>(xv, sv, cv);
    V::store(s + i, sv);
    V::store(c + i, cv);
    if (V::anyAbsNotBelow(xv, cutoff)) [[unlikely]] {
      for (std::size_t l = i; l < i + V::width; ++l) {
        if (outsideWalkTrig(x[l])) {
          s[l] = std::sin(x[l]);
          c[l] = std::cos(x[l]);
        }
      }
    }
  }
  if constexpr (V::width > 1)
    sinCosWide<ScalarLane>(x + i, s + i, c + i, n - i);
}

/// Candidates theta_i + alpha[k] * dtheta_i of the V::width lanes at
/// `alpha` (mul first, then add), clamped with ordered compares so NaN
/// lanes keep their value, as the scalar if-chain does.
template <typename V>
typename V::reg candidates(const Joint& joint, double ti, double di,
                           const double* alpha, bool clamp_to_limits) {
  auto q = V::add(V::set1(ti), V::mul(V::load(alpha), V::set1(di)));
  if (clamp_to_limits) {
    q = V::clampBelow(q, V::set1(joint.min));  // q < qmin ? qmin : q
    q = V::clampAbove(q, V::set1(joint.max));  // q > qmax ? qmax : q
  }
  return q;
}

/// The fix-up lanes of one vector of a kLadderFixup joint, whose
/// rotation gave c, s: sinCosFast, a vector at a time, where the clamp
/// moved the lane or the rotation left NaN; then libm where the lane
/// angle is outside the fast range.
template <typename V>
void ladderFixupVector(const Joint& joint, double ti, double di,
                       const double* alpha, bool clamp_to_limits,
                       typename V::reg& c, typename V::reg& s) {
  const auto u = candidates<V>(joint, ti, di, alpha, false);
  const auto q = candidates<V>(joint, ti, di, alpha, clamp_to_limits);
  // NaN lanes of q land here too; their angle takes libm below.
  const auto fix = V::orBits(V::notEqualMask(c, c), V::notEqualMask(q, u));
  const auto x = V::add(V::set1(joint.dh.theta), q);
  if (V::anySign(fix)) {
    typename V::reg sf, cf;
    sinCosFastWide<V>(x, sf, cf);
    c = V::selectBySign(fix, c, cf);
    s = V::selectBySign(fix, s, sf);
  }
  if (V::anyAbsNotBelow(x, V::set1(kWalkTrigCutoff))) [[unlikely]]
    libmVector<V>(joint.dh.theta, q, c, s);
}

/// Walk lanes [k, k + G * V::width) from the tip to the base and store
/// their positions and errors.  k is a multiple of V::width, so each
/// vector lies in one ladder block (V::width divides kLadderBlock).
template <typename V, std::size_t G>
void walkGroup(const Chain& chain, const SpecLaneBlock& ws,
               const linalg::VecX& theta, const linalg::VecX& dtheta,
               const linalg::Vec3& target, bool clamp_to_limits,
               std::size_t k) {
  using reg = typename V::reg;
  constexpr std::size_t W = V::width;
  reg vx[G], vy[G], vz[G], c[G], s[G], dl[G];
  forEachVector<G>(
      [&](std::size_t g) { vx[g] = vy[g] = vz[g] = V::set1(0.0); });
  const auto cutoff = V::set1(kWalkTrigCutoff);

  for (std::size_t i = chain.dof(); i-- > 0;) {
    const Joint& joint = chain.joint(i);
    const double* trig = ws.trig + 4 * i;
    const double ti = theta[i], di = dtheta[i];
    const JointTrig form = ws.joint_trig[i];
    if (form == JointTrig::kLadder || form == JointTrig::kLadderFixup) {
      const double* fc = ws.fc + i * ws.factor_stride;
      const double* fs = ws.fs + i * ws.factor_stride;
      forEachVector<G>([&](std::size_t g) {
        const std::size_t kg = k + g * W;
        const std::size_t j = kg / kLadderBlock, m = kg % kLadderBlock;
        c[g] = V::load(fc + m);
        s[g] = V::load(fs + m);
        if (j != 0) {
          const auto cj = V::set1(fc[kLadderBlock + j]);
          const auto sj = V::set1(fs[kLadderBlock + j]);
          const auto cos_k = V::fnma(s[g], sj, V::mul(c[g], cj));
          s[g] = V::fma(c[g], sj, V::mul(s[g], cj));
          c[g] = cos_k;
        }
        dl[g] = V::set1(joint.dh.d);
      });
      if (form == JointTrig::kLadderFixup) {
        forEachVector<G>([&](std::size_t g) {
          ladderFixupVector<V>(joint, ti, di, ws.alpha + k + g * W,
                               clamp_to_limits, c[g], s[g]);
        });
      }
    } else if (form == JointTrig::kLanes) {
      forEachVector<G>([&](std::size_t g) {
        const auto q =
            candidates<V>(joint, ti, di, ws.alpha + k + g * W, clamp_to_limits);
        const auto x = V::add(V::set1(joint.dh.theta), q);
        sinCosFastWide<V>(x, s[g], c[g]);
        if (V::anyAbsNotBelow(x, cutoff)) [[unlikely]]
          libmVector<V>(joint.dh.theta, q, c[g], s[g]);
        dl[g] = V::set1(joint.dh.d);
      });
    } else {
      // Prismatic: the rotation is fixed; only d varies per lane.
      forEachVector<G>([&](std::size_t g) {
        c[g] = V::set1(trig[2]);
        s[g] = V::set1(trig[3]);
        dl[g] = V::add(V::set1(joint.dh.d),
                       candidates<V>(joint, ti, di, ws.alpha + k + g * W,
                                     clamp_to_limits));
      });
    }

    // v := RotZ(theta_k) * (RotX(alpha) * v + (a, 0, d_k)).  The DH
    // matrix's exact 0 and 1 entries are never multiplied.
    const auto ca = V::set1(trig[0]);
    const auto sa = V::set1(trig[1]);
    const auto a_len = V::set1(joint.dh.a);
    forEachVector<G>([&](std::size_t g) {
      const auto wx = V::add(vx[g], a_len);
      const auto wy = V::fnma(sa, vz[g], V::mul(ca, vy[g]));
      const auto wz = V::fma(sa, vy[g], V::fma(ca, vz[g], dl[g]));
      vx[g] = V::fnma(s[g], wy, V::mul(c[g], wx));
      vy[g] = V::fma(c[g], wy, V::mul(s[g], wx));
      vz[g] = wz;
    });
  }

  // p := B * v, each row accumulated left to right as
  // Mat4::transformPoint does; then e = ||target - p|| in Vec3::norm's
  // order.
  const linalg::Mat4& b = chain.base();
  const auto row = [&b](std::size_t r, reg x, reg y, reg z) {
    return V::add(V::add(V::add(V::mul(V::set1(b(r, 0)), x),
                                V::mul(V::set1(b(r, 1)), y)),
                         V::mul(V::set1(b(r, 2)), z)),
                  V::set1(b(r, 3)));
  };
  forEachVector<G>([&](std::size_t g) {
    const std::size_t kg = k + g * W;
    const auto px = row(0, vx[g], vy[g], vz[g]);
    const auto py = row(1, vx[g], vy[g], vz[g]);
    const auto pz = row(2, vx[g], vy[g], vz[g]);
    V::store(ws.pos + kg, px);
    V::store(ws.pos + ws.stride + kg, py);
    V::store(ws.pos + 2 * ws.stride + kg, pz);
    const auto dx = V::sub(V::set1(target.x), px);
    const auto dy = V::sub(V::set1(target.y), py);
    const auto dz = V::sub(V::set1(target.z), pz);
    V::store(ws.errors + kg,
             V::sqrt(V::add(V::add(V::mul(dx, dx), V::mul(dy, dy)),
                            V::mul(dz, dz))));
  });
}

/// Walk whole vectors of V from lane k while they fit below hi: groups
/// of G, then one group of the G - 1 or fewer vectors left, so a short
/// range still walks all its vectors side by side.  Returns the first
/// lane not walked.
template <typename V, std::size_t G>
std::size_t walkVectors(const Chain& chain, const SpecLaneBlock& ws,
                        const linalg::VecX& theta, const linalg::VecX& dtheta,
                        const linalg::Vec3& target, bool clamp_to_limits,
                        std::size_t k, std::size_t hi) {
  for (; k + G * V::width <= hi; k += G * V::width)
    walkGroup<V, G>(chain, ws, theta, dtheta, target, clamp_to_limits, k);
  if constexpr (G > 1)
    k = walkVectors<V, G - 1>(chain, ws, theta, dtheta, target,
                              clamp_to_limits, k, hi);
  return k;
}

/// Lanes per group of the one-lane walk: the scalar backend's group
/// width, and that of the wide backends' ragged lanes.  4 x 3 position
/// registers stay live across the walk.
inline constexpr std::size_t kScalarGroupLanes = 4;

/// Phase 2 over lanes [lo, hi), after prepassWide over the same range:
/// one-lane walks up to the first vector boundary, groups of G
/// vectors, and one-lane walks for the ragged tail.
template <typename V, std::size_t G>
void walkLanesWide(const Chain& chain, const SpecLaneBlock& ws,
                   const linalg::VecX& theta, const linalg::VecX& dtheta,
                   const linalg::Vec3& target, bool clamp_to_limits,
                   std::size_t lo, std::size_t hi) {
  const std::size_t aligned =
      std::min(hi, (lo + V::width - 1) / V::width * V::width);
  std::size_t k = walkVectors<ScalarLane, kScalarGroupLanes>(
      chain, ws, theta, dtheta, target, clamp_to_limits, lo, aligned);
  k = walkVectors<V, G>(chain, ws, theta, dtheta, target, clamp_to_limits, k,
                        hi);
  walkVectors<ScalarLane, kScalarGroupLanes>(chain, ws, theta, dtheta, target,
                                             clamp_to_limits, k, hi);
}

}  // namespace
}  // namespace dadu::kin::detail
