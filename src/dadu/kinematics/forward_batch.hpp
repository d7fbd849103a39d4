// Batched speculative forward kinematics — the software FKU array.
//
// Quick-IK's inner loop (Algorithm 1, lines 6-15) evaluates K
// candidates theta + alpha_k * dtheta_base, one FK pass each, and
// scores only their end-effector positions (line 16).  The scalar path
// walks the chain once *per candidate*; this kernel walks it once
// *total*, and carries positions only.
//
// f64: Eq. 10 applied to one point, f(theta) = B * T_1(T_2(... T_N * 0)),
// evaluated from the tip to the base.  At each joint the kernel forms
// the K candidate joint values, takes their K sin/cos with the walk's
// own vectorizable sin/cos (backends/walk_ref.hpp), and moves K points
// one joint closer to the base with one DH-structured matrix-vector
// step, v := RotZ(theta) * (RotX(alpha) * v + (a, 0, d)) — 8 mul + 6
// add per lane on three structure-of-arrays position rows (batch index
// innermost).  The chain base B is applied once, at the end.  Quick-IK's
// candidates form Eq. 9's arithmetic ladder, alpha_k = (k / K) *
// alpha_base, and evaluateLadder() uses that: per joint it takes the
// walk's sin/cos of 8 base angles and of one step angle per block of 8
// lanes, and each other lane's (cos, sin) is one angle-addition
// rotation (4 mul + 2 add); clamped lanes take per-lane trig.
// evaluateLanes() takes any alpha array and per-lane trig.
//
// f32 (the FP32-FKU model): K accumulator transforms in a
// linalg::Mat34BatchF advance base to tip, reproducing
// endEffectorPositionF32.
//
// Both share everything that is per-joint rather than per-candidate:
// cos/sin of the fixed link twist alpha happen once per joint instead
// of once per joint per candidate, and no candidate VecX or Mat4
// temporaries exist at all.
#pragma once

#include <cstddef>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat34_batch.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin {

class SpecBackend;

/// Batched FK over K speculative candidates.  Owns its workspace:
/// reset() sizes it (idempotent, allocation-free once warm) and
/// evaluateLanes() fills it with zero allocations, so a solver can
/// hold one instance and reuse it every iteration.
///
/// The f64 arithmetic runs through a pluggable SpecBackend (scalar /
/// AVX2 / AVX-512 — see backends/spec_backend.hpp): the instance binds
/// to the process-dispatched backend at construction, or to an
/// explicit one passed in (parity tests, benches).  Walks longer than
/// kMaxWalkSliceLanes are transparently sliced so every contiguous
/// walk stays cache-resident; lanes are independent, so slicing never
/// changes results.  The f32 datapath (the FP32-FKU model) always uses
/// the scalar reference walk.
class BatchedForward {
 public:
  /// Arithmetic of the walk.  kF64 is the tip-to-base point walk with
  /// the walk's own sin/cos (within 2 ULP of libm), so positions agree
  /// with endEffectorPosition() to ~1e-15;
  /// kF32 reproduces endEffectorPositionF32() — every intermediate held
  /// in float (libm trig), candidates and errors still formed in double.
  enum class Precision { kF64, kF32 };

  /// Cache-residency budget: the largest contiguous lane range walked
  /// in one slice, for either precision.  Larger ranges are split into
  /// slices of at most this many lanes, so each slice's position lanes
  /// stay L1-resident across the whole chain walk.
  static constexpr std::size_t kMaxWalkSliceLanes = 256;

  /// `backend` = nullptr binds the process-dispatched backend (CPUID +
  /// DADU_SPEC_BACKEND / --spec-backend override, resolved at
  /// construction time).
  explicit BatchedForward(Precision precision = Precision::kF64,
                          const SpecBackend* backend = nullptr);

  Precision precision() const { return precision_; }
  std::size_t lanes() const { return lanes_; }
  std::size_t dof() const { return dof_; }

  /// The speculation backend this instance is bound to.
  const SpecBackend& backend() const { return *backend_; }

  /// High-water mark of lanes handed to a single contiguous walk
  /// since the last reset() — the cache-residency seam: stays at
  /// or below kMaxWalkSliceLanes no matter how large a lane range or
  /// group the caller passes, in either precision.
  std::size_t maxWalkSliceLanes() const { return max_walk_slice_lanes_; }

  /// Size the workspace for `lanes` candidates over `chain`.  Call
  /// once before evaluateLanes (and again whenever the lane count or
  /// chain changes); repeated calls at or below the high-water mark do
  /// not allocate.
  void reset(const Chain& chain, std::size_t lanes);

  /// Evaluate candidates k in [lane_begin, lane_end):
  ///
  ///   theta_k = theta + alpha[k] * dtheta   (clamped to the chain's
  ///             joint limits when clamp_to_limits is set)
  ///   x_k     = f(theta_k)                  (one shared chain walk)
  ///   e_k     = ||target - x_k||
  ///
  /// filling the candidate matrix, positions and errors for exactly
  /// those lanes.  Distinct lane ranges touch disjoint memory, so calls
  /// over any partition of [0, lanes) match one call over all of it.
  void evaluateLanes(const Chain& chain, const linalg::VecX& theta,
                     const linalg::VecX& dtheta, const double* alpha,
                     const linalg::Vec3& target, bool clamp_to_limits,
                     std::size_t lane_begin, std::size_t lane_end);

  /// evaluateLanes over Eq. 9's ladder, the form every solver uses:
  /// alpha[k] = ((k + 1) / speculations) * alpha_base (Quick-IK's
  /// expression), with the f64 walk's candidate trig taken through the
  /// ladder's angle addition (backends/walk_ref.hpp, "Eq. 9's ladder").
  /// A lane's results depend only on its index k, never on the lane
  /// range, so partitions and slicing stay bit-exact; they are within a
  /// few ULPs of evaluateLanes' per-lane trig, and equal to it for
  /// speculations <= kLadderBlock.  kF32 forms the same alpha array and
  /// runs its per-lane walk.
  void evaluateLadder(const Chain& chain, const linalg::VecX& theta,
                      const linalg::VecX& dtheta, double alpha_base,
                      std::size_t speculations, const linalg::Vec3& target,
                      bool clamp_to_limits, std::size_t lane_begin,
                      std::size_t lane_end);

  /// One target's slice of a multi-target sweep: lanes
  /// [lane_begin, lane_end) form candidates theta + alpha[k] * dtheta
  /// and score them against `target`.  theta/dtheta are borrowed — the
  /// caller keeps them alive across evaluateGrouped.
  struct LaneGroup {
    const linalg::VecX* theta = nullptr;
    const linalg::VecX* dtheta = nullptr;
    linalg::Vec3 target{};
    std::size_t lane_begin = 0;
    std::size_t lane_end = 0;
  };

  /// One evaluateLanes call per group, in order, over that group's
  /// lane range and target.  Kept for the benchmark's grouped-walk
  /// probe; no solver calls it.  Groups must occupy disjoint lane
  /// ranges within [0, lanes()).
  void evaluateGrouped(const Chain& chain, const LaneGroup* groups,
                       std::size_t group_count, const double* alpha,
                       bool clamp_to_limits);

  /// Per-candidate errors e_k; valid after evaluateLanes covered lane k.
  const std::vector<double>& errors() const { return errors_; }

  /// End-effector position of candidate k (widened to double for kF32).
  linalg::Vec3 position(std::size_t k) const;

  /// Copy candidate k's joint vector into `out` (resized if needed —
  /// allocation-free when the caller passes a dof-sized vector).
  void candidateInto(std::size_t k, linalg::VecX& out) const;

 private:
  /// Walk + error-reduce lanes [lo, hi) against `target` in slices of
  /// at most kMaxWalkSliceLanes, through the backend (kF64) or the f32
  /// reference walk (kF32).
  /// `ladder_step` (kF64 only): Eq. 9's block steps, or nullptr for
  /// per-lane trig.
  void slicedWalk(const Chain& chain, const linalg::VecX& theta,
                  const linalg::VecX& dtheta, const double* alpha,
                  const double* ladder_step, const linalg::Vec3& target,
                  bool clamp_to_limits, std::size_t lo, std::size_t hi);

  Precision precision_;
  const SpecBackend* backend_;
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;  ///< lane stride (lanes_ padded to backend width)
  std::size_t dof_ = 0;
  /// High-water lanes per contiguous walk slice since the last reset().
  std::size_t max_walk_slice_lanes_ = 0;
  std::vector<double> pos_;    ///< f64 x, y, z position rows (3 x stride)
  linalg::Mat34BatchF acc_f_;  ///< f32 accumulator lanes
  std::vector<double> cand_;   ///< dof x stride candidate matrix (SoA)
  std::vector<double> ct_, st_;  ///< per-lane cos/sin scratch (f64)
  /// evaluateLadder's alpha ladder (>= kLadderBlock lanes) and block
  /// steps.
  std::vector<double> alpha_, ladder_step_;
  std::vector<double> fc_, fs_;  ///< ladder factor scratch (f64)
  std::vector<float> ctf_, stf_;  ///< per-lane cos/sin scratch (f32)
  std::vector<double> errors_;
  // f32 per-joint DH trig constants, laid out like Chain::dhTrig() but
  // evaluated in float on the float-narrowed angles, as the f32 scalar
  // walk does.  The f64 walk reads Chain::dhTrig() directly.
  std::vector<float> trig_f_;
};

}  // namespace dadu::kin
