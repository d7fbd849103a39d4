// Batched speculative forward kinematics — the software FKU array.
//
// Quick-IK's inner loop (Algorithm 1, lines 6-15) evaluates K
// candidates theta + alpha_k * dtheta_base, one FK pass each, and
// scores only their end-effector positions (line 16).  The scalar path
// walks the chain once *per candidate*; this kernel walks it once
// *total*, and carries positions only.
//
// f64: Eq. 10 applied to one point, f(theta) = B * T_1(T_2(... T_N * 0)),
// evaluated from the tip to the base in two phases (backends/
// walk_wide.hpp).  Phase 1, a trig prepass, takes the sin/cos that do
// not depend on the walk's state: Quick-IK's candidates form Eq. 9's
// arithmetic ladder, alpha_k = (k / K) * alpha_base, and
// evaluateLadder() takes the walk's own vectorizable sin/cos of 8 base
// angles and of one step angle per block of 8 lanes per revolute joint,
// into small per-joint tables.  Phase 2, the walk: each group of a few
// lane vectors carries its points from the tip to the base in
// registers; per joint it forms each lane's (cos, sin) as one
// angle-addition rotation of two table factors (4 mul + 2 add) and
// moves the point one joint closer to the base with one DH-structured
// matrix-vector step, v := RotZ(theta) * (RotX(alpha) * v + (a, 0, d)) —
// 8 mul + 6 add per lane.  It applies the chain base B and reduces the
// error before anything is stored.  Joints the ladder cannot describe
// for some lane (clamped lanes, out-of-range angles) and prismatic
// joints form the lane's candidate in registers and take per-lane trig;
// evaluateLanes() takes any alpha array and per-lane trig at every
// joint, through the same walk.
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

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/mat34_batch.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin {

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

  /// The largest contiguous lane range walked in one slice, for either
  /// precision.  Larger ranges are split into slices of at most this
  /// many lanes (each slice takes its own prepass), so the f32 walk's
  /// accumulator lanes stay L1-resident across the whole chain walk.
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
  /// filling positions and errors for exactly those lanes, with
  /// per-lane trig.  Calls over any partition of [0, lanes) match one
  /// call over all of it.
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
  /// runs its per-lane walk.  Both forms run the same f64 walk; only the
  /// trig differs.
  void evaluateLadder(const Chain& chain, const linalg::VecX& theta,
                      const linalg::VecX& dtheta, double alpha_base,
                      std::size_t speculations, const linalg::Vec3& target,
                      bool clamp_to_limits, std::size_t lane_begin,
                      std::size_t lane_end);

  /// Phase 1 of evaluateLadder alone (kF64): the factor tables and the
  /// joints' trig forms for lanes [lane_begin, lane_end), no walk — for
  /// timing the prepass on its own (bench/micro_kernels).  position()
  /// and errors() are not updated.
  void prepassLadder(const Chain& chain, const linalg::VecX& theta,
                     const linalg::VecX& dtheta, double alpha_base,
                     std::size_t speculations, bool clamp_to_limits,
                     std::size_t lane_begin, std::size_t lane_end);

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

  /// Candidate k's joint vector into `out` (resized if needed —
  /// allocation-free when the caller passes a dof-sized vector),
  /// recomputed as theta + alpha_k * dtheta, clamped when the sweep
  /// clamped, bit for bit what the walk evaluated.  theta, dtheta and
  /// the clamp are those of the latest evaluate call, alpha_k that of
  /// the call that covered lane k; so after sweeps of one theta (every
  /// solver, IKAcc's waves) any lane is valid, and after
  /// evaluateGrouped only the last group's lanes are.
  void candidateInto(std::size_t k, linalg::VecX& out) const;

  /// Whether the latest f64 slice gave revolute joint `joint` per-lane
  /// trig — every joint in evaluateLanes, and in evaluateLadder the
  /// joints with fix-up lanes (clamped lanes, angles outside the fast
  /// trig range, poisoned factors) — rather than Eq. 9's rotation
  /// alone.  False for prismatic joints.
  bool laneTrigAt(std::size_t joint) const;

 private:
  /// Copy what candidateInto recomputes a lane from: theta, dtheta, the
  /// clamp flag and, when clamping, the joint limits.  The walks read
  /// the copies too.
  void keepCandidateInputs(const Chain& chain, const linalg::VecX& theta,
                           const linalg::VecX& dtheta, bool clamp_to_limits);

  /// Eq. 9's alphas for lanes [0, kLadderBlock) and [lane_begin,
  /// lane_end) into alpha_; for kF64 also the block steps, returned
  /// (nullptr for kF32).
  const double* formLadder(double alpha_base, std::size_t speculations,
                           std::size_t lane_begin, std::size_t lane_end);

  /// Prepass (kF64) and, when `walk` is set, walk + error-reduce lanes
  /// [lo, hi) against `target` in slices of at most kMaxWalkSliceLanes,
  /// through the backend (kF64) or the f32 reference walk (kF32), over
  /// the kept theta, dtheta and alpha_.  `ladder_step` (kF64 only): Eq.
  /// 9's block steps, or nullptr for per-lane trig.
  void slicedWalk(const Chain& chain, const double* ladder_step,
                  const linalg::Vec3& target, bool walk, std::size_t lo,
                  std::size_t hi);

  Precision precision_;
  const SpecBackend* backend_;
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;  ///< lane stride (lanes_ padded to backend width)
  std::size_t dof_ = 0;
  /// High-water lanes per contiguous walk slice since the last reset().
  std::size_t max_walk_slice_lanes_ = 0;
  std::vector<double> errors_;
  /// Lane k's alpha_k: Eq. 9's ladder (>= kLadderBlock lanes) or the
  /// caller's array, copied.
  std::vector<double> alpha_;
  /// The latest call's theta, dtheta, clamp flag and joint limits.
  linalg::VecX theta_, dtheta_;
  std::vector<double> qmin_, qmax_;
  bool clamp_ = false;
  // f64 workspace.
  std::vector<double> pos_;          ///< x, y, z position rows (3 x stride)
  std::vector<double> ladder_step_;  ///< Eq. 9's block steps
  /// Per-joint factor tables (cos, sin): kLadderBlock base factors, then
  /// one per lane block, factor_stride_ entries per joint.
  std::vector<double> fc_, fs_;
  std::size_t factor_stride_ = 0;
  std::vector<JointTrig> joint_trig_;  ///< per-joint trig form (prepass)
  // f32 workspace.
  linalg::Mat34BatchF acc_f_;     ///< f32 accumulator lanes
  std::vector<double> q_f_;       ///< one joint's candidates
  std::vector<float> ctf_, stf_;  ///< per-lane cos/sin scratch
  // f32 per-joint DH trig constants, laid out like Chain::dhTrig() but
  // evaluated in float on the float-narrowed angles, as the f32 scalar
  // walk does.  The f64 walk reads Chain::dhTrig() directly.
  std::vector<float> trig_f_;
};

}  // namespace dadu::kin
