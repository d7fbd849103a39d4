#include "dadu/kinematics/forward_batch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/backends/walk_ref.hpp"

namespace dadu::kin {
namespace {

/// Ladder blocks of kLadderBlock lanes spanning `lanes` lanes.
std::size_t ladderBlocks(std::size_t lanes) {
  return (lanes + kLadderBlock - 1) / kLadderBlock;
}

/// Block steps kept for `lanes` lanes: whole kLadderBlock groups of
/// blocks, so the prepass loads them in whole vectors (every vector
/// width divides kLadderBlock).
std::size_t ladderStepCount(std::size_t lanes) {
  return ladderBlocks(ladderBlocks(lanes)) * kLadderBlock;
}

}  // namespace

BatchedForward::BatchedForward(Precision precision, const SpecBackend* backend)
    : precision_(precision),
      backend_(backend != nullptr ? backend : &dispatchedSpecBackend()) {}

void BatchedForward::reset(const Chain& chain, std::size_t lanes) {
  dof_ = chain.dof();
  lanes_ = lanes;
  // Pad the lane stride to the backend's vector width so every row of
  // every SoA array starts a whole register (the storage itself is
  // 64-byte aligned).  Padding lanes are never computed or read.
  const std::size_t mult = std::max<std::size_t>(backend_->laneMultiple(), 1);
  stride_ = ((lanes + mult - 1) / mult) * mult;
  max_walk_slice_lanes_ = 0;
  errors_.resize(stride_);
  alpha_.resize(std::max(stride_, kLadderBlock));
  theta_.resize(dof_);
  dtheta_.resize(dof_);
  qmin_.resize(dof_);
  qmax_.resize(dof_);
  if (precision_ == Precision::kF64) {
    pos_.resize(3 * stride_);
    ladder_step_.resize(ladderStepCount(stride_));
    // Lanes of block 0 need no tables, so ranges within it (K <= 8)
    // keep none.
    factor_stride_ =
        stride_ > kLadderBlock ? kLadderBlock + ladderBlocks(stride_) : 0;
    fc_.resize(dof_ * factor_stride_);
    fs_.resize(dof_ * factor_stride_);
    joint_trig_.resize(dof_);
  } else {
    acc_f_.resize(lanes, mult);
    q_f_.resize(stride_);
    ctf_.resize(stride_);
    stf_.resize(stride_);
    trig_f_.resize(4 * dof_);
    // Same expressions as the f32 scalar walk: trig of the
    // float-narrowed angle, evaluated in float.
    for (std::size_t i = 0; i < dof_; ++i) {
      const DhParam& p = chain.joint(i).dh;
      trig_f_[4 * i + 0] = std::cos(static_cast<float>(p.alpha));
      trig_f_[4 * i + 1] = std::sin(static_cast<float>(p.alpha));
      trig_f_[4 * i + 2] = std::cos(static_cast<float>(p.theta));
      trig_f_[4 * i + 3] = std::sin(static_cast<float>(p.theta));
    }
  }
}

void BatchedForward::keepCandidateInputs(const Chain& chain,
                                         const linalg::VecX& theta,
                                         const linalg::VecX& dtheta,
                                         bool clamp_to_limits) {
  assert(chain.dof() == dof_ && "call reset() for this chain first");
  chain.requireSize(theta);
  chain.requireSize(dtheta);
  clamp_ = clamp_to_limits;
  for (std::size_t i = 0; i < dof_; ++i) {
    theta_[i] = theta[i];
    dtheta_[i] = dtheta[i];
    if (clamp_to_limits) {
      qmin_[i] = chain.joint(i).min;
      qmax_[i] = chain.joint(i).max;
    }
  }
}

void BatchedForward::slicedWalk(const Chain& chain, const double* ladder_step,
                                const linalg::Vec3& target, bool walk,
                                std::size_t lo, std::size_t hi) {
  SpecLaneBlock block;
  block.trig = chain.dhTrig();
  block.alpha = alpha_.data();
  block.ladder_step = ladder_step;
  block.fc = fc_.data();
  block.fs = fs_.data();
  block.factor_stride = factor_stride_;
  block.joint_trig = joint_trig_.data();
  block.pos = pos_.data();
  block.errors = errors_.data();
  block.stride = stride_;

  // Lanes are independent, so any split produces identical results.
  for (std::size_t s = lo; s < hi; s += kMaxWalkSliceLanes) {
    const std::size_t e = std::min(hi, s + kMaxWalkSliceLanes);
    max_walk_slice_lanes_ = std::max(max_walk_slice_lanes_, e - s);
    if (precision_ == Precision::kF64) {
      backend_->prepass(chain, block, theta_, dtheta_, clamp_, s, e);
      if (walk)
        backend_->walk(chain, block, theta_, dtheta_, target, clamp_, s, e);
    } else {
      detail::walkLanesF32(chain, acc_f_, ctf_.data(), stf_.data(),
                           q_f_.data(), trig_f_.data(), theta_, dtheta_,
                           alpha_.data(), clamp_, s, e);
      detail::reduceErrorsF32(acc_f_.row(0, 3), acc_f_.row(1, 3),
                              acc_f_.row(2, 3), errors_.data(), target, s, e);
    }
  }
}

void BatchedForward::evaluateLanes(const Chain& chain,
                                   const linalg::VecX& theta,
                                   const linalg::VecX& dtheta,
                                   const double* alpha,
                                   const linalg::Vec3& target,
                                   bool clamp_to_limits,
                                   std::size_t lane_begin,
                                   std::size_t lane_end) {
  assert(lane_end <= lanes_ && lane_begin <= lane_end);
  keepCandidateInputs(chain, theta, dtheta, clamp_to_limits);
  std::copy(alpha + lane_begin, alpha + lane_end, alpha_.begin() + lane_begin);
  slicedWalk(chain, nullptr, target, true, lane_begin, lane_end);
}

const double* BatchedForward::formLadder(double alpha_base,
                                         std::size_t speculations,
                                         std::size_t lane_begin,
                                         std::size_t lane_end) {
  assert(lane_end <= lanes_ && lane_begin <= lane_end);
  assert(speculations >= 1);
  // Eq. 9, in the solvers' expression.  The ladder's base factors read
  // the first block's alphas whatever the lane range.
  const auto max_spec = static_cast<double>(speculations);
  const auto ladderAlpha = [&](std::size_t k) {
    alpha_[k] = (static_cast<double>(k + 1) / max_spec) * alpha_base;
  };
  for (std::size_t k = 0; k < kLadderBlock; ++k) ladderAlpha(k);
  for (std::size_t k = std::max(lane_begin, kLadderBlock); k < lane_end; ++k)
    ladderAlpha(k);
  if (precision_ != Precision::kF64) return nullptr;
  for (std::size_t j = 0; j < ladderStepCount(lane_end); ++j)
    ladder_step_[j] =
        (static_cast<double>(j * kLadderBlock) / max_spec) * alpha_base;
  return ladder_step_.data();
}

void BatchedForward::evaluateLadder(const Chain& chain,
                                    const linalg::VecX& theta,
                                    const linalg::VecX& dtheta,
                                    double alpha_base,
                                    std::size_t speculations,
                                    const linalg::Vec3& target,
                                    bool clamp_to_limits,
                                    std::size_t lane_begin,
                                    std::size_t lane_end) {
  keepCandidateInputs(chain, theta, dtheta, clamp_to_limits);
  const double* step =
      formLadder(alpha_base, speculations, lane_begin, lane_end);
  slicedWalk(chain, step, target, true, lane_begin, lane_end);
}

void BatchedForward::prepassLadder(const Chain& chain,
                                   const linalg::VecX& theta,
                                   const linalg::VecX& dtheta,
                                   double alpha_base,
                                   std::size_t speculations,
                                   bool clamp_to_limits,
                                   std::size_t lane_begin,
                                   std::size_t lane_end) {
  assert(precision_ == Precision::kF64);
  keepCandidateInputs(chain, theta, dtheta, clamp_to_limits);
  const double* step =
      formLadder(alpha_base, speculations, lane_begin, lane_end);
  slicedWalk(chain, step, {}, false, lane_begin, lane_end);
}

void BatchedForward::evaluateGrouped(const Chain& chain,
                                     const LaneGroup* groups,
                                     std::size_t group_count,
                                     const double* alpha,
                                     bool clamp_to_limits) {
  for (std::size_t g = 0; g < group_count; ++g)
    evaluateLanes(chain, *groups[g].theta, *groups[g].dtheta, alpha,
                  groups[g].target, clamp_to_limits, groups[g].lane_begin,
                  groups[g].lane_end);
}

bool BatchedForward::laneTrigAt(std::size_t joint) const {
  const JointTrig form = joint_trig_.at(joint);
  return form == JointTrig::kLadderFixup || form == JointTrig::kLanes;
}

linalg::Vec3 BatchedForward::position(std::size_t k) const {
  if (precision_ == Precision::kF32) return acc_f_.position(k);
  return {pos_[k], pos_[stride_ + k], pos_[2 * stride_ + k]};
}

void BatchedForward::candidateInto(std::size_t k, linalg::VecX& out) const {
  if (out.size() != dof_) out.resize(dof_);
  // The walks' own candidate expression: mul first, then add, then the
  // clamp's if-chain.
  const double alpha = alpha_[k];
  for (std::size_t i = 0; i < dof_; ++i) {
    const double q = theta_[i] + alpha * dtheta_[i];
    out[i] = clamp_ ? detail::clampCandidate(q, qmin_[i], qmax_[i]) : q;
  }
}

}  // namespace dadu::kin
