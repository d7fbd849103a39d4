#include "dadu/kinematics/forward_batch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/backends/walk_ref.hpp"

namespace dadu::kin {

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
  max_walk_slice_lanes_.store(0, std::memory_order_relaxed);
  cand_.resize(dof_ * stride_);
  errors_.resize(stride_);
  if (precision_ == Precision::kF64) {
    pos_.resize(3 * stride_);
    ct_.resize(stride_);
    st_.resize(stride_);
  } else {
    acc_f_.resize(lanes, mult);
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

void BatchedForward::noteSlice(std::size_t lanes) {
  // Relaxed max-update: the seam is a diagnostic high-water mark, and
  // concurrent pool workers may race to publish their slice sizes.
  std::size_t seen = max_walk_slice_lanes_.load(std::memory_order_relaxed);
  while (lanes > seen &&
         !max_walk_slice_lanes_.compare_exchange_weak(
             seen, lanes, std::memory_order_relaxed)) {
  }
}

void BatchedForward::slicedWalk(const Chain& chain, const linalg::VecX& theta,
                                const linalg::VecX& dtheta,
                                const double* alpha,
                                const linalg::Vec3& target,
                                bool clamp_to_limits, std::size_t lo,
                                std::size_t hi) {
  SpecLaneBlock block;
  block.pos = pos_.data();
  block.cand = cand_.data();
  block.ct = ct_.data();
  block.st = st_.data();
  block.trig = chain.dhTrig();
  block.errors = errors_.data();
  block.stride = stride_;

  // Lanes are independent, so any split produces identical results.
  for (std::size_t s = lo; s < hi; s += kMaxWalkSliceLanes) {
    const std::size_t e = std::min(hi, s + kMaxWalkSliceLanes);
    noteSlice(e - s);
    if (precision_ == Precision::kF64) {
      backend_->walkLanes(chain, block, theta, dtheta, alpha,
                          clamp_to_limits, s, e);
      backend_->reduceErrors(block, target, s, e);
    } else {
      detail::walkLanesF32(chain, acc_f_, ctf_.data(), stf_.data(),
                           cand_.data(), stride_, trig_f_.data(), theta,
                           dtheta, alpha, clamp_to_limits, s, e);
      detail::reduceErrors<float>(acc_f_.row(0, 3), acc_f_.row(1, 3),
                                  acc_f_.row(2, 3), errors_.data(), target,
                                  s, e);
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
  assert(chain.dof() == dof_ && "call reset() for this chain first");
  assert(lane_end <= lanes_ && lane_begin <= lane_end);
  chain.requireSize(theta);
  chain.requireSize(dtheta);
  slicedWalk(chain, theta, dtheta, alpha, target, clamp_to_limits,
             lane_begin, lane_end);
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

linalg::Vec3 BatchedForward::position(std::size_t k) const {
  if (precision_ == Precision::kF32) return acc_f_.position(k);
  return {pos_[k], pos_[stride_ + k], pos_[2 * stride_ + k]};
}

void BatchedForward::candidateInto(std::size_t k, linalg::VecX& out) const {
  if (out.size() != dof_) out.resize(dof_);
  const double* cand = cand_.data();
  for (std::size_t i = 0; i < dof_; ++i) out[i] = cand[i * stride_ + k];
}

}  // namespace dadu::kin
