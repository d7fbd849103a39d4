// Structure-of-arrays batch of 3x4 affine transforms, in float: the
// accumulator of the FP32-FKU model (kin::BatchedForward's kF32 walk).
//
// The f32 speculation sweep advances K end-effector transforms in
// lock-step down the chain — one per candidate step size — reproducing
// endEffectorPositionF32 term for term.  The last row of each 4x4
// ([0 0 0 1] for every rigid transform) need not be stored or
// computed, so a 3x4 affine accumulator does the same job with ~25%
// fewer multiply-adds per joint (36+27 vs 64+48).  The f64 walk needs
// no transforms at all: it carries three position rows from the tip to
// the base (see kinematics/backends/walk_ref.hpp).
//
// Layout: 12 rows (the 3x4 entries in row-major order), each a
// contiguous array of K lanes — the batch index is innermost.  The
// per-joint update then reads and writes unit-stride lane vectors,
// which is the memory shape auto-vectorizers want and the software
// mirror of the paper's FKU array, where K speculative FK chains
// advance one joint per wave in parallel silicon lanes.
//
// The storage is 64-byte aligned and the lane stride can be padded to
// a preferred lane multiple (resize(lanes, lane_multiple)), so every
// row starts a whole cache line.  Padding lanes are never initialised
// or read.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "dadu/linalg/mat4.hpp"
#include "dadu/linalg/vec.hpp"

namespace dadu::linalg {

namespace detail {

/// Minimal 64-byte-aligning allocator for the SoA lane storage.
template <typename T>
struct LaneAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  LaneAllocator() = default;
  template <typename U>
  LaneAllocator(const LaneAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  template <typename U>
  bool operator==(const LaneAllocator<U>&) const {
    return true;
  }
};

}  // namespace detail

/// SoA batch of 3x4 affine transforms in float.
class Mat34BatchF {
 public:
  Mat34BatchF() = default;

  std::size_t lanes() const { return lanes_; }
  /// Lane stride of each row: lanes() rounded up to the padding
  /// multiple resize() was given.  Lanes [lanes(), stride()) are
  /// uninitialised padding.
  std::size_t stride() const { return stride_; }

  /// Size to `lanes` transforms, padding each row's stride up to a
  /// multiple of `lane_multiple` so row starts stay 64-byte aligned.
  /// Entries are left uninitialised; call setLanes() before use.
  void resize(std::size_t lanes, std::size_t lane_multiple = 1) {
    lanes_ = lanes;
    if (lane_multiple < 1) lane_multiple = 1;
    stride_ = ((lanes + lane_multiple - 1) / lane_multiple) * lane_multiple;
    data_.resize(12 * stride_);
  }

  /// Lane array of entry (r, c), r in [0,3), c in [0,4).
  float* row(std::size_t r, std::size_t c) {
    return data_.data() + (r * 4 + c) * stride_;
  }
  const float* row(std::size_t r, std::size_t c) const {
    return data_.data() + (r * 4 + c) * stride_;
  }

  /// Broadcast the affine part of `t` into lanes [lane_begin,
  /// lane_end) — how each walk seeds its lanes with the chain base
  /// before walking the joints.
  void setLanes(const Mat4& t, std::size_t lane_begin, std::size_t lane_end) {
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 4; ++c) {
        float* lane = row(r, c);
        const float v = static_cast<float>(t(r, c));
        for (std::size_t k = lane_begin; k < lane_end; ++k) lane[k] = v;
      }
  }

  /// Position column of lane k, widened to double.
  Vec3 position(std::size_t k) const {
    return {static_cast<double>(row(0, 3)[k]),
            static_cast<double>(row(1, 3)[k]),
            static_cast<double>(row(2, 3)[k])};
  }

 private:
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;
  std::vector<float, detail::LaneAllocator<float>> data_;
};

}  // namespace dadu::linalg
