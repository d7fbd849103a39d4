// AVX2 speculation backend: 4 f64 lanes per vector over the
// lane-innermost SoA position lanes.
//
// This translation unit is the only place in the library compiled with
// -mavx2 (see kinematics/CMakeLists.txt); everything it exports is
// reached through the SpecBackend vtable after a CPUID check, so the
// binary as a whole stays runnable on baseline x86-64.  When the
// compiler cannot target AVX2 (or the target is not x86) the factory
// returns nullptr and the registry simply never lists the backend.
#include "dadu/kinematics/backends/spec_backend.hpp"

#if defined(DADU_SPEC_BACKEND_AVX2)

#include <immintrin.h>

#include "dadu/kinematics/backends/walk_wide.hpp"

namespace dadu::kin {
namespace {

/// 4-lane f64 vector ops for walk_wide.hpp.  Unaligned loads/stores by
/// design: lane ranges start at arbitrary offsets (group boundaries,
/// IKAcc waves) and penalty-free unaligned access is exactly what the
/// padded, 32-byte-aligned rows buy.
struct V4 {
  static constexpr std::size_t width = 4;
  using reg = __m256d;
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg set1(double v) { return _mm256_set1_pd(v); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  /// a * b + c and c - a * b, each rounded once.
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_pd(a, b, c); }
  static reg fnma(reg a, reg b, reg c) { return _mm256_fnmadd_pd(a, b, c); }
  static reg sqrt(reg a) { return _mm256_sqrt_pd(a); }
  /// q < lim ? lim : q — ordered compare, so NaN lanes keep q exactly
  /// like the scalar if-chain.
  static reg clampBelow(reg q, reg lim) {
    const reg m = _mm256_cmp_pd(q, lim, _CMP_LT_OQ);
    return _mm256_blendv_pd(q, lim, m);
  }
  /// q > lim ? lim : q.
  static reg clampAbove(reg q, reg lim) {
    const reg m = _mm256_cmp_pd(q, lim, _CMP_GT_OQ);
    return _mm256_blendv_pd(q, lim, m);
  }
  // Raw 64-bit lane ops for the trig quadrant fix-up (exact).
  static reg andBits(reg a, reg b) { return _mm256_and_pd(a, b); }
  static reg xorBits(reg a, reg b) { return _mm256_xor_pd(a, b); }
  static reg orBits(reg a, reg b) { return _mm256_or_pd(a, b); }
  static reg shiftLeftBits(reg a, int n) {
    return _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_castpd_si256(a), n));
  }
  /// Lanes of m with the sign bit set take b, the rest a.
  static reg selectBySign(reg m, reg a, reg b) {
    return _mm256_blendv_pd(a, b, m);
  }
  /// True when some lane has !(|x| < lim) — NaN included.
  static bool anyAbsNotBelow(reg x, reg lim) {
    const reg abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
    return _mm256_movemask_pd(_mm256_cmp_pd(abs, lim, _CMP_NLT_UQ)) != 0;
  }
  /// All bits set where !(a == b) (NaN included), else zero.
  static reg notEqualMask(reg a, reg b) {
    return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ);
  }
  /// True when some lane of m has its sign bit set.
  static bool anySign(reg m) { return _mm256_movemask_pd(m) != 0; }
};

/// Lane vectors per walking group: 2 x 3 position registers stay live
/// across the chain walk, within the 16 ymm registers.
constexpr std::size_t kGroupVectors = 2;

class Avx2SpecBackend final : public SpecBackend {
 public:
  const char* name() const override { return "avx2"; }

  std::size_t laneMultiple() const override { return V4::width; }

  void prepass(const Chain& chain, const SpecLaneBlock& ws,
               const linalg::VecX& theta, const linalg::VecX& dtheta,
               bool clamp_to_limits, std::size_t lo,
               std::size_t hi) const override {
    detail::prepassWide<V4>(chain, ws, theta, dtheta, clamp_to_limits, lo, hi);
  }

  void walk(const Chain& chain, const SpecLaneBlock& ws,
            const linalg::VecX& theta, const linalg::VecX& dtheta,
            const linalg::Vec3& target, bool clamp_to_limits, std::size_t lo,
            std::size_t hi) const override {
    detail::walkLanesWide<V4, kGroupVectors>(chain, ws, theta, dtheta, target,
                                            clamp_to_limits, lo, hi);
  }

  void sinCos(const double* x, double* s, double* c,
              std::size_t n) const override {
    detail::sinCosWide<V4>(x, s, c, n);
  }
};

}  // namespace

const SpecBackend* avx2SpecBackend() {
  static const Avx2SpecBackend backend;
  return &backend;
}

}  // namespace dadu::kin

#else  // !DADU_SPEC_BACKEND_AVX2

namespace dadu::kin {
const SpecBackend* avx2SpecBackend() { return nullptr; }
}  // namespace dadu::kin

#endif
