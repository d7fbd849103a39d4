// AVX-512 speculation backend: 8 f64 lanes per vector over the
// lane-innermost SoA position lanes.
//
// Compiled with -mavx512f in this translation unit only (see
// kinematics/CMakeLists.txt) and selected strictly behind a CPUID
// check, so the binary stays runnable on baseline x86-64.  The kernel
// body is the shared walk_wide.hpp template — same scalar operation
// order, mask-register blends instead of AVX2's blendv.
#include "dadu/kinematics/backends/spec_backend.hpp"

#if defined(DADU_SPEC_BACKEND_AVX512)

#include <immintrin.h>

#include "dadu/kinematics/backends/walk_wide.hpp"

namespace dadu::kin {
namespace {

/// 8-lane f64 vector ops for walk_wide.hpp.
struct V8 {
  static constexpr std::size_t width = 8;
  using reg = __m512d;
  static reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg set1(double v) { return _mm512_set1_pd(v); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  /// a * b + c and c - a * b, each rounded once.
  static reg fma(reg a, reg b, reg c) { return _mm512_fmadd_pd(a, b, c); }
  static reg fnma(reg a, reg b, reg c) { return _mm512_fnmadd_pd(a, b, c); }
  // sqrt and the shift use their all-lanes zero-masked forms: the plain
  // intrinsics pass GCC's _mm512_undefined_*() as the unused source,
  // which GCC 12 reports as -Wmaybe-uninitialized.  Same results.
  static reg sqrt(reg a) { return _mm512_maskz_sqrt_pd(0xFF, a); }
  /// q < lim ? lim : q — ordered compare; NaN lanes keep q, matching
  /// the scalar if-chain.
  static reg clampBelow(reg q, reg lim) {
    const __mmask8 m = _mm512_cmp_pd_mask(q, lim, _CMP_LT_OQ);
    return _mm512_mask_blend_pd(m, q, lim);
  }
  /// q > lim ? lim : q.
  static reg clampAbove(reg q, reg lim) {
    const __mmask8 m = _mm512_cmp_pd_mask(q, lim, _CMP_GT_OQ);
    return _mm512_mask_blend_pd(m, q, lim);
  }
  // Raw 64-bit lane ops for the trig quadrant fix-up (exact; integer
  // forms because the _pd bitwise ops need AVX512DQ).
  static reg andBits(reg a, reg b) {
    return _mm512_castsi512_pd(
        _mm512_and_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static reg xorBits(reg a, reg b) {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static reg orBits(reg a, reg b) {
    return _mm512_castsi512_pd(
        _mm512_or_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static reg shiftLeftBits(reg a, unsigned n) {
    return _mm512_castsi512_pd(
        _mm512_maskz_slli_epi64(0xFF, _mm512_castpd_si512(a), n));
  }
  /// Lanes of m with the sign bit set take b, the rest a.
  static reg selectBySign(reg m, reg a, reg b) {
    const __m512i bits = _mm512_castpd_si512(m);
    const __mmask8 neg =
        _mm512_cmplt_epi64_mask(bits, _mm512_setzero_si512());
    return _mm512_mask_blend_pd(neg, a, b);
  }
  /// True when some lane has !(|x| < lim) — NaN included.
  static bool anyAbsNotBelow(reg x, reg lim) {
    return _mm512_cmp_pd_mask(_mm512_abs_pd(x), lim, _CMP_NLT_UQ) != 0;
  }
  /// All bits set where !(a == b) (NaN included), else zero.
  static reg notEqualMask(reg a, reg b) {
    return _mm512_castsi512_pd(_mm512_maskz_set1_epi64(
        _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ), -1));
  }
  /// True when some lane of m has its sign bit set.
  static bool anySign(reg m) {
    return _mm512_cmplt_epi64_mask(_mm512_castpd_si512(m),
                                   _mm512_setzero_si512()) != 0;
  }
};

/// Lane vectors per walking group: 4 x 3 position registers stay live
/// across the chain walk, within the 32 zmm registers.
constexpr std::size_t kGroupVectors = 4;

class Avx512SpecBackend final : public SpecBackend {
 public:
  const char* name() const override { return "avx512"; }

  std::size_t laneMultiple() const override { return V8::width; }

  void prepass(const Chain& chain, const SpecLaneBlock& ws,
               const linalg::VecX& theta, const linalg::VecX& dtheta,
               bool clamp_to_limits, std::size_t lo,
               std::size_t hi) const override {
    detail::prepassWide<V8>(chain, ws, theta, dtheta, clamp_to_limits, lo, hi);
  }

  void walk(const Chain& chain, const SpecLaneBlock& ws,
            const linalg::VecX& theta, const linalg::VecX& dtheta,
            const linalg::Vec3& target, bool clamp_to_limits, std::size_t lo,
            std::size_t hi) const override {
    detail::walkLanesWide<V8, kGroupVectors>(chain, ws, theta, dtheta, target,
                                            clamp_to_limits, lo, hi);
  }

  void sinCos(const double* x, double* s, double* c,
              std::size_t n) const override {
    detail::sinCosWide<V8>(x, s, c, n);
  }
};

}  // namespace

const SpecBackend* avx512SpecBackend() {
  static const Avx512SpecBackend backend;
  return &backend;
}

}  // namespace dadu::kin

#else  // !DADU_SPEC_BACKEND_AVX512

namespace dadu::kin {
const SpecBackend* avx512SpecBackend() { return nullptr; }
}  // namespace dadu::kin

#endif
