// The scalar/autovec reference backend: the original batched SoA
// kernel behind the SpecBackend seam.  Compiled at -O3 with baseline
// ISA flags so the compiler's autovectorizer does what it did before
// the seam existed — this is the parity reference and the perf
// baseline every wide backend must beat.  specSinCos, the walk's own
// sin/cos, is defined here too, so it compiles with the kernel flags.
#include "dadu/kinematics/backends/spec_backend.hpp"

#include <cmath>

#include "dadu/kinematics/backends/walk_ref.hpp"

namespace dadu::kin {
namespace {

class ScalarSpecBackend final : public SpecBackend {
 public:
  const char* name() const override { return "scalar"; }

  std::size_t laneMultiple() const override { return 1; }

  void walkLanes(const Chain& chain, const SpecLaneBlock& ws,
                 const linalg::VecX& theta, const linalg::VecX& dtheta,
                 const double* alpha, bool clamp_to_limits, std::size_t lo,
                 std::size_t hi) const override {
    detail::walkPointLanes(chain, ws, theta, dtheta, alpha, clamp_to_limits,
                           lo, hi);
  }

  void reduceErrors(const SpecLaneBlock& ws, const linalg::Vec3& target,
                    std::size_t lo, std::size_t hi) const override {
    detail::reduceErrors<double>(ws.pos, ws.pos + ws.stride,
                                 ws.pos + 2 * ws.stride, ws.errors, target,
                                 lo, hi);
  }
};

}  // namespace

const SpecBackend& scalarSpecBackend() {
  static const ScalarSpecBackend backend;
  return backend;
}

void specSinCos(const double* x, double* s, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (detail::outsideWalkTrig(x[i])) {
      s[i] = std::sin(x[i]);
      c[i] = std::cos(x[i]);
    } else {
      detail::sinCosFast(x[i], s[i], c[i]);
    }
  }
}

}  // namespace dadu::kin
