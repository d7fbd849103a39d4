// The scalar reference backend: walk_wide.hpp's two-phase walk over
// ScalarLane, one lane per "vector".  Compiled at -O3 with baseline ISA
// flags; this is the parity reference and the perf baseline every wide
// backend must beat.  specSinCos, the walk's own sin/cos, is defined
// here too, so it compiles with the kernel flags.
#include "dadu/kinematics/backends/spec_backend.hpp"

#include "dadu/kinematics/backends/walk_ref.hpp"
#include "dadu/kinematics/backends/walk_wide.hpp"

namespace dadu::kin {
namespace {

class ScalarSpecBackend final : public SpecBackend {
 public:
  const char* name() const override { return "scalar"; }

  std::size_t laneMultiple() const override { return 1; }

  void prepass(const Chain& chain, const SpecLaneBlock& ws,
               const linalg::VecX& theta, const linalg::VecX& dtheta,
               bool clamp_to_limits, std::size_t lo,
               std::size_t hi) const override {
    detail::prepassWide<detail::ScalarLane>(chain, ws, theta, dtheta,
                                            clamp_to_limits, lo, hi);
  }

  void walk(const Chain& chain, const SpecLaneBlock& ws,
            const linalg::VecX& theta, const linalg::VecX& dtheta,
            const linalg::Vec3& target, bool clamp_to_limits, std::size_t lo,
            std::size_t hi) const override {
    detail::walkLanesWide<detail::ScalarLane, detail::kScalarGroupLanes>(
        chain, ws, theta, dtheta, target, clamp_to_limits, lo, hi);
  }

  void sinCos(const double* x, double* s, double* c,
              std::size_t n) const override {
    specSinCos(x, s, c, n);
  }
};

}  // namespace

const SpecBackend& scalarSpecBackend() {
  static const ScalarSpecBackend backend;
  return backend;
}

void specSinCos(const double* x, double* s, double* c, std::size_t n) {
  detail::sinCosWide<detail::ScalarLane>(x, s, c, n);
}

}  // namespace dadu::kin
