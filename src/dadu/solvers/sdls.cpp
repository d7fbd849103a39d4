#include "dadu/solvers/sdls.hpp"

#include <algorithm>
#include <cmath>

#include "dadu/linalg/svd.hpp"

namespace dadu::ik {
namespace {

// Rescale w so that max |w_j| <= d (Buss & Kim's ClampMaxAbs).
void clampMaxAbs(linalg::VecX& w, double d) {
  const double m = w.maxAbs();
  if (m > d && m > 0.0) w *= d / m;
}

}  // namespace

SolveResult SdlsSolver::solve(const linalg::Vec3& target,
                              const linalg::VecX& seed) {
  const std::size_t n = chain_.dof();
  return iterate(
      target, seed, neverStallsAtHead,
      [this, n](const JtIterationHead& head, SolveResult& result) {
        const linalg::Svd svd = linalg::svdJacobi(ws_.j);

        // Column norms rho_j = ||J_j||: end-effector speed per unit
        // motion of joint j; the scale SDLS measures joint steps against.
        linalg::VecX rho(n);
        for (std::size_t jcol = 0; jcol < n; ++jcol)
          rho[jcol] = ws_.j.col3(jcol).norm();

        linalg::VecX dtheta(n);
        bool any_direction = false;
        for (std::size_t i = 0; i < svd.s.size(); ++i) {
          const double sigma = svd.s[i];
          if (sigma <= 1e-12) continue;
          any_direction = true;

          // alpha_i = u_i . e  (residual component along this direction).
          double alpha = 0.0;
          for (std::size_t r = 0; r < 3; ++r)
            alpha += svd.u(r, i) * head.error_vec[r];

          // N_i = ||u_i|| = 1; M_i estimates the end-effector
          // displacement a unit joint-space step in direction v_i can
          // cause.
          double m_i = 0.0;
          for (std::size_t jcol = 0; jcol < n; ++jcol)
            m_i += std::abs(svd.v(jcol, i)) * rho[jcol];
          m_i /= sigma;

          const double gamma_i = gamma_max_ * std::min(1.0, 1.0 / m_i);

          // phi_i = (alpha_i / sigma_i) v_i, clamped to gamma_i.
          linalg::VecX phi(n);
          const double scale = alpha / sigma;
          for (std::size_t jcol = 0; jcol < n; ++jcol)
            phi[jcol] = scale * svd.v(jcol, i);
          clampMaxAbs(phi, gamma_i);
          dtheta += phi;
        }

        if (!any_direction) return StepOutcome::kStalled;
        clampMaxAbs(dtheta, gamma_max_);

        result.theta += dtheta;
        return moved(result);
      });
}

}  // namespace dadu::ik
