// Partial-pivot LU factorisation for general square systems.
//
// The IK solvers themselves only ever need SPD (Cholesky) or SVD
// factorisations.  LU stays as the tests' independent reference for
// solve/determinant results (Cholesky.DeterminantMatchesLu).
#pragma once

#include <optional>
#include <vector>

#include "dadu/linalg/matx.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::linalg {

/// PA = LU with row pivoting.  Construction fails on (numerically)
/// singular input.
class Lu {
 public:
  /// Factor a square matrix; nullopt if a zero pivot column is found.
  static std::optional<Lu> factor(const MatX& a, double pivot_tol = 1e-300);

  VecX solve(const VecX& b) const;
  MatX inverse() const;
  double determinant() const;

 private:
  Lu(MatX lu, std::vector<std::size_t> perm, int sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), sign_(sign) {}
  MatX lu_;                        // packed L (unit diag, below) and U (on/above)
  std::vector<std::size_t> perm_;  // row permutation
  int sign_;                       // permutation parity for determinant
};

/// One-shot general solve; nullopt on singular A.
std::optional<VecX> luSolve(const MatX& a, const VecX& b);

}  // namespace dadu::linalg
