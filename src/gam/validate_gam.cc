#include "util/validate.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "util/validate_internal.h"

#include "gam/bspline.h"
#include "gam/gam.h"
#include "gam/terms.h"
#include "linalg/matrix.h"

namespace gef {
namespace {

using validate_internal::Finite;
using validate_internal::FirstNonFinite;
using validate_internal::Invalid;

// Symmetry within an absolute-plus-relative tolerance.
bool IsSymmetric(const Matrix& a, double tol) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = i + 1; j < a.cols(); ++j) {
      double diff = std::fabs(a(i, j) - a(j, i));
      double scale =
          std::max(1.0, std::max(std::fabs(a(i, j)), std::fabs(a(j, i))));
      if (!(diff <= tol * scale)) return false;
    }
  }
  return true;
}

// PSD within tolerance: a plain Cholesky of A + tol*I must succeed. A PSD
// matrix (difference penalties are rank-deficient by design) shifted by
// tol*I is positive definite; a matrix with an eigenvalue below -tol
// still produces a non-positive pivot. No growing jitter here — the
// fitter's jitter fallback would happily "fix" an indefinite matrix,
// which is exactly what validation must not do.
bool IsPsd(const Matrix& a, double rel_tol) {
  const size_t n = a.rows();
  double max_diag = 1.0;
  for (size_t i = 0; i < n; ++i) {
    max_diag = std::max(max_diag, std::fabs(a(i, i)));
  }
  const double shift = rel_tol * max_diag;
  Matrix work = a;
  for (size_t i = 0; i < n; ++i) work(i, i) += shift;
  for (size_t j = 0; j < n; ++j) {
    double diag = work(j, j);
    for (size_t k = 0; k < j; ++k) diag -= work(j, k) * work(j, k);
    if (!(diag > 0.0) || !Finite(diag)) return false;
    double ljj = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double sum = work(i, j);
      for (size_t k = 0; k < j; ++k) sum -= work(i, k) * work(j, k);
      work(i, j) = sum / ljj;
    }
  }
  return true;
}

Status ValidateMatrixFinite(const Matrix& m, const char* what) {
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (!Finite(m(i, j))) {
        std::ostringstream msg;
        msg << what << " entry (" << i << ", " << j
            << ") is not finite: " << m(i, j);
        return Invalid(msg);
      }
    }
  }
  return Status::Ok();
}

Status ValidateKnots(const std::vector<double>& knots, const char* what,
                     size_t term_index) {
  for (size_t k = 0; k < knots.size(); ++k) {
    if (!Finite(knots[k])) {
      std::ostringstream msg;
      msg << "term " << term_index << ": " << what << " knot " << k
          << " is not finite";
      return Invalid(msg);
    }
    if (k > 0 && knots[k] < knots[k - 1]) {
      std::ostringstream msg;
      msg << "term " << term_index << ": " << what << " knots decrease at "
          << k << " (" << knots[k - 1] << " -> " << knots[k] << ")";
      return Invalid(msg);
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateGam(const Gam& gam) {
  if (!gam.fitted()) {
    return Status::InvalidArgument("GAM is not fitted");
  }
  if (gam.num_terms() == 0) {
    return Status::InvalidArgument("GAM has no terms");
  }

  // Term-level structure: coefficient block widths, knots, penalties.
  size_t total_coeffs = 0;
  for (size_t t = 0; t < gam.num_terms(); ++t) {
    const Term& term = gam.term(t);
    const int width = term.num_coeffs();
    if (width <= 0) {
      std::ostringstream msg;
      msg << "term " << t << ": non-positive coefficient width " << width;
      return Invalid(msg);
    }
    total_coeffs += static_cast<size_t>(width);
    for (int feature : term.Features()) {
      if (feature < 0) {
        std::ostringstream msg;
        msg << "term " << t << ": negative feature index " << feature;
        return Invalid(msg);
      }
    }
    switch (term.type()) {
      case TermType::kSpline: {
        const auto& spline = static_cast<const SplineTerm&>(term);
        if (Status s = ValidateKnots(spline.basis().knots(), "spline", t);
            !s.ok()) {
          return s;
        }
        break;
      }
      case TermType::kTensor: {
        const auto& tensor = static_cast<const TensorTerm&>(term);
        if (Status s =
                ValidateKnots(tensor.basis_a().knots(), "tensor-a", t);
            !s.ok()) {
          return s;
        }
        if (Status s =
                ValidateKnots(tensor.basis_b().knots(), "tensor-b", t);
            !s.ok()) {
          return s;
        }
        break;
      }
      case TermType::kFactor: {
        const auto& factor = static_cast<const FactorTerm&>(term);
        if (FirstNonFinite(factor.levels()) >= 0) {
          std::ostringstream msg;
          msg << "term " << t << ": factor level is not finite";
          return Invalid(msg);
        }
        break;
      }
      case TermType::kIntercept:
        break;
    }
    Matrix penalty = term.Penalty();
    if (penalty.rows() != static_cast<size_t>(width) ||
        penalty.cols() != static_cast<size_t>(width)) {
      std::ostringstream msg;
      msg << "term " << t << ": penalty is " << penalty.rows() << "x"
          << penalty.cols() << ", expected " << width << "x" << width;
      return Invalid(msg);
    }
    if (Status s = ValidateMatrixFinite(penalty, "penalty"); !s.ok()) {
      std::ostringstream msg;
      msg << "term " << t << ": " << s.message();
      return Invalid(msg);
    }
    if (!IsSymmetric(penalty, 1e-9)) {
      std::ostringstream msg;
      msg << "term " << t << ": penalty matrix is not symmetric";
      return Invalid(msg);
    }
    if (!IsPsd(penalty, 1e-8)) {
      std::ostringstream msg;
      msg << "term " << t
          << ": penalty matrix is not positive semi-definite";
      return Invalid(msg);
    }
  }

  // Fitted-state vectors: lengths and finiteness.
  if (gam.coefficients().size() != total_coeffs) {
    std::ostringstream msg;
    msg << "coefficient vector has " << gam.coefficients().size()
        << " entries, term layout needs " << total_coeffs;
    return Invalid(msg);
  }
  if (long long i = FirstNonFinite(gam.coefficients()); i >= 0) {
    std::ostringstream msg;
    msg << "coefficient " << i << " is not finite";
    return Invalid(msg);
  }
  if (gam.centers_.size() != total_coeffs) {
    std::ostringstream msg;
    msg << "centering vector has " << gam.centers_.size()
        << " entries, term layout needs " << total_coeffs;
    return Invalid(msg);
  }
  if (long long i = FirstNonFinite(gam.centers_); i >= 0) {
    std::ostringstream msg;
    msg << "centering shift " << i << " is not finite";
    return Invalid(msg);
  }
  if (gam.term_lambdas().size() != gam.num_terms()) {
    std::ostringstream msg;
    msg << "per-term lambda vector has " << gam.term_lambdas().size()
        << " entries, expected " << gam.num_terms();
    return Invalid(msg);
  }
  for (size_t t = 0; t < gam.term_lambdas().size(); ++t) {
    double lambda = gam.term_lambdas()[t];
    if (!Finite(lambda) || lambda < 0.0) {
      std::ostringstream msg;
      msg << "term " << t << ": smoothing level " << lambda
          << " is negative or not finite";
      return Invalid(msg);
    }
  }
  if (gam.term_importances().size() != gam.num_terms()) {
    std::ostringstream msg;
    msg << "importance vector has " << gam.term_importances().size()
        << " entries, expected " << gam.num_terms();
    return Invalid(msg);
  }
  if (long long i = FirstNonFinite(gam.term_importances()); i >= 0) {
    std::ostringstream msg;
    msg << "term importance " << i << " is not finite";
    return Invalid(msg);
  }
  if (!Finite(gam.lambda()) || gam.lambda() < 0.0) {
    std::ostringstream msg;
    msg << "shared lambda " << gam.lambda()
        << " is negative or not finite";
    return Invalid(msg);
  }
  if (!Finite(gam.edof()) || !Finite(gam.gcv_score()) ||
      !Finite(gam.scale())) {
    return Status::InvalidArgument(
        "edof/gcv/scale summary statistics must be finite");
  }

  // Posterior covariance: every producer sets it, and TermEffect indexes
  // it unchecked.
  const Matrix& cov = gam.covariance_;
  if (cov.rows() != total_coeffs || cov.cols() != total_coeffs) {
    std::ostringstream msg;
    msg << "covariance is " << cov.rows() << "x" << cov.cols()
        << ", term layout needs " << total_coeffs << "x" << total_coeffs;
    return Invalid(msg);
  }
  if (Status s = ValidateMatrixFinite(cov, "covariance"); !s.ok()) {
    return s;
  }
  if (!IsSymmetric(cov, 1e-6)) {
    return Status::InvalidArgument("covariance is not symmetric");
  }
  for (size_t i = 0; i < cov.rows(); ++i) {
    if (cov(i, i) < 0.0) {
      std::ostringstream msg;
      msg << "covariance diagonal entry " << i
          << " is negative: " << cov(i, i);
      return Invalid(msg);
    }
  }
  return Status::Ok();
}


}  // namespace gef
