#ifndef GEF_GAM_GAM_H_
#define GEF_GAM_GAM_H_

// The Generalized Additive Model Γ = α + Σ s_j(x_j) + Σ s_jk(x_j, x_k)
// (paper Sec. 3.1/3.5). Fitting minimizes the penalized least-squares
// objective J via PIRLS; the shared smoothing parameter λ (the paper sets
// λ_1 = … = λ_{p+q}) is selected by Generalized Cross Validation inside
// every PIRLS step (performance iteration, Gu 1992; Wood 2004). The
// identity link is the one-step case of the same loop.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "gam/design.h"
#include "gam/link.h"
#include "gam/terms.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace gef {

class Gam;
struct FitWorkspace;
/// Defined in gam/gam_io.h; declared here for the friendships below.
StatusOr<Gam> GamFromString(const std::string& text);
std::string GamToString(const Gam& gam);
/// Defined in util/validate.h; inspects the fitted internals.
Status ValidateGam(const Gam& gam);

struct GamConfig {
  LinkType link = LinkType::kIdentity;
  /// Candidate shared smoothing parameters; GCV picks one.
  std::vector<double> lambda_grid = {1e-3, 1e-2, 1e-1, 1.0,
                                     1e1,  1e2,  1e3};
  /// Cap on PIRLS iterations per fit (logit link); at least 1. The fit
  /// stops earlier once the binomial deviance is flat.
  int max_pirls_iters = 30;

  /// Extension beyond the paper (which fixes λ_1 = … = λ_{p+q}):
  /// after the shared-λ GCV search, refine a *per-term* λ vector by
  /// coordinate descent on GCV, scaling each term's λ by 0.1 and 10 in
  /// turn, `per_term_rounds` times.
  bool per_term_lambda = false;
  int per_term_rounds = 2;
};

/// A fitted GAM.
class Gam {
 public:
  Gam() = default;

  Gam(const Gam&) = delete;
  Gam& operator=(const Gam&) = delete;
  Gam(Gam&&) = default;
  Gam& operator=(Gam&&) = default;

  /// Fits the model on `data` (features + targets) with the given term
  /// list (ownership transferred). Fatal on dimension errors; returns
  /// false only if, at some PIRLS step, every λ in the grid yields a
  /// singular system.
  bool Fit(TermList terms, const Dataset& data, const GamConfig& config);

  bool fitted() const { return fitted_; }

  /// Linear predictor η(x) = α + Σ term contributions.
  double PredictRaw(const std::vector<double>& features) const;

  /// Response-scale prediction μ(x) = l⁻¹(η(x)).
  double Predict(const std::vector<double>& features) const;

  std::vector<double> PredictBatch(const Dataset& data) const;

  size_t num_terms() const { return terms_.size(); }
  const Term& term(size_t t) const { return *terms_[t]; }

  /// Centered contribution of term `t` to η(x); contributions plus the
  /// intercept reconstruct PredictRaw exactly.
  double TermContribution(size_t t, const std::vector<double>& features)
      const;

  /// Contribution with the 95% credible interval.
  EffectInterval TermEffect(size_t t, const std::vector<double>& features,
                            double z = 1.959964) const;

  /// Fitted intercept α (includes the absorbed centering shift).
  double intercept() const;

  /// Empirical importance of each term: standard deviation of its
  /// contribution across the training data. Used to order the spline
  /// plots like Fig 4 ("sorted by their computed importance").
  const std::vector<double>& term_importances() const {
    return term_importances_;
  }

  double gcv_score() const { return gcv_score_; }
  /// The shared smoothing level selected by GCV (the paper's setting).
  double lambda() const { return lambda_; }
  /// Per-term smoothing levels; equal to lambda() unless
  /// GamConfig::per_term_lambda refined them. Indexed by term (the
  /// intercept's entry is unused).
  const std::vector<double>& term_lambdas() const { return lambdas_; }
  double edof() const { return edof_; }
  /// Dispersion φ: RSS/(n − edof) for the identity link, 1 for logit.
  double scale() const { return scale_; }
  const Vector& coefficients() const { return beta_; }

  /// Label of term `t` using the fitted feature names.
  std::string TermLabel(size_t t) const;

  /// FNV-1a 64 over the canonical serialized bytes (GamToString); the
  /// shippable-surrogate identity used by the serving layer. Defined in
  /// gam/gam_io.cc next to the format it hashes.
  uint64_t ContentHash() const;

  /// Names of the features the model was fitted on (for labels).
  void set_feature_names(std::vector<std::string> names) {
    feature_names_ = std::move(names);
  }

 private:
  // (De)serialization reads/reconstructs the fitted state directly.
  friend StatusOr<Gam> GamFromString(const std::string& text);
  friend std::string GamToString(const Gam& gam);
  // The model validator checks centers_/covariance_ invariants.
  friend Status ValidateGam(const Gam& gam);

  struct FitCandidate {
    Vector beta;
    /// Cholesky factor of the winning penalized system. The covariance
    /// (its inverse) is materialized once for the final winner only —
    /// never on the GCV grid, where EDoF comes from triangular solves.
    std::optional<Cholesky> factor;
    double gcv = 0.0;
    double edof = 0.0;
    /// Weighted residual sum of squares Σwᵢ(zᵢ − η̂ᵢ)² of the working
    /// model (the plain RSS for the identity link).
    double rss = 0.0;
    bool ok = false;
  };

  // One penalized least-squares fit of a PIRLS step's working model —
  // response z, weights w (empty: unit weights), and its centered Gram
  // and RHS, built once per step — at the per-term λ vector `lambdas`,
  // scored by GCV n·Σwᵢ(zᵢ − η̂ᵢ)²/(n − edof)². Every candidate of the
  // step shares the λ-independent workspace.
  FitCandidate FitWorkingModel(FitWorkspace* ws, const Matrix& gram,
                               const Vector& rhs, const Vector& z,
                               const Vector& w,
                               const std::vector<double>& lambdas) const;

  /// Recomputes min_row_width_ from terms_. Every site that assembles
  /// fitted state (Fit, GamFromString) calls this right before flipping
  /// fitted_.
  void SetMinRowWidth();

  bool fitted_ = false;
  /// 1 + max feature index referenced by any term; rows passed to the
  /// vector Predict*/TermContribution overloads must be at least this
  /// wide (checked in all builds — a short row would read out of
  /// bounds inside every basis evaluation).
  size_t min_row_width_ = 0;
  TermList terms_;
  DesignLayout layout_;
  std::vector<double> centers_;
  Vector beta_;
  Matrix covariance_;  // scaled posterior covariance φ (XᵀWX + λS)⁻¹
  LinkType link_ = LinkType::kIdentity;
  double lambda_ = 0.0;
  std::vector<double> lambdas_;  // per term
  double gcv_score_ = 0.0;
  double edof_ = 0.0;
  double scale_ = 1.0;
  std::vector<double> term_importances_;
  std::vector<std::string> feature_names_;
};

}  // namespace gef

#endif  // GEF_GAM_GAM_H_
