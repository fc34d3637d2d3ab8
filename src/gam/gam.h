#ifndef GEF_GAM_GAM_H_
#define GEF_GAM_GAM_H_

// The Generalized Additive Model Γ = α + Σ s_j(x_j) + Σ s_jk(x_j, x_k)
// (paper Sec. 3.1/3.5). Fitting minimizes the penalized least-squares
// objective J via PIRLS; the shared smoothing parameter λ (the paper sets
// λ_1 = … = λ_{p+q}) is selected by Generalized Cross Validation.

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
/// Defined in gam/backfit.h.
struct BackfitConfig;
Gam FitGamByBackfitting(TermList terms, const Dataset& data,
                        const BackfitConfig& config);

struct GamConfig {
  LinkType link = LinkType::kIdentity;
  /// Candidate shared smoothing parameters; GCV picks one.
  std::vector<double> lambda_grid = {1e-3, 1e-2, 1e-1, 1.0,
                                     1e1,  1e2,  1e3};
  /// Cap on PIRLS iterations per candidate fit (logit link); at least 1.
  int max_pirls_iters = 30;
  /// Relative change of the binomial deviance between PIRLS iterations
  /// at which a candidate stops: |dev_t − dev_{t−1}| ≤ pirls_tol ·
  /// (|dev_t| + 0.1), R's glm.fit rule.
  double pirls_tol = 1e-8;

  /// Extension beyond the paper (which fixes λ_1 = … = λ_{p+q}):
  /// after the shared-λ GCV search, refine a *per-term* λ vector by
  /// coordinate descent on GCV, trying multiplicative steps from
  /// `per_term_factors` for each term in turn, `per_term_rounds` times.
  bool per_term_lambda = false;
  int per_term_rounds = 2;
  std::vector<double> per_term_factors = {0.1, 10.0};
};

/// Pointwise partial effect with its 95% Bayesian credible interval
/// (Wood 2006), as drawn in the paper's spline plots.
struct EffectInterval {
  double value = 0.0;
  double lower = 0.0;
  double upper = 0.0;
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
  /// false only if every λ in the grid yields a singular system.
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
  // The alternative fitting engine assembles the same fitted state.
  friend Gam FitGamByBackfitting(TermList terms, const Dataset& data,
                                 const BackfitConfig& config);

  struct FitCandidate {
    Vector beta;
    /// Cholesky factor of the winning penalized system. The covariance
    /// (its inverse) is materialized once for the final winner only —
    /// never on the GCV grid, where EDoF comes from triangular solves.
    std::optional<Cholesky> factor;
    /// Final linear predictor of a logit fit (empty for the identity
    /// link); the warm start of the next PIRLS candidate.
    Vector eta;
    double gcv = 0.0;
    double edof = 0.0;
    double rss = 0.0;
    bool ok = false;
  };

  // Candidate fits share the λ-independent workspace (sparse design,
  // hoisted Gram/RHS for the identity link, penalty blocks, scratch);
  // only the per-term λ vector and, for PIRLS, the starting η (empty:
  // start from y) vary between calls.
  FitCandidate FitIdentity(FitWorkspace* ws, const Matrix& gram,
                           const Vector& rhs, const Vector& y,
                           const std::vector<double>& lambdas) const;
  FitCandidate FitLogit(FitWorkspace* ws, const Vector& y,
                        const std::vector<double>& lambdas,
                        const GamConfig& config,
                        const Vector& start_eta) const;

  /// Recomputes min_row_width_ from terms_. Every site that assembles
  /// fitted state (Fit, GamFromString, FitGamByBackfitting) calls this
  /// right before flipping fitted_.
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
