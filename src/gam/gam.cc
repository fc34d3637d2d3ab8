#include "gam/gam.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gam/fit_workspace.h"
#include "linalg/cholesky.h"
#include "obs/obs.h"
#include "stats/descriptive.h"
#include "util/parallel.h"
#include "util/validate.h"

namespace gef {
namespace {

// PIRLS stops once the binomial deviance is flat: |dev_t − dev_{t−1}| ≤
// kPirlsTol · (|dev_t| + 0.1), R's glm.fit rule.
constexpr double kPirlsTol = 1e-8;
// Multiplicative steps the per-term coordinate descent tries on each
// term's λ.
constexpr double kPerTermFactors[] = {0.1, 10.0};

// Binomial deviance of η against y. Summed serially, so the PIRLS stopping
// test and the GCV score are the same at every thread count.
double LogitDeviance(const Vector& y, const Vector& eta) {
  double deviance = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    deviance += UnitDeviance(LinkType::kLogit, y[i],
                             LinkInverse(LinkType::kLogit, eta[i]));
  }
  return deviance;
}

// GCV score n·rss/(n − edof)², guarded against tiny-sample
// over-parameterization.
double Gcv(double n, double rss, double edof) {
  double denom = n - edof;
  if (denom < 1.0) denom = 1.0;
  return n * rss / (denom * denom);
}

}  // namespace

Gam::FitCandidate Gam::FitWorkingModel(
    FitWorkspace* ws, const Matrix& gram, const Vector& rhs,
    const Vector& z, const Vector& w,
    const std::vector<double>& lambdas) const {
  FitCandidate fit;

  // Gram and RHS are λ-independent within a step, so the whole GCV grid
  // and the coordinate descent after it reuse one build. Only the
  // penalty assembly and the factorization remain per candidate.
  const Matrix& penalized =
      AssemblePenalized(ws, gram, terms_, layout_, lambdas);
  fit.factor = Cholesky::Factorize(penalized);
  if (!fit.factor.has_value()) return fit;

  fit.beta = fit.factor->Solve(rhs);
  // EDoF via triangular solves against the factor; the O(p³) inverse is
  // deferred to the single winning candidate.
  fit.edof = fit.factor->TraceOfProductSolve(gram);

  Vector fitted = CenteredMatVec(*ws, fit.beta);
  for (size_t i = 0; i < z.size(); ++i) {
    double r = z[i] - fitted[i];
    fit.rss += w.empty() ? r * r : w[i] * r * r;
  }
  fit.gcv = Gcv(static_cast<double>(z.size()), fit.rss, fit.edof);
  fit.ok = true;
  return fit;
}

bool Gam::Fit(TermList terms, const Dataset& data, const GamConfig& config) {
  GEF_OBS_SPAN("gam.fit");
  GEF_CHECK(!terms.empty());
  GEF_CHECK(data.has_targets());
  GEF_CHECK_GT(data.num_rows(), 0u);
  GEF_CHECK(!config.lambda_grid.empty());
  for (double lambda : config.lambda_grid) GEF_CHECK_GT(lambda, 0.0);
  GEF_CHECK_GE(config.max_pirls_iters, 1);

  terms_ = std::move(terms);
  link_ = config.link;
  layout_ = ComputeLayout(terms_);
  GEF_CHECK_MSG(static_cast<size_t>(layout_.total_cols) <= data.num_rows(),
                "more GAM coefficients (" << layout_.total_cols
                                          << ") than training rows ("
                                          << data.num_rows() << ")");
  feature_names_ = data.feature_names();

  // Everything λ- and weight-independent — block-sparse design, centers,
  // penalty blocks, fixed ridge, scratch — is built once per Fit.
  FitWorkspace ws = BuildFitWorkspace(terms_, data, layout_);
  centers_ = ws.centers;

  const Vector& y = data.targets();
  const size_t n = y.size();
  const bool logit = link_ == LinkType::kLogit;

  // PIRLS by performance iteration: each step linearizes the model at η
  // into a working response z with weights w, builds one centered Gram
  // and RHS, and runs the whole GCV search on that working linear model.
  // The identity link needs one step, with unit weights and z = y.
  Vector eta, weights, working;
  double deviance = 0.0;
  if (logit) {
    eta.resize(n);
    weights.resize(n);
    working.resize(n);
    for (size_t i = 0; i < n; ++i) {
      double mu0 = std::clamp((y[i] + 0.5) / 2.0, 0.01, 0.99);
      eta[i] = LinkApply(LinkType::kLogit, mu0);
    }
    deviance = LogitDeviance(y, eta);
  }
  const Vector& z = logit ? working : y;

  FitCandidate best;
  double best_lambda = 0.0;
  std::vector<double> lambdas;
  for (int step = 1;; ++step) {
    if (logit) {
      for (size_t i = 0; i < n; ++i) {
        double mu = LinkInverse(LinkType::kLogit, eta[i]);
        weights[i] = std::max(LinkVariance(LinkType::kLogit, mu), 1e-10);
        working[i] = eta[i] + (y[i] - mu) / weights[i];
      }
    }
    const Matrix gram = CenteredGramWeighted(ws, weights);
    const Vector rhs = CenteredGramWeightedRhs(ws, weights, z);
    auto fit_with = [&](const std::vector<double>& trial) {
      return FitWorkingModel(&ws, gram, rhs, z, weights, trial);
    };

    // Stage 1: the paper's shared-λ GCV grid search.
    best = FitCandidate();
    double best_gcv = std::numeric_limits<double>::infinity();
    for (double lambda : config.lambda_grid) {
      FitCandidate candidate =
          fit_with(std::vector<double>(terms_.size(), lambda));
      if (!candidate.ok) continue;
      GEF_OBS_METRIC("gam.gcv_trace", lambda, candidate.gcv);
      if (candidate.gcv < best_gcv) {
        best_gcv = candidate.gcv;
        best_lambda = lambda;
        best = std::move(candidate);
      }
    }
    if (!best.ok) return false;
    lambdas.assign(terms_.size(), best_lambda);

    // Stage 2 (extension): per-term coordinate descent on GCV.
    if (config.per_term_lambda) {
      for (int round = 0; round < config.per_term_rounds; ++round) {
        bool improved = false;
        for (size_t t = 0; t < terms_.size(); ++t) {
          if (terms_[t]->type() == TermType::kIntercept) continue;
          for (double factor : kPerTermFactors) {
            std::vector<double> trial = lambdas;
            trial[t] = lambdas[t] * factor;
            FitCandidate candidate = fit_with(trial);
            if (candidate.ok && candidate.gcv < best_gcv - 1e-12) {
              best_gcv = candidate.gcv;
              best = std::move(candidate);
              lambdas = trial;
              improved = true;
            }
          }
        }
        if (!improved) break;
      }
    }

    if (!logit) break;
    // Stop once the deviance is flat (R's glm.fit rule). Successive β
    // are no test: each term's constant direction is null in both the
    // centered design and the penalty, so only the factorization jitter
    // pins it, and β drifts along it without moving η.
    eta = CenteredMatVec(ws, best.beta);
    const double previous = deviance;
    deviance = LogitDeviance(y, eta);
    if (std::fabs(deviance - previous) <=
        kPirlsTol * (std::fabs(deviance) + 0.1)) {
      break;
    }
    if (step == config.max_pirls_iters) {
      GEF_OBS_COUNTER_ADD("gam.pirls_capped", 1);
      break;
    }
  }

  beta_ = std::move(best.beta);
  lambda_ = best_lambda;
  lambdas_ = std::move(lambdas);
  edof_ = best.edof;
  // The logit GCV is the deviance GCV of the final η, with φ = 1.
  const double dn = static_cast<double>(n);
  gcv_score_ = logit ? Gcv(dn, deviance, best.edof) : best.gcv;
  scale_ = logit ? 1.0 : best.rss / std::max(1.0, dn - best.edof);
  // The covariance (posterior shape) is the one place the inverse is
  // still needed — materialized once for the winner, never per candidate.
  covariance_ = best.factor->Inverse();
  covariance_.Scale(scale_);
  SetMinRowWidth();
  fitted_ = true;

  // Empirical term importances: SD of each component over the fit data,
  // read off the already-built sparse design instead of re-evaluating
  // every term on every row.
  term_importances_.assign(terms_.size(), 0.0);
  for (size_t t = 0; t < terms_.size(); ++t) {
    if (terms_[t]->type() == TermType::kIntercept) continue;
    const int offset = layout_.term_offsets[t];
    const int width = terms_[t]->num_coeffs();
    Vector beta_block(beta_.begin() + offset,
                      beta_.begin() + offset + width);
    Vector contribution =
        MatVecSlots(ws.design.matrix, ws.design.TermSlotBegin(t),
                    ws.design.TermSlotEnd(t), offset, beta_block);
    double shift = 0.0;
    for (int j = 0; j < width; ++j) {
      shift += centers_[offset + j] * beta_block[j];
    }
    for (double& v : contribution) v -= shift;
    term_importances_[t] = StdDev(contribution);
  }
  if (ValidateAfterTraining()) {
    Status s = ValidateGam(*this);
    GEF_CHECK_MSG(s.ok(), "fitted GAM failed validation: " << s.message());
  }
  return true;
}

void Gam::SetMinRowWidth() {
  min_row_width_ = 0;
  for (const auto& term : terms_) {
    for (int f : term->Features()) {
      min_row_width_ = std::max(min_row_width_,
                                static_cast<size_t>(f) + 1);
    }
  }
}

double Gam::PredictRaw(const std::vector<double>& features) const {
  GEF_CHECK_MSG(fitted_, "Predict on an unfitted GAM");
  // Release-mode-safe contract check, matching Forest::PredictRawStaged:
  // a short row would read out of bounds in every basis evaluation.
  GEF_CHECK_GE(features.size(), min_row_width_);
  static thread_local std::vector<double> row;
  row.resize(layout_.total_cols);
  BuildDesignRow(terms_, layout_, centers_, features, row.data());
  double eta = 0.0;
  for (int j = 0; j < layout_.total_cols; ++j) eta += row[j] * beta_[j];
  return eta;
}

double Gam::Predict(const std::vector<double>& features) const {
  return LinkInverse(link_, PredictRaw(features));
}

std::vector<double> Gam::PredictBatch(const Dataset& data) const {
  std::vector<double> out(data.num_rows());
  ParallelForChunked(
      0, data.num_rows(), 128, [&](size_t chunk_begin, size_t chunk_end) {
        std::vector<double> row;
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          data.GetRowInto(i, &row);
          out[i] = Predict(row);
        }
      });
  return out;
}

double Gam::TermContribution(size_t t,
                             const std::vector<double>& features) const {
  GEF_CHECK_MSG(fitted_, "TermContribution on an unfitted GAM");
  GEF_CHECK_LT(t, terms_.size());
  GEF_CHECK_GE(features.size(), min_row_width_);
  const Term& term = *terms_[t];
  int width = term.num_coeffs();
  int offset = layout_.term_offsets[t];
  static thread_local std::vector<double> block;
  block.resize(width);
  term.Evaluate(features, block.data());
  double sum = 0.0;
  for (int j = 0; j < width; ++j) {
    sum += (block[j] - centers_[offset + j]) * beta_[offset + j];
  }
  return sum;
}

EffectInterval Gam::TermEffect(size_t t, const std::vector<double>& features,
                               double z) const {
  GEF_CHECK_MSG(fitted_, "TermEffect on an unfitted GAM");
  GEF_CHECK_LT(t, terms_.size());
  const Term& term = *terms_[t];
  int width = term.num_coeffs();
  int offset = layout_.term_offsets[t];
  std::vector<double> block(width);
  term.Evaluate(features, block.data());
  for (int j = 0; j < width; ++j) block[j] -= centers_[offset + j];

  EffectInterval effect;
  for (int j = 0; j < width; ++j) {
    effect.value += block[j] * beta_[offset + j];
  }
  // Var = bᵀ V_block b over the term's diagonal covariance block.
  double variance = 0.0;
  for (int a = 0; a < width; ++a) {
    for (int b = 0; b < width; ++b) {
      variance += block[a] * covariance_(offset + a, offset + b) * block[b];
    }
  }
  double half_width = z * std::sqrt(std::max(0.0, variance));
  effect.lower = effect.value - half_width;
  effect.upper = effect.value + half_width;
  return effect;
}

double Gam::intercept() const {
  GEF_CHECK_MSG(fitted_, "intercept on an unfitted GAM");
  // The intercept term is conventionally first, but search to be safe.
  for (size_t t = 0; t < terms_.size(); ++t) {
    if (terms_[t]->type() == TermType::kIntercept) {
      return beta_[layout_.term_offsets[t]];
    }
  }
  return 0.0;
}

std::string Gam::TermLabel(size_t t) const {
  GEF_CHECK_LT(t, terms_.size());
  return terms_[t]->Label(feature_names_);
}

}  // namespace gef
