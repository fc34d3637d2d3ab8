#ifndef GEF_SURROGATE_SURROGATE_H_
#define GEF_SURROGATE_SURROGATE_H_

// The pluggable surrogate abstraction (DESIGN.md §3.19). The GEF
// pipeline (gef/explainer.cc) selects components and draws D*; what it
// fits on D* is a `Surrogate` backend chosen by stable name through
// surrogate/registry.h. The paper fixes this to one spline GAM; the
// interface below is exactly the contract the rest of the system
// (reports, local explanations, serving, the binary store, the tools,
// benches and examples) consumes, so alternative families — boosted
// low-order fANOVA models, rule lists — plug in without touching any
// consumer. No accessor leads back to a backend's concrete model: the
// layers above this one, the tools and the examples include no gam/
// header (gef_lint's gef-gam-boundary), and this header takes only
// gam/link.h.
//
// Term indexing convention shared by every backend: term 0 is the
// intercept; terms 1..U model the selected univariate components in
// selection order; terms U+1..U+P model the selected pairs. The gef
// layer records these indices in GefExplanation and every consumer
// addresses components through them, so the convention is part of the
// interface, not an implementation detail.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "gam/link.h"

namespace gef {

/// What the pipeline selected for the surrogate to model. Built by the
/// gef layer from forest structure; backends never consult the forest.
struct SurrogateSpec {
  /// F' in importance order. Term i+1 models selected_features[i].
  std::vector<int> selected_features;
  /// F''. Term 1 + selected_features.size() + j models selected_pairs[j].
  std::vector<std::pair<int, int>> selected_pairs;
  /// Parallel to selected_features: |V_i| < L, treat as categorical.
  std::vector<bool> is_categorical;
  /// Per forest feature sampling domains (not just the selected ones);
  /// non-owning, must outlive Fit. D* rows only take these values.
  const std::vector<std::vector<double>>* domains = nullptr;
  /// Response link the forest implies (logit for binary classification).
  LinkType link = LinkType::kIdentity;
};

/// Backend knobs, mirrored from GefConfig by the gef layer. One struct
/// for all backends keeps the config fingerprint (serve/surrogate_cache)
/// a pure function of GefConfig; backends read only their own fields.
struct SurrogateConfig {
  // spline_gam
  int spline_basis = 16;
  int tensor_basis = 6;
  std::vector<double> lambda_grid = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2};
  bool per_term_lambda = false;
  // boosted_fanova
  int fanova_rounds = 200;
  double fanova_shrinkage = 0.1;
  int fanova_leaves = 8;
  int fanova_max_bins = 64;

  uint64_t seed = 7;
};

/// A surrogate model family: fit on D*, additive per-component global
/// shapes, local contributions, canonical text serialization.
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Stable registry name ("spline_gam", "boosted_fanova", ...). Also
  /// the name persisted in explanation text and `.gefs` sections.
  virtual std::string backend_name() const = 0;

  virtual bool fitted() const = 0;

  /// Fits on the D* training split. Fatal on structural errors; returns
  /// false only when the fit is irreparably singular (mirrors Gam::Fit).
  virtual bool Fit(const SurrogateSpec& spec, const SurrogateConfig& config,
                   const Dataset& train) = 0;

  /// Link-scale prediction η(x).
  virtual double PredictRaw(const std::vector<double>& row) const = 0;
  /// Response-scale prediction μ(x) — what fidelity compares to the
  /// forest output.
  virtual double Predict(const std::vector<double>& row) const = 0;
  virtual std::vector<double> PredictBatch(const Dataset& data) const = 0;

  virtual double intercept() const = 0;

  /// Terms including the intercept (see the indexing convention above).
  virtual size_t num_terms() const = 0;
  /// Features involved in term t; empty for the intercept.
  virtual std::vector<int> TermFeatures(size_t t) const = 0;
  /// True when term t is a discrete/level-wise shape (drives level-wise
  /// rather than grid-wise curve export).
  virtual bool TermIsFactor(size_t t) const = 0;
  virtual std::string TermLabel(size_t t) const = 0;
  /// Std-dev of the term's contribution over the fit data (plot order).
  virtual double TermImportance(size_t t) const = 0;

  /// Centered contribution of term t to η(x); contributions plus the
  /// intercept reconstruct PredictRaw exactly.
  virtual double TermContribution(size_t t,
                                  const std::vector<double>& row) const = 0;
  /// Contribution with a 95% interval when the backend has one;
  /// lower == upper == value otherwise.
  virtual EffectInterval TermEffect(size_t t, const std::vector<double>& row,
                                    double z = 1.959964) const = 0;

  /// Multi-line fit summary for DescribeExplanation (each line
  /// '\n'-terminated). The spline backend emits the exact "GAM: ..."
  /// block reports printed before this interface existed.
  virtual std::string DescribeFit() const = 0;

  /// Canonical text serialization; SurrogateFromText(backend_name(), ·)
  /// round-trips it.
  virtual std::string SerializeText() const = 0;

  /// FNV-1a 64 over SerializeText() — the shippable-surrogate identity
  /// used by the serving layer.
  virtual uint64_t ContentHash() const = 0;
};

}  // namespace gef

#endif  // GEF_SURROGATE_SURROGATE_H_
