#ifndef GEF_SURROGATE_SPLINE_GAM_H_
#define GEF_SURROGATE_SPLINE_GAM_H_

// The paper's surrogate: a P-spline GAM with factor terms for
// low-cardinality features and tensor terms for pairs, fitted by
// penalized PIRLS with GCV-selected λ (src/gam/). This file is a port
// of the term-construction + fit logic that lived in gef/explainer.cc
// before the Surrogate interface existed; outputs are bit-identical to
// that code (the golden pipeline tests pin this).

#include <memory>
#include <string>
#include <vector>

#include "gam/gam.h"
#include "surrogate/surrogate.h"
#include "util/status.h"

namespace gef {

class SplineGamSurrogate : public Surrogate {
 public:
  static constexpr char kName[] = "spline_gam";

  SplineGamSurrogate() = default;
  /// Adopts an already-fitted GAM (deserialization path).
  explicit SplineGamSurrogate(Gam gam) : gam_(std::move(gam)) {}

  /// Parses GamToString text (the pre-interface on-disk format).
  static StatusOr<std::unique_ptr<Surrogate>> FromText(
      const std::string& text);

  std::string backend_name() const override { return kName; }
  bool fitted() const override { return gam_.fitted(); }

  bool Fit(const SurrogateSpec& spec, const SurrogateConfig& config,
           const Dataset& train) override;

  double PredictRaw(const std::vector<double>& row) const override {
    return gam_.PredictRaw(row);
  }
  double Predict(const std::vector<double>& row) const override {
    return gam_.Predict(row);
  }
  std::vector<double> PredictBatch(const Dataset& data) const override {
    return gam_.PredictBatch(data);
  }

  double intercept() const override { return gam_.intercept(); }
  size_t num_terms() const override { return gam_.num_terms(); }
  std::vector<int> TermFeatures(size_t t) const override {
    return gam_.term(t).Features();
  }
  bool TermIsFactor(size_t t) const override {
    return gam_.term(t).type() == TermType::kFactor;
  }
  std::string TermLabel(size_t t) const override {
    return gam_.TermLabel(t);
  }
  double TermImportance(size_t t) const override {
    return gam_.term_importances()[t];
  }
  double TermContribution(size_t t,
                          const std::vector<double>& row) const override {
    return gam_.TermContribution(t, row);
  }
  EffectInterval TermEffect(size_t t, const std::vector<double>& row,
                            double z) const override {
    return gam_.TermEffect(t, row, z);
  }

  std::string DescribeFit() const override;
  std::string SerializeText() const override;
  uint64_t ContentHash() const override { return gam_.ContentHash(); }

 private:
  Gam gam_;
};

}  // namespace gef

#endif  // GEF_SURROGATE_SPLINE_GAM_H_
