#include "gef/sampling.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "stats/kmeans1d.h"
#include "stats/quantile.h"
#include "util/check.h"

namespace gef {
namespace {

// Deduplicates and sorts a domain in place.
void Canonicalize(std::vector<double>* domain) {
  std::sort(domain->begin(), domain->end());
  domain->erase(std::unique(domain->begin(), domain->end()),
                domain->end());
}

double EpsilonFor(const std::vector<double>& thresholds,
                  double epsilon_fraction) {
  double lo = thresholds.front();
  double hi = thresholds.back();
  double epsilon = epsilon_fraction * (hi - lo);
  if (epsilon <= 0.0) {
    // Single distinct threshold: extend by a scale-aware default so the
    // domain still brackets the split from both sides.
    epsilon = std::max(1.0, std::fabs(lo)) * epsilon_fraction;
  }
  return epsilon;
}

std::vector<double> AllThresholdsDomain(
    const std::vector<double>& thresholds, double epsilon_fraction) {
  // Distinct thresholds V_i -> midpoints W_i plus the ε-extended extremes.
  std::vector<double> distinct = thresholds;
  Canonicalize(&distinct);
  double epsilon = EpsilonFor(distinct, epsilon_fraction);
  std::vector<double> domain;
  domain.reserve(distinct.size() + 1);
  domain.push_back(distinct.front() - epsilon);
  for (size_t i = 0; i + 1 < distinct.size(); ++i) {
    domain.push_back(0.5 * (distinct[i] + distinct[i + 1]));
  }
  domain.push_back(distinct.back() + epsilon);
  return domain;
}

std::vector<double> KQuantileDomain(const std::vector<double>& thresholds,
                                    int k) {
  return InnerQuantiles(thresholds, k);
}

std::vector<double> EquiWidthDomain(const std::vector<double>& thresholds,
                                    int k, double epsilon_fraction) {
  double epsilon = EpsilonFor(thresholds, epsilon_fraction);
  double lo = thresholds.front() - epsilon;
  double hi = thresholds.back() + epsilon;
  std::vector<double> domain(k);
  if (k == 1) {
    domain[0] = 0.5 * (lo + hi);
    return domain;
  }
  for (int i = 0; i < k; ++i) {
    domain[i] = lo + (hi - lo) * i / (k - 1);
  }
  return domain;
}

std::vector<double> KMeansDomain(const std::vector<double>& thresholds,
                                 int k, Rng* rng) {
  return KMeans1d(thresholds, k, rng).centroids;
}

std::vector<double> EquiSizeDomain(const std::vector<double>& thresholds,
                                   int k) {
  // Split the sorted threshold list into K contiguous chunks of (near-)
  // equal size; each chunk contributes its mean.
  std::vector<double> sorted = thresholds;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const size_t chunks = std::min<size_t>(static_cast<size_t>(k), n);
  std::vector<double> domain;
  domain.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    size_t begin = c * n / chunks;
    size_t end = (c + 1) * n / chunks;
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i) sum += sorted[i];
    domain.push_back(sum / static_cast<double>(end - begin));
  }
  return domain;
}

}  // namespace

const char* SamplingStrategyName(SamplingStrategy strategy) {
  switch (strategy) {
    case SamplingStrategy::kAllThresholds:
      return "All-Thresholds";
    case SamplingStrategy::kKQuantile:
      return "K-Quantile";
    case SamplingStrategy::kEquiWidth:
      return "Equi-Width";
    case SamplingStrategy::kKMeans:
      return "K-Means";
    case SamplingStrategy::kEquiSize:
      return "Equi-Size";
  }
  return "unknown";
}

std::vector<SamplingStrategy> AllSamplingStrategies() {
  return {SamplingStrategy::kAllThresholds, SamplingStrategy::kKQuantile,
          SamplingStrategy::kEquiWidth, SamplingStrategy::kKMeans,
          SamplingStrategy::kEquiSize};
}

std::vector<double> BuildSamplingDomain(const std::vector<double>& thresholds,
                                        SamplingStrategy strategy, int k,
                                        double epsilon_fraction, Rng* rng) {
  GEF_CHECK(!thresholds.empty());
  GEF_CHECK(std::is_sorted(thresholds.begin(), thresholds.end()));
  if (strategy != SamplingStrategy::kAllThresholds) GEF_CHECK_GT(k, 0);

  // Per-strategy span: SamplingStrategyName returns a string literal,
  // satisfying the obs name-lifetime contract.
  GEF_OBS_SPAN(SamplingStrategyName(strategy));
  std::vector<double> domain;
  switch (strategy) {
    case SamplingStrategy::kAllThresholds:
      domain = AllThresholdsDomain(thresholds, epsilon_fraction);
      break;
    case SamplingStrategy::kKQuantile:
      domain = KQuantileDomain(thresholds, k);
      break;
    case SamplingStrategy::kEquiWidth:
      domain = EquiWidthDomain(thresholds, k, epsilon_fraction);
      break;
    case SamplingStrategy::kKMeans:
      GEF_CHECK(rng != nullptr);
      domain = KMeansDomain(thresholds, k, rng);
      break;
    case SamplingStrategy::kEquiSize:
      domain = EquiSizeDomain(thresholds, k);
      break;
  }
  Canonicalize(&domain);
  GEF_CHECK(!domain.empty());
  // Degenerate domain guard: a single-point domain freezes the feature in
  // D* (common for one-hot features, whose only threshold is 0.5 — any
  // K-point strategy then collapses to {0.5}). Fall back to the
  // All-Thresholds domain, which brackets every threshold from both
  // sides by construction.
  if (domain.size() < 2 &&
      strategy != SamplingStrategy::kAllThresholds) {
    domain = AllThresholdsDomain(thresholds, epsilon_fraction);
    Canonicalize(&domain);
  }
  return domain;
}

std::vector<std::vector<double>> BuildAllDomains(
    const Forest& forest, const ThresholdIndex& index,
    SamplingStrategy strategy, int k, double epsilon_fraction, Rng* rng) {
  GEF_OBS_SPAN("gef.sampling_domains");
  std::vector<std::vector<double>> domains(forest.num_features());
  for (size_t f = 0; f < forest.num_features(); ++f) {
    const std::vector<double>& thresholds =
        index.ThresholdsWithMultiplicity(static_cast<int>(f));
    if (thresholds.empty()) {
      // Never split on: any constant yields identical forest behaviour.
      domains[f] = {0.0};
    } else {
      domains[f] = BuildSamplingDomain(thresholds, strategy, k,
                                       epsilon_fraction, rng);
    }
  }
  return domains;
}

Dataset GenerateSyntheticDataset(const Forest& forest,
                                 const std::vector<std::vector<double>>&
                                     domains,
                                 size_t n, Rng* rng) {
  GEF_CHECK_EQ(domains.size(), forest.num_features());
  GEF_CHECK_GT(n, 0u);
  // Draw the feature values serially (the rng stream fixes D* exactly),
  // then label every row with the forest in parallel — the expensive
  // step, and embarrassingly parallel per row.
  Dataset dataset(forest.feature_names());
  {
    GEF_OBS_SPAN("gef.dstar_draw");
    dataset.Reserve(n);
    std::vector<double> row(forest.num_features());
    for (size_t i = 0; i < n; ++i) {
      for (size_t f = 0; f < domains.size(); ++f) {
        const std::vector<double>& domain = domains[f];
        row[f] = domain[rng->UniformInt(domain.size())];
      }
      dataset.AppendRow(row);
    }
  }
  // Force the one-time flatten outside the labeling span so the
  // throughput metric measures traversal, not compilation.
  forest.Compiled();
  {
    // Labeling throughput = gef.dstar_rows_labeled / span(gef.dstar_label).
    GEF_OBS_SPAN("gef.dstar_label");
    GEF_OBS_COUNTER_ADD("gef.dstar_rows_labeled",
                        static_cast<double>(n));
    const bool classification =
        forest.objective() == Objective::kBinaryClassification;
    dataset.set_targets(classification ? forest.PredictBatch(dataset)
                                       : forest.PredictRawBatch(dataset));
  }
  return dataset;
}

}  // namespace gef
