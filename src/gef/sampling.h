#ifndef GEF_GEF_SAMPLING_H_
#define GEF_GEF_SAMPLING_H_

// Sampling-domain construction and synthetic dataset generation (paper
// Sec. 3.3). Each feature's sampling domain D_i is derived purely from
// the split thresholds V_i the forest uses on that feature; an instance
// of D* picks a value uniformly at random from each D_i and is labelled
// by querying the forest.

#include <vector>

#include "data/dataset.h"
#include "forest/forest.h"
#include "forest/threshold_index.h"
#include "stats/rng.h"

namespace gef {

/// The five strategies of Sec. 3.3.
enum class SamplingStrategy {
  kAllThresholds,  // midpoints of consecutive thresholds ± ε (Cohen et al.)
  kKQuantile,      // K quantiles of the threshold distribution
  kEquiWidth,      // K evenly spaced points over [v1 - ε, vt + ε]
  kKMeans,         // centroids of k-means over the thresholds
  kEquiSize,       // means of K equal-size contiguous threshold chunks
};

const char* SamplingStrategyName(SamplingStrategy strategy);

/// All five strategies, for parameter sweeps.
std::vector<SamplingStrategy> AllSamplingStrategies();

/// Builds a sampling domain from a feature's thresholds.
///
/// `thresholds` is the feature's sorted threshold list with multiplicity
/// (ThresholdIndex::ThresholdsWithMultiplicity) so that density-following
/// strategies (K-Quantile, K-Means, Equi-Size) see the real distribution.
/// `k` is ignored by All-Thresholds. `epsilon_fraction` extends the
/// domain beyond [v1, vt] by ε = epsilon_fraction · (vt − v1) (paper
/// default 0.05). `rng` is consulted only by K-Means seeding.
///
/// Returns a sorted list of distinct domain points. The result always
/// has at least two points when the strategy is K-based: a single-point
/// domain would freeze the feature in D* (one-hot features collapse this
/// way), so such domains fall back to the All-Thresholds construction,
/// which brackets every threshold from both sides.
std::vector<double> BuildSamplingDomain(const std::vector<double>& thresholds,
                                        SamplingStrategy strategy, int k,
                                        double epsilon_fraction, Rng* rng);

/// Per-feature sampling domains for every feature of the forest.
/// Features the forest never splits on get the singleton domain {0} —
/// they provably cannot change any forest prediction.
std::vector<std::vector<double>> BuildAllDomains(
    const Forest& forest, const ThresholdIndex& index,
    SamplingStrategy strategy, int k, double epsilon_fraction, Rng* rng);

/// Samples the synthetic dataset D*: `n` instances drawn uniformly from
/// the product of the per-feature domains, labelled by the forest —
/// raw scores for regression forests, probabilities for classification
/// (the scale the explanation GAM models through its link function).
Dataset GenerateSyntheticDataset(const Forest& forest,
                                 const std::vector<std::vector<double>>&
                                     domains,
                                 size_t n, Rng* rng);

}  // namespace gef

#endif  // GEF_GEF_SAMPLING_H_
