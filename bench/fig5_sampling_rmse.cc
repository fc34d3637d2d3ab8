// Figure 5: surrogate RMSE versus the number of sampled points K for the
// five sampling strategies on D'. The paper finds Equi-Size best (at
// specific K), K-Quantile competitive, K-Means and Equi-Width worse, and
// All-Thresholds as the flat baseline.

#include <cstdio>

#include "bench_common.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "forest/threshold_index.h"
#include "gef/explainer.h"
#include "gef/sampling.h"
#include "stats/metrics.h"
#include "util/string_util.h"

using namespace gef;

int main() {
  bench::Banner("Figure 5 — RMSE vs K per sampling strategy (D')",
                "Equi-Size/K-Quantile can beat the All-Thresholds "
                "baseline; K-Means and Equi-Width trail");

  Rng rng(42);
  Dataset dprime = MakeGPrimeDataset(8000 * bench::Scale(), &rng);
  Forest forest =
      TrainGbdt(dprime, nullptr, bench::PaperSyntheticForestConfig())
          .forest;
  ThresholdIndex index(forest);
  size_t max_thresholds = 0;
  for (int f = 0; f < 5; ++f) {
    max_thresholds = std::max(
        max_thresholds, index.ThresholdsWithMultiplicity(f).size());
  }
  std::printf("forest: %zu trees; up to %zu thresholds per feature\n",
              forest.num_trees(), max_thresholds);

  const std::vector<int> ks = {4, 8, 16, 32, 64, 128, 256};
  const size_t num_samples = 6000 * static_cast<size_t>(bench::Scale());

  // Common probe set for the strategy-neutral comparison: uniform random
  // points in [0,1]^5 labelled by the forest (the paper's plain Random
  // Sampling). The paper's own metric (RMSE on each strategy's D* test
  // split) is reported alongside, but because that test set *changes*
  // with the strategy and K, only the probe-set table compares cells
  // fairly across K.
  Rng probe_rng(99);
  Dataset probe(forest.feature_names());
  for (int i = 0; i < 3000; ++i) {
    std::vector<double> x(5);
    for (double& v : x) v = probe_rng.Uniform();
    probe.AppendRow(x, forest.PredictRaw(x));
  }

  bench::Section("RMSE on each strategy's own D* test split "
                 "(the paper's metric)");
  std::vector<std::vector<double>> probe_rmse(
      ks.size(), std::vector<double>(5, -1.0));
  bench::Row({"K", "All-Thresh", "K-Quantile", "Equi-Width", "K-Means",
              "Equi-Size"});
  // All-Thresholds ignores K: compute once and repeat as the baseline.
  double all_thresholds_rmse = -1.0;
  double all_thresholds_probe = -1.0;
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    int k = ks[ki];
    std::vector<std::string> cells = {std::to_string(k)};
    int si = 0;
    for (SamplingStrategy strategy : AllSamplingStrategies()) {
      if (strategy == SamplingStrategy::kAllThresholds &&
          all_thresholds_rmse >= 0.0) {
        cells.push_back(FormatDouble(all_thresholds_rmse, 4));
        probe_rmse[ki][si++] = all_thresholds_probe;
        continue;
      }
      GefConfig config;
      config.num_univariate = 5;
      config.sampling = strategy;
      config.k = k;
      config.num_samples = num_samples;
      config.seed = 7;  // shared seed: same D* randomness per cell
      auto explanation = ExplainForest(forest, config);
      double rmse = -1.0;
      if (explanation != nullptr) {
        rmse = explanation->fidelity_rmse_test;
        probe_rmse[ki][si] =
            Rmse(explanation->surrogate->PredictBatch(probe),
                 probe.targets());
      }
      if (strategy == SamplingStrategy::kAllThresholds) {
        all_thresholds_rmse = rmse;
        all_thresholds_probe = probe_rmse[ki][si];
      }
      ++si;
      cells.push_back(FormatDouble(rmse, 4));
    }
    bench::Row(cells);
  }

  bench::Section("RMSE on a common uniform probe set "
                 "(strategy-neutral comparison)");
  bench::Row({"K", "All-Thresh", "K-Quantile", "Equi-Width", "K-Means",
              "Equi-Size"});
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    std::vector<std::string> cells = {std::to_string(ks[ki])};
    for (double v : probe_rmse[ki]) cells.push_back(FormatDouble(v, 4));
    bench::Row(cells);
  }

  std::printf(
      "\nExpected shape: on the paper's metric the K-strategies beat the "
      "All-Thresholds baseline at tuned K; on the neutral probe set, "
      "small-K domains generalize poorly off-grid and all strategies "
      "converge to All-Thresholds quality as K grows — density-following "
      "strategies (K-Quantile / K-Means / Equi-Size) get there at "
      "smaller K than their final domain size suggests.\n");
  return 0;
}
