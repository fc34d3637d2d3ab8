// Figure 4: the GEF spline components reconstruct the five generator
// functions of g' from the forest alone (Equi-Size sampling; the paper
// uses K = 12,000 — the best setting of its Fig 5 sweep).
//
// Prints each learned component on a grid next to the centered ground-
// truth generator, plus their Pearson correlation ("nicely match ... with
// few exceptions at the margins").

#include <cstdio>

#include "bench_common.h"
#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"
#include "stats/descriptive.h"

using namespace gef;

int main() {
  bench::Banner("Figure 4 — true function reconstruction on D'",
                "GEF components match the generator functions of g', "
                "sorted by importance, exceptions at the domain margins");

  Rng rng(42);
  Dataset dprime = MakeGPrimeDataset(8000 * bench::Scale(), &rng);
  Forest forest;
  double train_s = bench::TimedStage("bench.forest_train", 0, [&] {
    forest = TrainGbdt(dprime, nullptr, bench::PaperSyntheticForestConfig())
                 .forest;
  });
  std::printf("forest trained in %.1fs (%zu trees)\n", train_s,
              forest.num_trees());

  GefConfig config;
  config.num_univariate = 5;
  config.num_bivariate = 0;
  config.sampling = SamplingStrategy::kEquiSize;
  config.k = 96 * bench::Scale();
  config.num_samples = 12000 * static_cast<size_t>(bench::Scale());
  std::unique_ptr<GefExplanation> explanation;
  double explain_s = bench::TimedStage(
      "bench.explain", 0, [&] { explanation = ExplainForest(forest, config); });
  if (explanation == nullptr) {
    std::printf("GAM fit failed\n");
    return 1;
  }
  std::printf("GEF fitted in %.1fs; fidelity RMSE (test D*) = %.4f\n",
              explain_s, explanation->fidelity_rmse_test);

  // Order components by GAM term importance (as the figure sorts them).
  struct Component {
    int feature;
    int term;
    double importance;
  };
  std::vector<Component> components;
  for (size_t i = 0; i < explanation->selected_features.size(); ++i) {
    int term = explanation->univariate_term_index[i];
    components.push_back({explanation->selected_features[i], term,
                          explanation->surrogate->TermImportance(term)});
  }
  std::sort(components.begin(), components.end(),
            [](const Component& a, const Component& b) {
              return a.importance > b.importance;
            });

  const int grid_points = 19;
  for (const Component& component : components) {
    // Centered ground truth: the paper centers each component by its
    // mean; approximate E[g_j] over U[0,1] on a fine grid.
    double truth_mean = 0.0;
    for (int g = 0; g < 1000; ++g) {
      truth_mean +=
          SyntheticComponent(component.feature, (g + 0.5) / 1000.0);
    }
    truth_mean /= 1000.0;

    std::printf("\ncomponent s(x%d), importance %.3f:\n",
                component.feature + 1, component.importance);
    std::printf("  %-8s %-12s %-12s\n", "x", "GEF spline",
                "true (centered)");
    std::vector<double> fitted, truth;
    std::vector<double> probe(5, 0.5);
    for (int g = 0; g < grid_points; ++g) {
      double x = 0.05 + 0.9 * g / (grid_points - 1);
      probe[component.feature] = x;
      double spline =
          explanation->surrogate->TermContribution(component.term, probe);
      double target =
          SyntheticComponent(component.feature, x) - truth_mean;
      fitted.push_back(spline);
      truth.push_back(target);
      std::printf("  %-8.3f %-+12.4f %-+12.4f\n", x, spline, target);
    }
    std::printf("  correlation(GEF, truth) = %.4f\n",
                PearsonCorrelation(fitted, truth));
  }

  std::printf("\nExpected shape: every correlation > 0.9; deviations "
              "concentrate at x near 0 and 1.\n");
  return 0;
}
