// Performance microbenchmarks for the substrate libraries (not tied to a
// paper figure): GBDT training throughput, GAM fitting, B-spline
// evaluation, Cholesky factorization and TreeSHAP-relevant forest
// traversal. Tracks regressions in the pieces every experiment sits on.

#include <algorithm>
#include <cmath>
#include <thread>

#include <benchmark/benchmark.h>

#include "data/superconductivity.h"
#include "data/synthetic.h"
#include "forest/compiled_kernels.h"
#include "forest/gbdt_trainer.h"
#include "forest/grower.h"
#include "gam/bspline.h"
#include "gam/design.h"
#include "gam/gam.h"
#include "linalg/block_sparse.h"
#include "linalg/cholesky.h"
#include "stats/rng.h"
#include "util/parallel.h"

namespace gef {
namespace {

// Thread-count sweep for the parallel substrates: 1 / 2 / 4 plus the
// machine's hardware concurrency when it exceeds 4.
void ThreadCounts(benchmark::internal::Benchmark* b) {
  for (int t : {1, 2, 4}) b->Arg(t);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) b->Arg(hw);
}

void BM_GbdtTrain(benchmark::State& state) {
  Rng rng(42);
  Dataset data = MakeGPrimeDataset(static_cast<size_t>(state.range(0)),
                                   &rng);
  GbdtConfig config;
  config.num_trees = 20;
  config.num_leaves = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainGbdt(data, nullptr, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 20);
}
BENCHMARK(BM_GbdtTrain)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// GBDT training on the 81-feature superconductivity data at the shape of
// the wide perfbench forest (3000 rows, 64 leaves), swept over thread
// counts. The tree grower is serial, and with every row sampled and no
// validation set no score update walks the trees on the pool, so the
// rate (per wall-clock second) should not follow the thread count: it is
// the baseline a parallel grower has to beat.
void BM_GbdtTrainWideThreads(benchmark::State& state) {
  Rng rng(44);
  const size_t rows = 3000;
  Dataset data = MakeSuperconductivityDataset(rows, &rng);
  GbdtConfig config;
  config.num_trees = 20;
  config.num_leaves = 64;
  SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainGbdt(data, nullptr, config));
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows) * config.num_trees);
}
BENCHMARK(BM_GbdtTrainWideThreads)->Apply(ThreadCounts)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Binning(benchmark::State& state) {
  Rng rng(43);
  Dataset data = MakeGPrimeDataset(static_cast<size_t>(state.range(0)),
                                   &rng);
  for (auto _ : state) {
    BinMapper mapper(data, 255);
    BinnedData binned(data, mapper);
    benchmark::DoNotOptimize(binned.num_rows());
  }
}
BENCHMARK(BM_Binning)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_GamFitIdentity(benchmark::State& state) {
  Rng rng(44);
  const size_t n = static_cast<size_t>(state.range(0));
  Dataset data(std::vector<std::string>{"a", "b", "c"});
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(), b = rng.Uniform(), c = rng.Uniform();
    data.AppendRow({a, b, c},
                   std::sin(6.0 * a) + b * b + c + rng.Normal(0.0, 0.1));
  }
  GamConfig config;
  config.lambda_grid = {1e-2, 1.0, 1e2};
  for (auto _ : state) {
    TermList terms;
    terms.push_back(std::make_unique<InterceptTerm>());
    for (int f = 0; f < 3; ++f) {
      terms.push_back(std::make_unique<SplineTerm>(f, 0.0, 1.0, 16));
    }
    Gam gam;
    benchmark::DoNotOptimize(gam.Fit(std::move(terms), data, config));
  }
}
BENCHMARK(BM_GamFitIdentity)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_GamPredict(benchmark::State& state) {
  Rng rng(45);
  Dataset data(std::vector<std::string>{"a", "b", "c"});
  for (int i = 0; i < 2000; ++i) {
    double a = rng.Uniform(), b = rng.Uniform(), c = rng.Uniform();
    data.AppendRow({a, b, c}, a + b + c);
  }
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  for (int f = 0; f < 3; ++f) {
    terms.push_back(std::make_unique<SplineTerm>(f, 0.0, 1.0, 16));
  }
  Gam gam;
  GamConfig config;
  config.lambda_grid = {1.0};
  gam.Fit(std::move(terms), data, config);
  std::vector<double> x = {0.3, 0.6, 0.9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gam.PredictRaw(x));
  }
}
BENCHMARK(BM_GamPredict);

void BM_BSplineEvaluate(benchmark::State& state) {
  BSplineBasis basis(0.0, 1.0, static_cast<int>(state.range(0)));
  std::vector<double> out(static_cast<size_t>(state.range(0)));
  Rng rng(46);
  for (auto _ : state) {
    basis.Evaluate(rng.Uniform(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BSplineEvaluate)->Arg(8)->Arg(16)->Arg(32);

void BM_CholeskyFactorize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(47);
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.Normal();
  }
  Matrix spd = GramWeighted(a, {});
  for (size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cholesky::Factorize(spd));
  }
}
BENCHMARK(BM_CholeskyFactorize)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_SortBasedQuantiles(benchmark::State& state) {
  Rng rng(50);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (double& v : values) v = rng.Normal();
  for (auto _ : state) {
    std::vector<double> copy = values;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy[copy.size() / 2]);
  }
}
BENCHMARK(BM_SortBasedQuantiles)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_GramWeighted(benchmark::State& state) {
  const size_t n = 5000;
  const size_t p = static_cast<size_t>(state.range(0));
  Rng rng(48);
  Matrix x(n, p);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) x(i, j) = rng.Normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramWeighted(x, {}));
  }
}
BENCHMARK(BM_GramWeighted)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Dense vs block-sparse design Gram. Three term mixes spanning the
// sparsity regimes a GEF surrogate produces: spline-only rows (one
// degree+1 run per term), tensor-heavy rows ((d+1)² nonzeros per tensor
// block), and mixed factor widths (wide single-indicator blocks, where
// sparsity wins the most). Same terms and data feed both kernels, so
// the pair of benchmarks isolates the storage format.

TermList MakeGramCaseTerms(int gram_case) {
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  switch (gram_case) {
    case 0:  // spline-only
      for (int f = 0; f < 6; ++f) {
        terms.push_back(std::make_unique<SplineTerm>(f, 0.0, 1.0, 16));
      }
      break;
    case 1:  // tensor-heavy
      for (int f = 0; f < 2; ++f) {
        terms.push_back(std::make_unique<SplineTerm>(f, 0.0, 1.0, 12));
      }
      terms.push_back(
          std::make_unique<TensorTerm>(0, 0.0, 1.0, 1, 0.0, 1.0, 8));
      terms.push_back(
          std::make_unique<TensorTerm>(2, 0.0, 1.0, 3, 0.0, 1.0, 8));
      terms.push_back(
          std::make_unique<TensorTerm>(4, 0.0, 1.0, 5, 0.0, 1.0, 8));
      break;
    default: {  // mixed factor widths
      for (int f = 0; f < 3; ++f) {
        terms.push_back(std::make_unique<SplineTerm>(f, 0.0, 1.0, 16));
      }
      std::vector<double> narrow, wide;
      for (int l = 0; l < 4; ++l) narrow.push_back(l);
      for (int l = 0; l < 24; ++l) wide.push_back(l);
      terms.push_back(std::make_unique<FactorTerm>(4, narrow));
      terms.push_back(std::make_unique<FactorTerm>(5, wide));
      terms.push_back(
          std::make_unique<TensorTerm>(0, 0.0, 1.0, 1, 0.0, 1.0, 6));
      break;
    }
  }
  return terms;
}

Dataset MakeGramCaseData(size_t n, int gram_case, Rng* rng) {
  Dataset data(std::vector<std::string>{"f0", "f1", "f2", "f3", "f4",
                                        "f5"});
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(6);
    for (int f = 0; f < 6; ++f) row[f] = rng->Uniform();
    if (gram_case == 2) {
      row[4] = std::floor(row[4] * 4.0);
      row[5] = std::floor(row[5] * 24.0);
    }
    data.AppendRow(row, 0.0);
  }
  return data;
}

const char* GramCaseLabel(int gram_case) {
  switch (gram_case) {
    case 0: return "spline_only";
    case 1: return "tensor_heavy";
    default: return "mixed_factors";
  }
}

void BM_GramDenseDesign(benchmark::State& state) {
  Rng rng(52);
  const int gram_case = static_cast<int>(state.range(0));
  Dataset data = MakeGramCaseData(4000, gram_case, &rng);
  TermList terms = MakeGramCaseTerms(gram_case);
  DesignLayout layout = ComputeLayout(terms);
  Matrix design = BuildRawDesign(terms, data, layout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramWeighted(design, {}));
  }
  state.SetLabel(GramCaseLabel(gram_case));
  state.counters["p"] = static_cast<double>(layout.total_cols);
}
BENCHMARK(BM_GramDenseDesign)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_GramSparseDesign(benchmark::State& state) {
  Rng rng(52);
  const int gram_case = static_cast<int>(state.range(0));
  Dataset data = MakeGramCaseData(4000, gram_case, &rng);
  TermList terms = MakeGramCaseTerms(gram_case);
  DesignLayout layout = ComputeLayout(terms);
  SparseDesign design = BuildSparseDesign(terms, data, layout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramWeighted(design.matrix, {}));
  }
  state.SetLabel(GramCaseLabel(gram_case));
  state.counters["nnz"] = static_cast<double>(design.matrix.row_nnz());
  state.counters["p"] = static_cast<double>(layout.total_cols);
}
BENCHMARK(BM_GramSparseDesign)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_GramWeightedThreads(benchmark::State& state) {
  const size_t n = 5000, p = 100;
  Rng rng(48);
  Matrix x(n, p);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) x(i, j) = rng.Normal();
  }
  SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramWeighted(x, {}));
  }
  SetNumThreads(0);
}
BENCHMARK(BM_GramWeightedThreads)->Apply(ThreadCounts)
    ->Unit(benchmark::kMillisecond);

void BM_ForestPredictBatchThreads(benchmark::State& state) {
  Rng rng(51);
  Dataset train = MakeGPrimeDataset(2000, &rng);
  GbdtConfig config;
  config.num_trees = 80;
  config.num_leaves = 16;
  Forest forest = TrainGbdt(train, nullptr, config).forest;
  Dataset batch = MakeGPrimeDataset(20000, &rng);
  SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictRawBatch(batch));
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * batch.num_rows());
}
BENCHMARK(BM_ForestPredictBatchThreads)->Apply(ThreadCounts)
    ->Unit(benchmark::kMillisecond);

// Compiled-kernel traversal vs the original per-row pointer walk, same
// forest and rows. Arg(0)=pointer walk, Arg(1)=scalar kernel,
// Arg(2)=AVX2 kernel; the ratio is the headline compiled-inference win.
void BM_ForestTraversalKernels(benchmark::State& state) {
  Rng rng(52);
  Dataset train = MakeGPrimeDataset(2000, &rng);
  GbdtConfig config;
  config.num_trees = 80;
  config.num_leaves = 16;
  Forest forest = TrainGbdt(train, nullptr, config).forest;
  Dataset batch = MakeGPrimeDataset(20000, &rng);
  SetNumThreads(1);
  const int mode = static_cast<int>(state.range(0));
  if (mode == 1) {
    compiled::SetKernelForTest(compiled::Kernel::kScalar);
  } else if (mode == 2) {
    if (!compiled::Avx2Supported()) {
      state.SkipWithError("no AVX2 on this host");
      SetNumThreads(0);
      return;
    }
    compiled::SetKernelForTest(compiled::Kernel::kAvx2);
  }
  if (mode == 0) {
    std::vector<double> row(forest.num_features());
    std::vector<double> out(batch.num_rows());
    for (auto _ : state) {
      for (size_t i = 0; i < batch.num_rows(); ++i) {
        for (size_t j = 0; j < batch.num_features(); ++j) {
          row[j] = batch.Column(j)[i];
        }
        out[i] = forest.PredictRaw(row.data());
      }
      benchmark::DoNotOptimize(out.data());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(forest.PredictRawBatch(batch));
    }
  }
  compiled::ClearKernelForTest();
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * batch.num_rows());
}
BENCHMARK(BM_ForestTraversalKernels)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gef

BENCHMARK_MAIN();
