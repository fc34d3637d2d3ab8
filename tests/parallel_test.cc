// Tests for the shared thread pool: chunk-grid correctness, pool reuse,
// exception propagation, nested-call safety, and the determinism
// contract — batch prediction, D* labeling, and Kernel SHAP must be
// bit-identical at every thread count.

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "data/census.h"
#include "data/one_hot.h"
#include "data/superconductivity.h"
#include "data/synthetic.h"
#include "explain/kernelshap.h"
#include "forest/gbdt_trainer.h"
#include "forest/random_forest_trainer.h"
#include "gef/sampling.h"
#include "util/parallel.h"

namespace gef {
namespace {

// Restores the thread-count default when a test exits, so one test's
// SetNumThreads override never leaks into another.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(0, n, 16, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
    }
  }
}

TEST(ParallelForTest, GrainOneMatchesGrainN) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  const size_t n = 257;
  std::vector<double> fine(n, 0.0), coarse(n, 0.0);
  ParallelFor(0, n, 1, [&](size_t i) { fine[i] = 3.0 * i + 1.0; });
  ParallelFor(0, n, n, [&](size_t i) { coarse[i] = 3.0 * i + 1.0; });
  EXPECT_EQ(fine, coarse);
}

TEST(ParallelForTest, ChunkBoundariesDependOnGrainNotThreads) {
  ThreadCountGuard guard;
  // Record the (begin, end) pairs the chunked flavour hands out; the
  // grid must be identical at 1 and 8 threads.
  auto collect = [](int threads) {
    SetNumThreads(threads);
    std::vector<std::pair<size_t, size_t>> chunks(7);
    ParallelForChunked(3, 45, 7, [&](size_t b, size_t e) {
      chunks[(b - 3) / 7] = {b, e};
    });
    return chunks;
  };
  EXPECT_EQ(collect(1), collect(8));
}

TEST(ParallelReduceTest, SumsMatchSerialAtEveryThreadCount) {
  ThreadCountGuard guard;
  const size_t n = 1003;
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = 0.1 * i - 17.0;
  SetNumThreads(1);
  double serial = ParallelReduce<double>(
      0, n, 64, 0.0,
      [&](size_t b, size_t e) {
        return std::accumulate(values.begin() + b, values.begin() + e, 0.0);
      },
      [](double* acc, double part) { *acc += part; });
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    double parallel = ParallelReduce<double>(
        0, n, 64, 0.0,
        [&](size_t b, size_t e) {
          return std::accumulate(values.begin() + b, values.begin() + e, 0.0);
        },
        [](double* acc, double part) { *acc += part; });
    // Same chunk grid, same fold order: bit-identical, not just close.
    EXPECT_EQ(parallel, serial);
  }
}

TEST(ParallelPoolTest, ReusedAcrossManyCalls) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  // Hammer the pool with many small dispatches; wrong wakeup or
  // remaining-count bookkeeping shows up here as a hang or a lost index.
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> total{0};
    ParallelFor(0, 37, 5, [&](size_t i) { total.fetch_add(i); });
    EXPECT_EQ(total.load(), 37u * 36u / 2);
  }
}

TEST(ParallelPoolTest, ExceptionPropagatesToCaller) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 100, 4,
                    [&](size_t i) {
                      if (i == 42) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool must survive a throwing job and accept new work.
    std::atomic<int> count{0};
    ParallelFor(0, 16, 2, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 16);
  }
}

TEST(ParallelPoolTest, NestedCallsRunSeriallyWithoutDeadlock) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, 8, 1, [&](size_t outer) {
    // Inner loop from inside a worker: must degrade to inline serial
    // execution instead of waiting on the (busy) pool.
    ParallelFor(0, 8, 1,
                [&](size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// End-to-end determinism: library-level outputs must be bit-identical at
// GEF_NUM_THREADS = 1, 2, 8.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7701);
    data_ = MakeGPrimeDataset(600, &rng);
    GbdtConfig config;
    config.num_trees = 25;
    config.num_leaves = 8;
    forest_ = TrainGbdt(data_, nullptr, config).forest;
  }
  void TearDown() override { SetNumThreads(0); }

  Dataset data_{0};
  Forest forest_;
};

TEST_F(ParallelDeterminismTest, PredictBatchBitIdentical) {
  SetNumThreads(1);
  std::vector<double> baseline = forest_.PredictRawBatch(data_);
  std::vector<double> baseline_prob = forest_.PredictBatch(data_);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    EXPECT_EQ(forest_.PredictRawBatch(data_), baseline);
    EXPECT_EQ(forest_.PredictBatch(data_), baseline_prob);
  }
}

TEST_F(ParallelDeterminismTest, SyntheticDatasetLabelsBitIdentical) {
  std::vector<std::vector<double>> domains(forest_.num_features());
  for (auto& domain : domains) domain = {0.0, 0.25, 0.5, 0.75, 1.0};
  SetNumThreads(1);
  Rng rng1(88);
  Dataset baseline = GenerateSyntheticDataset(forest_, domains, 300, &rng1);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    Rng rng(88);
    Dataset dstar = GenerateSyntheticDataset(forest_, domains, 300, &rng);
    ASSERT_EQ(dstar.num_rows(), baseline.num_rows());
    EXPECT_EQ(dstar.targets(), baseline.targets());
    for (size_t f = 0; f < dstar.num_features(); ++f) {
      EXPECT_EQ(dstar.Column(f), baseline.Column(f));
    }
  }
}

TEST_F(ParallelDeterminismTest, KernelShapBitIdentical) {
  KernelShapConfig config;
  config.background_rows = 40;
  std::vector<double> x = {0.3, 0.8, 0.1, 0.6, 0.5};
  SetNumThreads(1);
  KernelShapExplainer serial(forest_, data_, config);
  ShapExplanation baseline = serial.Explain(x);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    KernelShapExplainer explainer(forest_, data_, config);
    ShapExplanation e = explainer.Explain(x);
    EXPECT_EQ(e.base_value, baseline.base_value);
    EXPECT_EQ(e.values, baseline.values);
  }
}

TEST_F(ParallelDeterminismTest, TrainedForestsBitIdentical) {
  // Pinned hashes, not a comparison across thread counts: a grower
  // change that reorders a histogram sum or breaks a gain tie the other
  // way fails here even when it does so at every thread count.
  Rng wide_rng(44);
  const Dataset wide = MakeSuperconductivityDataset(1500, &wide_rng);
  Rng census_rng(43);
  const Dataset census_raw = MakeCensusDatasetRaw(2000, &census_rng);
  const Dataset census =
      OneHotEncoder(census_raw, CensusCategoricalColumns())
          .Transform(census_raw);

  GbdtConfig regression;
  regression.num_trees = 40;
  regression.num_leaves = 64;
  regression.seed = 44;
  GbdtConfig subsampled = regression;
  subsampled.subsample_rows = 0.7;
  GbdtConfig binary;
  binary.objective = Objective::kBinaryClassification;
  binary.num_trees = 40;
  binary.num_leaves = 32;
  binary.seed = 43;
  RandomForestConfig forest;
  forest.num_trees = 20;
  forest.num_leaves = 64;
  forest.feature_fraction = 0.5;
  forest.seed = 44;

  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    SCOPED_TRACE(threads);
    EXPECT_EQ(TrainGbdt(wide, nullptr, regression).forest.ContentHash(),
              0x31d0fb0b58e5d294u);
    EXPECT_EQ(TrainGbdt(wide, nullptr, subsampled).forest.ContentHash(),
              0x3f287ad132e401cdu);
    EXPECT_EQ(TrainGbdt(census, nullptr, binary).forest.ContentHash(),
              0x1705d5e88ac01875u);
    EXPECT_EQ(TrainRandomForest(wide, forest).ContentHash(),
              0x0d886e81e5d50eb0u);
  }
}

}  // namespace
}  // namespace gef
