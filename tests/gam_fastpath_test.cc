// Regression tests for the GAM fitting fast path: the block-sparse
// design must reproduce the dense design exactly, the sparse Gram/RHS
// kernels must agree with their dense counterparts, fits must be
// bit-identical at every thread count, and an identity-link Fit must
// build its Gram exactly once across the whole GCV grid and per-term
// coordinate descent (the hoisting contract — `gam.gram_builds`). A
// logit-link Fit builds one Gram per PIRLS step, must stop on a flat
// deviance well before the iteration cap (`gam.pirls_capped`), and must
// pick a λ whose GCV is within 1e-3 of the best grid point fitted alone.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <string>

#include <gtest/gtest.h>

#include "gam/design.h"
#include "gam/fit_workspace.h"
#include "gam/gam.h"
#include "gam/gam_io.h"
#include "linalg/block_sparse.h"
#include "linalg/cholesky.h"
#include "obs/obs.h"
#include "stats/rng.h"
#include "util/parallel.h"

namespace gef {
namespace {

// Mixed-term dataset: two continuous features, one 3-level categorical.
Dataset MixedData(size_t n, Rng* rng) {
  Dataset d(std::vector<std::string>{"x0", "x1", "cat"});
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng->Uniform();
    double x1 = rng->Uniform();
    double cat = std::floor(rng->Uniform() * 3.0);
    double y = std::sin(2.0 * std::numbers::pi * x0) + x1 * x1 +
               0.5 * cat + 0.8 * x0 * x1 + rng->Normal(0.0, 0.05);
    d.AppendRow({x0, x1, cat}, y);
  }
  return d;
}

// MixedData's signal pushed through the logistic with logit-scale noise:
// soft labels in (0, 1) that the terms cannot reproduce exactly, like the
// forest probabilities GEF fits its logit surrogate on.
Dataset SoftLabelData(size_t n, Rng* rng) {
  Dataset d = MixedData(n, rng);
  std::vector<double> p = d.targets();
  for (double& v : p) {
    v = 1.0 / (1.0 + std::exp(-2.0 * (v - 1.0) + rng->Normal(0.0, 0.5)));
  }
  d.set_targets(std::move(p));
  return d;
}

// One of every term type, exercising every sparse row-block shape.
TermList MixedTerms() {
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  terms.push_back(std::make_unique<SplineTerm>(0, 0.0, 1.0, 10));
  terms.push_back(std::make_unique<SplineTerm>(1, 0.0, 1.0, 10));
  terms.push_back(
      std::make_unique<FactorTerm>(2, std::vector<double>{0.0, 1.0, 2.0}));
  terms.push_back(
      std::make_unique<TensorTerm>(0, 0.0, 1.0, 1, 0.0, 1.0, 6));
  return terms;
}

GamConfig FastpathConfig() {
  GamConfig config;  // identity link
  config.lambda_grid = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4};
  config.per_term_lambda = true;
  return config;
}

TEST(GamFastpathTest, SparseDesignExpandsToDenseDesign) {
  Rng rng(401);
  Dataset data = MixedData(600, &rng);
  TermList terms = MixedTerms();
  DesignLayout layout = ComputeLayout(terms);
  Matrix dense = BuildRawDesign(terms, data, layout);
  SparseDesign sparse = BuildSparseDesign(terms, data, layout);
  Matrix expanded = sparse.matrix.ToDense();
  ASSERT_EQ(expanded.rows(), dense.rows());
  ASSERT_EQ(expanded.cols(), dense.cols());
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j < dense.cols(); ++j) {
      ASSERT_EQ(expanded(i, j), dense(i, j))
          << "row " << i << " col " << j;
    }
  }
  // Term slot ranges cover all slots in order.
  ASSERT_EQ(sparse.term_first_slot.size(), terms.size() + 1);
  EXPECT_EQ(sparse.term_first_slot.front(), 0);
  EXPECT_EQ(sparse.term_first_slot.back(), sparse.matrix.num_slots());
}

TEST(GamFastpathTest, SparseKernelsMatchDense) {
  Rng rng(402);
  Dataset data = MixedData(500, &rng);
  TermList terms = MixedTerms();
  DesignLayout layout = ComputeLayout(terms);
  Matrix dense = BuildRawDesign(terms, data, layout);
  SparseDesign sparse = BuildSparseDesign(terms, data, layout);

  Vector w(data.num_rows()), y(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    w[i] = 0.1 + rng.Uniform();
    y[i] = rng.Normal();
  }

  Matrix dense_gram = GramWeighted(dense, w);
  Matrix sparse_gram = GramWeighted(sparse.matrix, w);
  ASSERT_EQ(sparse_gram.rows(), dense_gram.rows());
  for (size_t i = 0; i < dense_gram.rows(); ++i) {
    for (size_t j = 0; j < dense_gram.cols(); ++j) {
      EXPECT_NEAR(sparse_gram(i, j), dense_gram(i, j),
                  1e-10 * (1.0 + std::fabs(dense_gram(i, j))));
    }
  }

  Vector dense_rhs = GramWeightedRhs(dense, w, y);
  Vector sparse_rhs = GramWeightedRhs(sparse.matrix, w, y);
  for (size_t j = 0; j < dense_rhs.size(); ++j) {
    EXPECT_NEAR(sparse_rhs[j], dense_rhs[j],
                1e-10 * (1.0 + std::fabs(dense_rhs[j])));
  }

  Vector beta(layout.total_cols);
  for (double& b : beta) b = rng.Normal();
  Vector dense_fit = MatVec(dense, beta);
  Vector sparse_fit = MatVec(sparse.matrix, beta);
  for (size_t i = 0; i < dense_fit.size(); ++i) {
    EXPECT_NEAR(sparse_fit[i], dense_fit[i],
                1e-10 * (1.0 + std::fabs(dense_fit[i])));
  }
}

TEST(GamFastpathTest, SlotViewKernelsMatchDenseBlocks) {
  Rng rng(403);
  Dataset data = MixedData(400, &rng);
  TermList terms = MixedTerms();
  DesignLayout layout = ComputeLayout(terms);
  Matrix dense = BuildRawDesign(terms, data, layout);
  SparseDesign sparse = BuildSparseDesign(terms, data, layout);

  for (size_t t = 0; t < terms.size(); ++t) {
    const int offset = layout.term_offsets[t];
    const int width = terms[t]->num_coeffs();
    Matrix block(dense.rows(), width);
    for (size_t i = 0; i < dense.rows(); ++i) {
      for (int j = 0; j < width; ++j) block(i, j) = dense(i, offset + j);
    }
    Vector beta(width);
    for (double& b : beta) b = rng.Normal();
    Vector view_fit = MatVecSlots(sparse.matrix, sparse.TermSlotBegin(t),
                                  sparse.TermSlotEnd(t), offset, beta);
    Vector dense_fit = MatVec(block, beta);
    for (size_t i = 0; i < dense_fit.size(); ++i) {
      EXPECT_NEAR(view_fit[i], dense_fit[i],
                  1e-10 * (1.0 + std::fabs(dense_fit[i]))) << "term " << t;
    }
  }
}

TEST(GamFastpathTest, CenteredWorkspaceMatchesExplicitCentering) {
  Rng rng(404);
  Dataset data = MixedData(500, &rng);
  TermList terms = MixedTerms();
  DesignLayout layout = ComputeLayout(terms);
  FitWorkspace ws = BuildFitWorkspace(terms, data, layout);

  Matrix dense = BuildRawDesign(terms, data, layout);
  std::vector<double> centers = ComputeCenters(dense, terms, layout);
  CenterDesign(&dense, centers);

  for (size_t j = 0; j < centers.size(); ++j) {
    EXPECT_NEAR(ws.centers[j], centers[j], 1e-12);
  }

  Vector w(data.num_rows());
  for (double& v : w) v = 0.05 + rng.Uniform();
  const Vector& y = data.targets();

  Matrix want_gram = GramWeighted(dense, w);
  Matrix got_gram = CenteredGramWeighted(ws, w);
  for (size_t a = 0; a < want_gram.rows(); ++a) {
    for (size_t b = 0; b < want_gram.cols(); ++b) {
      EXPECT_NEAR(got_gram(a, b), want_gram(a, b),
                  1e-8 * (1.0 + std::fabs(want_gram(a, b))));
    }
  }
  // The correction is applied to the upper triangle and mirrored, so the
  // result must be exactly symmetric.
  for (size_t a = 0; a < got_gram.rows(); ++a) {
    for (size_t b = a + 1; b < got_gram.cols(); ++b) {
      ASSERT_EQ(got_gram(a, b), got_gram(b, a));
    }
  }

  Vector want_rhs = GramWeightedRhs(dense, w, y);
  Vector got_rhs = CenteredGramWeightedRhs(ws, w, y);
  for (size_t j = 0; j < want_rhs.size(); ++j) {
    EXPECT_NEAR(got_rhs[j], want_rhs[j],
                1e-8 * (1.0 + std::fabs(want_rhs[j])));
  }

  Vector beta(layout.total_cols);
  for (double& b : beta) b = rng.Normal();
  Vector want_fit = MatVec(dense, beta);
  Vector got_fit = CenteredMatVec(ws, beta);
  for (size_t i = 0; i < want_fit.size(); ++i) {
    EXPECT_NEAR(got_fit[i], want_fit[i],
                1e-8 * (1.0 + std::fabs(want_fit[i])));
  }
}

TEST(GamFastpathTest, FitBitIdenticalAcrossThreadCounts) {
  // The logit input also covers PIRLS: its per-step λ search and its
  // stopping test must not depend on the thread count.
  for (LinkType link : {LinkType::kIdentity, LinkType::kLogit}) {
    SCOPED_TRACE(link == LinkType::kIdentity ? "identity" : "logit");
    Rng rng(405);
    Dataset data = link == LinkType::kIdentity ? MixedData(900, &rng)
                                               : SoftLabelData(900, &rng);
    GamConfig config = FastpathConfig();
    config.link = link;

    SetNumThreads(1);
    Gam serial;
    ASSERT_TRUE(serial.Fit(MixedTerms(), data, config));
    SetNumThreads(4);
    Gam parallel;
    ASSERT_TRUE(parallel.Fit(MixedTerms(), data, config));
    SetNumThreads(0);

    // The serialized state covers coefficients, centers, per-term λ,
    // covariance and importances at full precision: string equality
    // means every fitted double is bit-identical.
    EXPECT_EQ(serial.lambda(), parallel.lambda());
    EXPECT_EQ(serial.gcv_score(), parallel.gcv_score());
    ASSERT_EQ(serial.term_lambdas().size(), parallel.term_lambdas().size());
    for (size_t t = 0; t < serial.term_lambdas().size(); ++t) {
      EXPECT_EQ(serial.term_lambdas()[t], parallel.term_lambdas()[t]);
    }
    EXPECT_EQ(GamToString(serial), GamToString(parallel));
  }
}

TEST(GamFastpathTest, IdentityFitBuildsGramExactlyOnce) {
  Rng rng(406);
  Dataset data = MixedData(700, &rng);
  GamConfig config = FastpathConfig();  // 8-λ grid + coordinate descent

  obs::Enable("");
  obs::Flush();  // clear anything previous tests recorded
  Gam gam;
  ASSERT_TRUE(gam.Fit(MixedTerms(), data, config));
  obs::Aggregates aggregates = obs::Flush();
  obs::Disable();

  // The hoisting contract: one centered Gram build covers the entire
  // 8-candidate grid plus every coordinate-descent trial.
  EXPECT_EQ(aggregates.Counter("gam.gram_builds"), 1.0);
  // Sanity: the grid actually ran (one GCV point per candidate).
  EXPECT_GE(aggregates.metric_points.at("gam.gcv_trace"),
            config.lambda_grid.size());
}

// Runs one traced Fit and returns its aggregates.
obs::Aggregates TracedFit(const Dataset& data, const GamConfig& config) {
  obs::Enable("");
  obs::Flush();  // clear anything previous tests recorded
  Gam gam;
  EXPECT_TRUE(gam.Fit(MixedTerms(), data, config));
  obs::Aggregates aggregates = obs::Flush();
  obs::Disable();
  return aggregates;
}

TEST(GamFastpathTest, LogitFitStopsOnFlatDeviance) {
  Rng rng(408);
  Dataset data = SoftLabelData(700, &rng);
  GamConfig config = FastpathConfig();  // 8-λ grid + coordinate descent
  config.link = LinkType::kLogit;
  obs::Aggregates aggregates = TracedFit(data, config);

  // The deviance is flat before max_pirls_iters.
  EXPECT_EQ(aggregates.Counter("gam.pirls_capped"), 0.0);
  // One Gram build per PIRLS step covers the whole grid and descent of
  // that step, and the deviance stop ends the fit after a few steps.
  EXPECT_LE(aggregates.Counter("gam.gram_builds"), 15.0);
}

TEST(GamFastpathTest, CappedPirlsIsCounted) {
  Rng rng(409);
  Dataset data = SoftLabelData(500, &rng);
  GamConfig config;
  config.link = LinkType::kLogit;
  config.lambda_grid = {1e-2, 1.0};
  config.max_pirls_iters = 1;  // one step cannot see a flat deviance
  obs::Aggregates aggregates = TracedFit(data, config);

  // One step builds one Gram for the whole grid, and the fit is counted
  // once as stopped by the cap.
  EXPECT_EQ(aggregates.Counter("gam.gram_builds"), 1.0);
  EXPECT_EQ(aggregates.Counter("gam.pirls_capped"), 1.0);
}

TEST(GamFastpathTest, LogitLambdaMatchesBestSingleLambdaFit) {
  // The λ search runs on each PIRLS step's working model, not on the
  // converged deviance. Where the GCV surface is flat the two can pick
  // different grid points; the pick must still be as good as the best
  // λ fitted alone, to within the flatness of the surface. Here the fit
  // picks λ = 0.1, 1.9e-4 relative above λ = 0.01 fitted alone.
  Rng rng(408);  // LogitFitStopsOnFlatDeviance's data
  Dataset data = SoftLabelData(700, &rng);
  GamConfig config = FastpathConfig();
  config.link = LinkType::kLogit;
  config.per_term_lambda = false;
  Gam full;
  ASSERT_TRUE(full.Fit(MixedTerms(), data, config));

  double best_alone = std::numeric_limits<double>::infinity();
  for (double lambda : config.lambda_grid) {
    GamConfig single = config;
    single.lambda_grid = {lambda};
    Gam alone;
    ASSERT_TRUE(alone.Fit(MixedTerms(), data, single));
    best_alone = std::min(best_alone, alone.gcv_score());
  }
  EXPECT_LE(std::fabs(full.gcv_score() - best_alone), 1e-3 * best_alone);
}

TEST(GamFastpathTest, TraceOfProductSolveMatchesExplicitInverse) {
  Rng rng(407);
  const size_t p = 24;
  Matrix a(p, p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) a(i, j) = rng.Normal();
  }
  Matrix spd = GramWeighted(a, {});
  for (size_t i = 0; i < p; ++i) spd(i, i) += static_cast<double>(p);
  Matrix b(p, p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) b(i, j) = rng.Normal();
  }
  auto chol = Cholesky::Factorize(spd);
  ASSERT_TRUE(chol.has_value());
  Matrix product = MatMul(chol->Inverse(), b);
  double want = 0.0;
  for (size_t i = 0; i < p; ++i) want += product(i, i);
  EXPECT_NEAR(chol->TraceOfProductSolve(b), want,
              1e-9 * (1.0 + std::fabs(want)));
}

}  // namespace
}  // namespace gef
