// Property-based sweeps over the numeric substrate the GEF pipeline
// stands on, driven by a fixed-seed gef::Rng so every run checks the
// same 200+ random configurations:
//
//  * B-spline bases (uniform-knot and FromSites): partition of unity,
//    non-negativity, local support (≤ degree+1 active functions), and
//    derivative consistency of random spline curves (Richardson check
//    on central differences).
//  * Cholesky jitter fallback on near-singular PSD matrices: the
//    factorization must succeed, report its jitter, and solve
//    (A + jitter·I) x = b accurately.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "gam/bspline.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "stats/rng.h"

namespace gef {
namespace {

// ---------------------------------------------------------------------
// B-spline properties.

struct BSplineConfig {
  double lo;
  double hi;
  int num_basis;
  int degree;
};

BSplineConfig RandomConfig(Rng* rng) {
  BSplineConfig config;
  config.degree = 1 + static_cast<int>(rng->UniformInt(3));  // 1..3
  config.num_basis =
      config.degree + 1 + static_cast<int>(rng->UniformInt(20));
  config.lo = rng->Uniform(-10.0, 10.0);
  config.hi = config.lo + rng->Uniform(0.5, 20.0);
  return config;
}

TEST(BSplinePropertyTest, PartitionOfUnityAndLocalSupport) {
  Rng rng(7001);
  for (int trial = 0; trial < 200; ++trial) {
    BSplineConfig config = RandomConfig(&rng);
    BSplineBasis basis(config.lo, config.hi, config.num_basis,
                       config.degree);
    ASSERT_EQ(basis.num_basis(), config.num_basis);
    std::vector<double> values(config.num_basis);
    for (int probe = 0; probe < 8; ++probe) {
      double x = rng.Uniform(config.lo, config.hi);
      basis.Evaluate(x, values.data());
      double sum = 0.0;
      int active = 0;
      for (double v : values) {
        EXPECT_GE(v, 0.0) << "trial " << trial << " x=" << x;
        sum += v;
        if (v > 1e-12) ++active;
      }
      // Partition of unity on [lo, hi].
      EXPECT_NEAR(sum, 1.0, 1e-9) << "trial " << trial << " x=" << x;
      // Local support: at most degree+1 basis functions are non-zero
      // at any point.
      EXPECT_LE(active, config.degree + 1)
          << "trial " << trial << " x=" << x;
      EXPECT_GE(active, 1) << "trial " << trial << " x=" << x;
    }
    // Clamping: outside [lo, hi] the basis evaluates as at the border.
    std::vector<double> at_lo = basis.Evaluate(config.lo);
    std::vector<double> below = basis.Evaluate(config.lo - 3.0);
    EXPECT_EQ(at_lo, below) << "trial " << trial;
  }
}

TEST(BSplinePropertyTest, FromSitesKeepsPartitionOfUnity) {
  Rng rng(7002);
  for (int trial = 0; trial < 200; ++trial) {
    size_t num_sites = 10 + rng.UniformInt(200);
    std::vector<double> sites(num_sites);
    for (double& s : sites) s = rng.Normal(0.0, 2.0);
    std::sort(sites.begin(), sites.end());
    int requested = 5 + static_cast<int>(rng.UniformInt(12));
    BSplineBasis basis = BSplineBasis::FromSites(sites, requested);
    ASSERT_GE(basis.num_basis(), 1);
    ASSERT_LE(basis.num_basis(), requested);
    std::vector<double> values(basis.num_basis());
    for (int probe = 0; probe < 5; ++probe) {
      double x = rng.Uniform(sites.front(), sites.back());
      basis.Evaluate(x, values.data());
      double sum = 0.0;
      for (double v : values) {
        EXPECT_GE(v, 0.0);
        sum += v;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9)
          << "trial " << trial << " x=" << x;
    }
  }
}

TEST(BSplinePropertyTest, DerivativeConsistencyOfRandomCurves) {
  // A random spline curve s(x) = Σ c_i B_i(x) must have consistent
  // central differences: halving h changes the estimate by O(h²) for
  // the C¹ (degree ≥ 2) bases. Also, because Σ B_i ≡ 1, the summed
  // basis derivative is exactly zero.
  Rng rng(7003);
  int checked = 0;
  while (checked < 200) {
    BSplineConfig config = RandomConfig(&rng);
    if (config.degree < 2) continue;  // degree-1 derivative is not C⁰
    ++checked;
    BSplineBasis basis(config.lo, config.hi, config.num_basis,
                       config.degree);
    std::vector<double> coeffs(config.num_basis);
    for (double& c : coeffs) c = rng.Normal(0.0, 1.0);
    double range = config.hi - config.lo;
    double h = range * 1e-4;
    auto curve = [&](double x) {
      std::vector<double> values = basis.Evaluate(x);
      double s = 0.0;
      for (int i = 0; i < config.num_basis; ++i) {
        s += coeffs[i] * values[i];
      }
      return s;
    };
    // Stay away from the clamped boundary by a few steps.
    double x = rng.Uniform(config.lo + 4.0 * h, config.hi - 4.0 * h);
    double d_h = (curve(x + h) - curve(x - h)) / (2.0 * h);
    double d_h2 =
        (curve(x + 0.5 * h) - curve(x - 0.5 * h)) / h;
    // Scale of s' is ~num_basis/range; allow a generous consistency gap
    // plus the O(h²) truncation term.
    double scale =
        1.0 + std::fabs(d_h) +
        static_cast<double>(config.num_basis) / range;
    EXPECT_LE(std::fabs(d_h - d_h2), 1e-3 * scale)
        << "degree=" << config.degree << " x=" << x;

    // Summed basis derivative: derivative of the constant 1.
    std::vector<double> up = basis.Evaluate(x + h);
    std::vector<double> down = basis.Evaluate(x - h);
    double summed = 0.0;
    for (int i = 0; i < config.num_basis; ++i) {
      summed += (up[i] - down[i]) / (2.0 * h);
    }
    EXPECT_NEAR(summed, 0.0, 1e-6) << "x=" << x;
  }
}

// ---------------------------------------------------------------------
// Cholesky jitter fallback on near-singular PSD matrices.

// Rank-deficient PSD matrix A = B Bᵀ with B ∈ R^{n×r}, r < n.
Matrix RandomRankDeficientPsd(size_t n, size_t rank, Rng* rng) {
  Matrix b(n, rank);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < rank; ++j) {
      b(i, j) = rng->Normal(0.0, 1.0);
    }
  }
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (size_t k = 0; k < rank; ++k) dot += b(i, k) * b(j, k);
      a(i, j) = dot;
    }
  }
  return a;
}

TEST(CholeskyPropertyTest, JitterFallbackSolvesNearSingularPsd) {
  Rng rng(7200);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = 4 + rng.UniformInt(9);          // 4..12
    size_t rank = 1 + rng.UniformInt(n - 1);   // 1..n-1: singular
    Matrix a = RandomRankDeficientPsd(n, rank, &rng);

    auto chol = Cholesky::Factorize(a);
    ASSERT_TRUE(chol.has_value())
        << "trial " << trial << " n=" << n << " rank=" << rank;
    // A is exactly singular, so the fallback must have added jitter
    // (up to floating-point luck, which never makes it negative).
    EXPECT_GE(chol->jitter(), 0.0);

    // What was factorized is A + jitter·I: the solve must satisfy it.
    Vector x_true(n);
    for (double& v : x_true) v = rng.Normal(0.0, 1.0);
    Matrix a_jittered = a;
    for (size_t i = 0; i < n; ++i) {
      a_jittered(i, i) += chol->jitter();
    }
    Vector rhs = MatVec(a_jittered, x_true);
    Vector x = chol->Solve(rhs);
    Vector reconstructed = MatVec(a_jittered, x);
    double residual = 0.0;
    double scale = 1.0 + Norm(rhs);
    for (size_t i = 0; i < n; ++i) {
      residual = std::max(residual,
                          std::fabs(reconstructed[i] - rhs[i]));
    }
    EXPECT_LE(residual, 1e-6 * scale)
        << "trial " << trial << " n=" << n << " rank=" << rank
        << " jitter=" << chol->jitter();
  }
}

TEST(CholeskyPropertyTest, WellConditionedSpdNeedsNoJitter) {
  Rng rng(7201);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 3 + rng.UniformInt(8);
    Matrix a = RandomRankDeficientPsd(n, n, &rng);
    // Strong diagonal dominance: comfortably positive definite.
    for (size_t i = 0; i < n; ++i) {
      a(i, i) += static_cast<double>(n);
    }
    auto chol = Cholesky::Factorize(a);
    ASSERT_TRUE(chol.has_value()) << "trial " << trial;
    EXPECT_DOUBLE_EQ(chol->jitter(), 0.0) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gef
