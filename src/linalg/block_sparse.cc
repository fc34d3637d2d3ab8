#include "linalg/block_sparse.h"

#include "util/parallel.h"

namespace gef {
namespace {

// Fixed chunk grains: independent of the thread count so the reduction
// grids (and therefore every floating-point sum) are reproducible.
constexpr size_t kGramGrain = 1024;
constexpr size_t kVectorGrain = 4096;

}  // namespace

BlockSparseMatrix::BlockSparseMatrix(size_t rows, size_t cols,
                                     std::vector<Slot> slots)
    : rows_(rows), cols_(cols), slots_(std::move(slots)) {
  GEF_CHECK(!slots_.empty());
  int offset = 0;
  for (const Slot& s : slots_) {
    GEF_CHECK_EQ(s.value_offset, offset);
    GEF_CHECK_GT(s.length, 0);
    offset += s.length;
  }
  row_nnz_ = offset;
  GEF_CHECK_LE(static_cast<size_t>(row_nnz_), cols_);
  values_.assign(rows_ * static_cast<size_t>(row_nnz_), 0.0);
  starts_.assign(rows_ * slots_.size(), 0);
}

Matrix BlockSparseMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* vals = RowValues(i);
    const int* starts = RowStarts(i);
    double* out = dense.Row(i);
    for (int s = 0; s < num_slots(); ++s) {
      const Slot& slot = slots_[s];
      for (int k = 0; k < slot.length; ++k) {
        out[starts[s] + k] = vals[slot.value_offset + k];
      }
    }
  }
  return dense;
}

Matrix GramWeighted(const BlockSparseMatrix& a, const Vector& w) {
  GEF_CHECK(w.empty() || w.size() == a.rows());
  const size_t p = a.cols();
  const int num_slots = a.num_slots();
  // Upper-triangle accumulation: segments of a row are column-disjoint
  // and ordered, so slot pairs (s, s) hit the diagonal block and (s, t)
  // with s < t hit strictly-upper blocks. Per-chunk partial Grams are
  // combined in ascending chunk order — bit-identical at any thread
  // count — then mirrored once.
  auto chunk_gram = [&](size_t chunk_begin, size_t chunk_end) {
    Matrix g(p, p);
    for (size_t i = chunk_begin; i < chunk_end; ++i) {
      const double wi = w.empty() ? 1.0 : w[i];
      if (wi == 0.0) continue;
      const double* vals = a.RowValues(i);
      const int* starts = a.RowStarts(i);
      for (int s = 0; s < num_slots; ++s) {
        const BlockSparseMatrix::Slot& sa = a.slot(s);
        for (int j = 0; j < sa.length; ++j) {
          const double v = wi * vals[sa.value_offset + j];
          if (v == 0.0) continue;
          double* grow = g.Row(starts[s] + j);
          for (int k = j; k < sa.length; ++k) {
            grow[starts[s] + k] += v * vals[sa.value_offset + k];
          }
          for (int t = s + 1; t < num_slots; ++t) {
            const BlockSparseMatrix::Slot& sb = a.slot(t);
            double* gcol = grow + starts[t];
            const double* bvals = vals + sb.value_offset;
            for (int k = 0; k < sb.length; ++k) gcol[k] += v * bvals[k];
          }
        }
      }
    }
    return g;
  };
  Matrix g = ParallelReduce<Matrix>(
      0, a.rows(), kGramGrain, Matrix(p, p), chunk_gram,
      [](Matrix* acc, Matrix part) { acc->Add(part); });
  for (size_t j = 0; j < p; ++j) {
    for (size_t k = j + 1; k < p; ++k) g(k, j) = g(j, k);
  }
  return g;
}

Vector GramWeightedRhs(const BlockSparseMatrix& a, const Vector& w,
                       const Vector& y) {
  GEF_CHECK_EQ(a.rows(), y.size());
  GEF_CHECK(w.empty() || w.size() == a.rows());
  const int num_slots = a.num_slots();
  auto chunk_rhs = [&](size_t chunk_begin, size_t chunk_end) {
    Vector r(a.cols(), 0.0);
    for (size_t i = chunk_begin; i < chunk_end; ++i) {
      const double wy = (w.empty() ? 1.0 : w[i]) * y[i];
      if (wy == 0.0) continue;
      const double* vals = a.RowValues(i);
      const int* starts = a.RowStarts(i);
      for (int s = 0; s < num_slots; ++s) {
        const BlockSparseMatrix::Slot& slot = a.slot(s);
        for (int k = 0; k < slot.length; ++k) {
          r[starts[s] + k] += wy * vals[slot.value_offset + k];
        }
      }
    }
    return r;
  };
  return ParallelReduce<Vector>(
      0, a.rows(), kVectorGrain, Vector(a.cols(), 0.0), chunk_rhs,
      [](Vector* acc, Vector part) {
        for (size_t j = 0; j < acc->size(); ++j) (*acc)[j] += part[j];
      });
}

Vector MatVec(const BlockSparseMatrix& a, const Vector& x) {
  GEF_CHECK_EQ(a.cols(), x.size());
  Vector y(a.rows(), 0.0);
  const int num_slots = a.num_slots();
  ParallelFor(0, a.rows(), kVectorGrain, [&](size_t i) {
    const double* vals = a.RowValues(i);
    const int* starts = a.RowStarts(i);
    double sum = 0.0;
    for (int s = 0; s < num_slots; ++s) {
      const BlockSparseMatrix::Slot& slot = a.slot(s);
      for (int k = 0; k < slot.length; ++k) {
        sum += vals[slot.value_offset + k] * x[starts[s] + k];
      }
    }
    y[i] = sum;
  });
  return y;
}

Vector MatTVec(const BlockSparseMatrix& a, const Vector& x) {
  GEF_CHECK_EQ(a.rows(), x.size());
  return GramWeightedRhs(a, {}, x);
}

Vector ColumnSums(const BlockSparseMatrix& a) {
  return GramWeightedRhs(a, {}, Vector(a.rows(), 1.0));
}

Vector MatVecSlots(const BlockSparseMatrix& a, int slot_begin,
                   int slot_end, int col_base, const Vector& beta) {
  GEF_CHECK(0 <= slot_begin && slot_begin < slot_end &&
            slot_end <= a.num_slots());
  Vector y(a.rows(), 0.0);
  ParallelFor(0, a.rows(), kVectorGrain, [&](size_t i) {
    const double* vals = a.RowValues(i);
    const int* starts = a.RowStarts(i);
    double sum = 0.0;
    for (int s = slot_begin; s < slot_end; ++s) {
      const BlockSparseMatrix::Slot& slot = a.slot(s);
      for (int k = 0; k < slot.length; ++k) {
        sum += vals[slot.value_offset + k] *
               beta[starts[s] - col_base + k];
      }
    }
    y[i] = sum;
  });
  return y;
}

}  // namespace gef
