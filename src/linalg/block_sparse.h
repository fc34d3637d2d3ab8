#ifndef GEF_LINALG_BLOCK_SPARSE_H_
#define GEF_LINALG_BLOCK_SPARSE_H_

// Block-sparse row storage for structured design matrices. A GAM design
// row is almost entirely zero: a B-spline term block carries exactly
// degree+1 consecutive nonzeros, a factor block exactly one, and a
// tensor-product block (d+1) short runs of (d+1). Every row therefore
// decomposes into the same fixed set of dense *segments* ("slots"): the
// segment lengths and the packing of their values are properties of the
// matrix, only the column where each segment starts varies per row.
//
// The kernels below exploit that: Gram / RHS / mat-vec products touch
// only nonzero×nonzero pairs, turning the O(n·p²) dense accumulations
// into O(n·nnz²) where nnz = Σ segment lengths per row (§DESIGN.md
// 3.13). All reductions fan out over a *fixed* row-chunk grid and
// combine per-chunk partials in ascending chunk order (util/parallel.h),
// so every result is bit-identical at any GEF_NUM_THREADS.

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "util/check.h"

namespace gef {

/// Row-major block-sparse matrix with a fixed per-row segment pattern.
class BlockSparseMatrix {
 public:
  /// One dense segment every row carries: `length` consecutive values
  /// stored at `value_offset` within the row's packed value array. The
  /// column the segment starts at varies per row (RowStarts).
  struct Slot {
    int value_offset = 0;
    int length = 0;
  };

  BlockSparseMatrix() = default;

  /// `slots` must be non-empty with consecutive value offsets. Rows are
  /// zero-initialized; fill them via RowValues/RowStarts. Segments of a
  /// row must not overlap in columns (kernels assume disjoint targets).
  BlockSparseMatrix(size_t rows, size_t cols, std::vector<Slot> slots);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  /// Nonzero values stored per row (Σ slot lengths).
  int row_nnz() const { return row_nnz_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }
  const Slot& slot(int s) const { return slots_[s]; }

  /// Packed nonzero values of row `i` (row_nnz doubles; slot `s` lives
  /// at [slot(s).value_offset, +slot(s).length)).
  double* RowValues(size_t i) {
    GEF_DCHECK(i < rows_);
    return values_.data() + i * row_nnz_;
  }
  const double* RowValues(size_t i) const {
    GEF_DCHECK(i < rows_);
    return values_.data() + i * row_nnz_;
  }

  /// Absolute start column of each segment of row `i` (num_slots ints).
  int* RowStarts(size_t i) {
    GEF_DCHECK(i < rows_);
    return starts_.data() + i * slots_.size();
  }
  const int* RowStarts(size_t i) const {
    GEF_DCHECK(i < rows_);
    return starts_.data() + i * slots_.size();
  }

  /// Expands to the equivalent dense matrix (tests and fallbacks).
  Matrix ToDense() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  int row_nnz_ = 0;
  std::vector<Slot> slots_;
  std::vector<double> values_;  // rows_ x row_nnz_
  std::vector<int> starts_;     // rows_ x slots_.size()
};

/// Aᵀ diag(w) A over the nonzero pattern only: O(n·nnz²). `w` may be
/// empty (unit weights). Bit-identical at every thread count.
Matrix GramWeighted(const BlockSparseMatrix& a, const Vector& w);

/// Aᵀ diag(w) y. `w` may be empty, meaning unit weights.
Vector GramWeightedRhs(const BlockSparseMatrix& a, const Vector& w,
                       const Vector& y);

/// y = A x, touching only nonzeros: O(n·nnz).
Vector MatVec(const BlockSparseMatrix& a, const Vector& x);

/// y = Aᵀ x, touching only nonzeros: O(n·nnz).
Vector MatTVec(const BlockSparseMatrix& a, const Vector& x);

/// Per-column sums Aᵀ 1 (the design-centering statistic).
Vector ColumnSums(const BlockSparseMatrix& a);

/// B beta, where B is the column block that the slots [slot_begin,
/// slot_end) cover (e.g. one GAM term) and `col_base` its first column;
/// beta has one entry per block column. A view: the block is never copied
/// out of the design.
Vector MatVecSlots(const BlockSparseMatrix& a, int slot_begin,
                   int slot_end, int col_base, const Vector& beta);

}  // namespace gef

#endif  // GEF_LINALG_BLOCK_SPARSE_H_
