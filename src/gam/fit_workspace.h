#ifndef GEF_GAM_FIT_WORKSPACE_H_
#define GEF_GAM_FIT_WORKSPACE_H_

// Shared per-Fit state for the GAM fast path (DESIGN.md §3.13). Each
// PIRLS step runs a GCV search that refits the same design under
// different penalties. The design, the per-term penalty blocks and the
// fixed ridge depend on neither λ nor the PIRLS weights, so the fitter
// builds them ONCE here; each step then builds one centered Gram and RHS
// from them, which its whole search reuses. The identity link takes one
// step, so its grid search (and the per-term coordinate descent after
// it) costs one Gram build total — the `gam.gram_builds` obs counter
// pins this.
//
// The design is held block-sparse and UNCENTERED: subtracting the column
// means would turn every zero into a dense entry. Instead the centered
// quantities are recovered exactly from the raw ones. With X the raw
// design, c the center vector (zero on intercept columns), u = XᵀW·1 and
// s_w = Σᵢ wᵢ:
//
//   (X − 1cᵀ)ᵀ W (X − 1cᵀ) = XᵀWX − u cᵀ − c uᵀ + s_w c cᵀ
//   (X − 1cᵀ)ᵀ W y         = XᵀWy − c (wᵀy)
//   (X − 1cᵀ) β            = Xβ − (cᵀβ)·1
//
// The corrections are O(p²), O(p), O(n) — noise next to the O(n·nnz²)
// sparse Gram they ride on. The Gram correction is applied to the upper
// triangle and mirrored, so the result is exactly symmetric.

#include <vector>

#include "data/dataset.h"
#include "gam/design.h"
#include "linalg/matrix.h"

namespace gef {

/// Everything a Fit needs that does not depend on λ or on the PIRLS
/// weights. Built once per Fit, shared by every step and candidate.
struct FitWorkspace {
  SparseDesign design;
  std::vector<double> centers;
  /// Raw unit-weight column sums Xᵀ1 (the u of the centering correction
  /// for unweighted fits; also n·centers on non-intercept columns).
  Vector column_sums;
  /// Unit penalty S_t per term (empty matrix for the intercept).
  std::vector<Matrix> penalty_blocks;
  Vector fixed_ridge;
  /// Scratch for AssemblePenalized: gram + Σ λ_t S_t + diag(ridge).
  /// Reused across candidates so the grid search allocates no p×p
  /// matrices after the first.
  Matrix penalized;
};

FitWorkspace BuildFitWorkspace(const TermList& terms, const Dataset& data,
                               const DesignLayout& layout);

/// Centered weighted Gram (X−1cᵀ)ᵀW(X−1cᵀ) from the raw sparse design.
/// `w` may be empty (unit weights). Increments the `gam.gram_builds`
/// counter once per PIRLS step — the fast-path regression test asserts
/// an identity-link Fit performs exactly one build across its whole λ
/// grid.
Matrix CenteredGramWeighted(const FitWorkspace& ws, const Vector& w);

/// Centered weighted RHS (X−1cᵀ)ᵀWy. `w` may be empty.
Vector CenteredGramWeightedRhs(const FitWorkspace& ws, const Vector& w,
                               const Vector& y);

/// Centered fitted values (X−1cᵀ)β.
Vector CenteredMatVec(const FitWorkspace& ws, const Vector& beta);

/// gram + Σ_t λ_t S_t + diag(fixed_ridge), assembled into ws->penalized.
/// Returns a reference to the scratch; valid until the next call.
const Matrix& AssemblePenalized(FitWorkspace* ws, const Matrix& gram,
                                const TermList& terms,
                                const DesignLayout& layout,
                                const std::vector<double>& lambdas);

}  // namespace gef

#endif  // GEF_GAM_FIT_WORKSPACE_H_
