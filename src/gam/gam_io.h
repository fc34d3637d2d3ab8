#ifndef GEF_GAM_GAM_IO_H_
#define GEF_GAM_GAM_IO_H_

// Text (de)serialization for fitted GAMs. Completes the paper's hand-off
// story: after the third party distills the forest into Γ, the *GAM
// itself* becomes the shippable artifact — deployable (Table 2 shows it
// can replace the forest) and auditable without re-running the pipeline.
//
// The format captures everything prediction and explanation need: term
// specs, centering constants, coefficients, the scaled posterior
// covariance (for credible intervals), link and fit metadata.

#include <string>

#include "gam/gam.h"
#include "util/status.h"

namespace gef {

/// Serializes a fitted GAM.
std::string GamToString(const Gam& gam);

/// Reconstructs a fitted GAM; predictions, term contributions and
/// credible intervals round-trip bit-exactly up to decimal printing.
StatusOr<Gam> GamFromString(const std::string& text);

// Gam::ContentHash() — FNV-1a 64 (util/hash.h) over GamToString bytes —
// is defined in gam_io.cc so the identity stays welded to the canonical
// format; text round-trips preserve it.

}  // namespace gef

#endif  // GEF_GAM_GAM_IO_H_
