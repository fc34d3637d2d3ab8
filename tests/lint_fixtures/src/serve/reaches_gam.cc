// Planted violation: serve sits above the surrogate layer, so it reaches
// the surrogate only through surrogate/surrogate.h. (A downward include,
// so gef-layer-order stays quiet; only gef-gam-boundary fires.)
#include "gam/gam.h"

int fixture_symbol() { return 0; }
