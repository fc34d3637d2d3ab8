#ifndef GEF_GAM_LINK_H_
#define GEF_GAM_LINK_H_

// Link functions (paper Sec. 3.5): identity + Normal for regression,
// logit + Binomial for classification. Also home of EffectInterval, so
// the Surrogate interface (surrogate/surrogate.h) needs only this
// dependency-free header from the gam layer.

namespace gef {

enum class LinkType {
  kIdentity,  // l(mu) = mu
  kLogit,     // l(mu) = log(mu / (1 - mu))
};

/// mu = l⁻¹(eta).
double LinkInverse(LinkType link, double eta);

/// eta = l(mu). For the logit link mu is clamped away from {0, 1}.
double LinkApply(LinkType link, double mu);

/// GLM variance function V(mu): 1 for Normal, mu(1-mu) for Binomial.
double LinkVariance(LinkType link, double mu);

/// Unit deviance d(y, mu); summed over instances it forms the model
/// deviance used by the logistic GCV criterion.
double UnitDeviance(LinkType link, double y, double mu);

/// Pointwise partial effect with its 95% Bayesian credible interval
/// (Wood 2006), as drawn in the paper's spline plots.
struct EffectInterval {
  double value = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};

}  // namespace gef

#endif  // GEF_GAM_LINK_H_
