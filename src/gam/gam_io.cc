#include "gam/gam_io.h"

#include <sstream>

#include "util/hash.h"
#include "util/string_util.h"
#include "util/validate.h"

namespace gef {
namespace {

constexpr char kMagic[] = "gef_gam v1";

void WriteVector(std::ostream& out, const std::string& key,
                 const Vector& values) {
  out << key;
  for (double v : values) out << ' ' << v;
  out << "\n";
}

class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  // Next non-empty line, trimmed; false at end of input.
  bool Next(std::string* line) {
    std::string raw;
    while (std::getline(in_, raw)) {
      std::string_view trimmed = Trim(raw);
      if (!trimmed.empty()) {
        *line = std::string(trimmed);
        return true;
      }
    }
    return false;
  }

 private:
  std::istringstream in_;
};

Status ParseVector(const std::string& line, const std::string& key,
                   size_t expected, Vector* out) {
  std::vector<std::string> fields = Split(line, ' ');
  if (fields.empty() || fields[0] != key) {
    return Status::ParseError("expected '" + key + "', got: " + line);
  }
  out->clear();
  for (size_t i = 1; i < fields.size(); ++i) {
    if (Trim(fields[i]).empty()) continue;
    double value = 0.0;
    if (!ParseDouble(fields[i], &value)) {
      return Status::ParseError("bad number in " + key);
    }
    out->push_back(value);
  }
  if (expected != 0 && out->size() != expected) {
    return Status::ParseError(key + " has wrong length");
  }
  return Status::Ok();
}

void WriteTerm(std::ostream& out, const Term& term) {
  switch (term.type()) {
    case TermType::kIntercept:
      out << "term intercept\n";
      return;
    case TermType::kSpline: {
      const auto& spline = static_cast<const SplineTerm&>(term);
      // Explicit knot vector: round-trips both uniform and quantile
      // knot layouts.
      out << "term spline " << spline.feature() << ' '
          << spline.basis().degree() << ' ' << spline.penalty_order()
          << ' ' << spline.basis().knots().size();
      for (double k : spline.basis().knots()) out << ' ' << k;
      out << "\n";
      return;
    }
    case TermType::kFactor: {
      const auto& factor = static_cast<const FactorTerm&>(term);
      out << "term factor " << factor.feature();
      for (double level : factor.levels()) out << ' ' << level;
      out << "\n";
      return;
    }
    case TermType::kTensor: {
      const auto& tensor = static_cast<const TensorTerm&>(term);
      out << "term tensor " << tensor.feature_a() << ' '
          << tensor.feature_b() << ' ' << tensor.basis_a().degree()
          << ' ' << tensor.penalty_order() << ' '
          << tensor.basis_a().knots().size() << ' '
          << tensor.basis_b().knots().size();
      for (double k : tensor.basis_a().knots()) out << ' ' << k;
      for (double k : tensor.basis_b().knots()) out << ' ' << k;
      out << "\n";
      return;
    }
  }
}

StatusOr<std::unique_ptr<Term>> ParseTerm(const std::string& line) {
  std::vector<std::string> f = Split(line, ' ');
  if (f.size() < 2 || f[0] != "term") {
    return Status::ParseError("expected a term line, got: " + line);
  }
  auto as_int = [&f](size_t i, int* out) {
    return i < f.size() && ParseInt(f[i], out);
  };
  auto as_double = [&f](size_t i, double* out) {
    return i < f.size() && ParseDouble(f[i], out);
  };

  if (f[1] == "intercept") {
    return std::unique_ptr<Term>(std::make_unique<InterceptTerm>());
  }
  auto read_knots = [&f, &as_double](size_t begin, int count,
                                     std::vector<double>* knots) {
    knots->clear();
    for (int i = 0; i < count; ++i) {
      double value = 0.0;
      if (!as_double(begin + i, &value)) return false;
      if (!knots->empty() && value < knots->back()) return false;
      knots->push_back(value);
    }
    return true;
  };

  if (f[1] == "spline") {
    int feature = 0, degree = 0, order = 0, num_knots = 0;
    if (!as_int(2, &feature) || !as_int(3, &degree) ||
        !as_int(4, &order) || !as_int(5, &num_knots) || feature < 0 ||
        degree < 1 || order < 1 ||
        num_knots < 2 * (degree + 1) ||
        f.size() != static_cast<size_t>(num_knots) + 6) {
      return Status::ParseError("bad spline term: " + line);
    }
    std::vector<double> knots;
    if (!read_knots(6, num_knots, &knots) ||
        knots[degree] >= knots[num_knots - degree - 1]) {
      return Status::ParseError("bad spline knots: " + line);
    }
    int num_basis = num_knots - degree - 1;
    if (order >= num_basis) {
      return Status::ParseError("bad spline order: " + line);
    }
    return std::unique_ptr<Term>(std::make_unique<SplineTerm>(
        feature, BSplineBasis::FromKnots(std::move(knots), degree),
        order));
  }
  if (f[1] == "factor") {
    int feature = 0;
    if (!as_int(2, &feature) || feature < 0 || f.size() < 4) {
      return Status::ParseError("bad factor term: " + line);
    }
    std::vector<double> levels;
    for (size_t i = 3; i < f.size(); ++i) {
      double level = 0.0;
      if (!ParseDouble(f[i], &level)) {
        return Status::ParseError("bad factor level: " + line);
      }
      levels.push_back(level);
    }
    return std::unique_ptr<Term>(
        std::make_unique<FactorTerm>(feature, std::move(levels)));
  }
  if (f[1] == "tensor") {
    int fa = 0, fb = 0, degree = 0, order = 0;
    int knots_a = 0, knots_b = 0;
    if (!as_int(2, &fa) || !as_int(3, &fb) || !as_int(4, &degree) ||
        !as_int(5, &order) || !as_int(6, &knots_a) ||
        !as_int(7, &knots_b) || fa < 0 || fb < 0 || fa == fb ||
        degree < 1 || order < 1 || knots_a < 2 * (degree + 1) ||
        knots_b < 2 * (degree + 1) ||
        f.size() != static_cast<size_t>(knots_a + knots_b) + 8) {
      return Status::ParseError("bad tensor term: " + line);
    }
    std::vector<double> ka, kb;
    if (!read_knots(8, knots_a, &ka) ||
        !read_knots(8 + knots_a, knots_b, &kb) ||
        ka[degree] >= ka[knots_a - degree - 1] ||
        kb[degree] >= kb[knots_b - degree - 1]) {
      return Status::ParseError("bad tensor knots: " + line);
    }
    int nb_a = knots_a - degree - 1;
    int nb_b = knots_b - degree - 1;
    if (order >= nb_a || order >= nb_b) {
      return Status::ParseError("bad tensor order: " + line);
    }
    return std::unique_ptr<Term>(std::make_unique<TensorTerm>(
        fa, BSplineBasis::FromKnots(std::move(ka), degree), fb,
        BSplineBasis::FromKnots(std::move(kb), degree), order));
  }
  return Status::ParseError("unknown term type: " + line);
}

}  // namespace

std::string GamToString(const Gam& gam) {
  GEF_CHECK_MSG(gam.fitted(), "cannot serialize an unfitted GAM");
  std::ostringstream out;
  out.precision(17);
  out << kMagic << "\n";
  out << "link "
      << (gam.link_ == LinkType::kLogit ? "logit" : "identity") << "\n";
  out << "lambda " << gam.lambda_ << "\n";
  out << "gcv " << gam.gcv_score_ << "\n";
  out << "edof " << gam.edof_ << "\n";
  out << "scale " << gam.scale_ << "\n";
  out << "num_feature_names " << gam.feature_names_.size() << "\n";
  for (const std::string& name : gam.feature_names_) {
    out << "feature " << name << "\n";
  }
  out << "num_terms " << gam.terms_.size() << "\n";
  for (const auto& term : gam.terms_) WriteTerm(out, *term);
  WriteVector(out, "lambdas", gam.lambdas_);
  WriteVector(out, "importances", gam.term_importances_);
  WriteVector(out, "centers", gam.centers_);
  WriteVector(out, "beta", gam.beta_);
  out << "covariance " << gam.covariance_.rows() << "\n";
  for (size_t i = 0; i < gam.covariance_.rows(); ++i) {
    out << "cov_row";
    for (size_t j = 0; j < gam.covariance_.cols(); ++j) {
      out << ' ' << gam.covariance_(i, j);
    }
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

StatusOr<Gam> GamFromString(const std::string& text) {
  LineReader reader(text);
  std::string line;
  if (!reader.Next(&line) || line != kMagic) {
    return Status::ParseError("bad or missing GAM header");
  }

  auto read_field = [&reader, &line](const std::string& key,
                                     std::string* value) -> Status {
    if (!reader.Next(&line)) {
      return Status::ParseError("truncated GAM: expected " + key);
    }
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() < 2 || fields[0] != key) {
      return Status::ParseError("expected '" + key + "', got: " + line);
    }
    *value = fields[1];
    return Status::Ok();
  };

  Gam gam;
  std::string value;
  if (Status s = read_field("link", &value); !s.ok()) return s;
  if (value != "identity" && value != "logit") {
    return Status::ParseError("unknown link: " + value);
  }
  gam.link_ = value == "logit" ? LinkType::kLogit : LinkType::kIdentity;

  auto read_double_field = [&](const std::string& key,
                               double* out) -> Status {
    std::string raw;
    if (Status s = read_field(key, &raw); !s.ok()) return s;
    if (!ParseDouble(raw, out)) {
      return Status::ParseError("bad " + key + ": " + raw);
    }
    return Status::Ok();
  };
  if (Status s = read_double_field("lambda", &gam.lambda_); !s.ok()) {
    return s;
  }
  if (Status s = read_double_field("gcv", &gam.gcv_score_); !s.ok()) {
    return s;
  }
  if (Status s = read_double_field("edof", &gam.edof_); !s.ok()) return s;
  if (Status s = read_double_field("scale", &gam.scale_); !s.ok()) {
    return s;
  }

  if (Status s = read_field("num_feature_names", &value); !s.ok()) {
    return s;
  }
  int num_names = 0;
  if (!ParseInt(value, &num_names) || num_names < 0) {
    return Status::ParseError("bad num_feature_names");
  }
  for (int i = 0; i < num_names; ++i) {
    if (Status s = read_field("feature", &value); !s.ok()) return s;
    gam.feature_names_.push_back(value);
  }

  if (Status s = read_field("num_terms", &value); !s.ok()) return s;
  int num_terms = 0;
  if (!ParseInt(value, &num_terms) || num_terms < 1) {
    return Status::ParseError("bad num_terms");
  }
  for (int t = 0; t < num_terms; ++t) {
    if (!reader.Next(&line)) {
      return Status::ParseError("truncated term list");
    }
    StatusOr<std::unique_ptr<Term>> term = ParseTerm(line);
    if (!term.ok()) return term.status();
    gam.terms_.push_back(std::move(term).value());
  }
  gam.layout_ = ComputeLayout(gam.terms_);
  const size_t p = static_cast<size_t>(gam.layout_.total_cols);

  if (!reader.Next(&line)) return Status::ParseError("truncated GAM");
  if (Status s = ParseVector(line, "lambdas",
                             static_cast<size_t>(num_terms),
                             &gam.lambdas_);
      !s.ok()) {
    return s;
  }
  if (!reader.Next(&line)) return Status::ParseError("truncated GAM");
  Vector importances;
  if (Status s = ParseVector(line, "importances",
                             static_cast<size_t>(num_terms),
                             &importances);
      !s.ok()) {
    return s;
  }
  gam.term_importances_ = std::move(importances);
  if (!reader.Next(&line)) return Status::ParseError("truncated GAM");
  if (Status s = ParseVector(line, "centers", p, &gam.centers_); !s.ok()) {
    return s;
  }
  if (!reader.Next(&line)) return Status::ParseError("truncated GAM");
  if (Status s = ParseVector(line, "beta", p, &gam.beta_); !s.ok()) {
    return s;
  }

  if (Status s = read_field("covariance", &value); !s.ok()) return s;
  int cov_rows = 0;
  if (!ParseInt(value, &cov_rows) ||
      cov_rows != static_cast<int>(p)) {
    return Status::ParseError("covariance size mismatch");
  }
  gam.covariance_ = Matrix(p, p);
  Vector row;
  for (size_t i = 0; i < p; ++i) {
    if (!reader.Next(&line)) {
      return Status::ParseError("truncated covariance");
    }
    if (Status s = ParseVector(line, "cov_row", p, &row); !s.ok()) {
      return s;
    }
    for (size_t j = 0; j < p; ++j) gam.covariance_(i, j) = row[j];
  }

  if (!reader.Next(&line) || line != "end") {
    return Status::ParseError("missing 'end' marker");
  }
  gam.SetMinRowWidth();
  gam.fitted_ = true;
  if (Status s = ValidateGam(gam); !s.ok()) {
    return Status::ParseError("invalid GAM model: " + s.message());
  }
  return gam;
}

// Defined here rather than gam.cc: the hash is an identity over this
// file's canonical text format, so it lives (and changes) with it.
uint64_t Gam::ContentHash() const {
  return HashFnv1a64(GamToString(*this));
}

}  // namespace gef
