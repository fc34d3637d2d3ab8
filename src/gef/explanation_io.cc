#include "gef/explanation_io.h"

#include <sstream>

#include "surrogate/registry.h"
#include "surrogate/spline_gam.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gef {
namespace {

constexpr char kMagic[] = "gef_explanation v1";
// The spline backend keeps the pre-interface format byte-for-byte
// (magic, metadata, "--- gam ---", GamToString): every explanation
// packed into a `.gefs` store before backends existed stays loadable,
// and the golden byte-parity tests stay green. Other backends insert a
// "backend <name>" line after the magic and serialize under the
// generic marker.
constexpr char kGamMarker[] = "--- gam ---";
constexpr char kSurrogateMarker[] = "--- surrogate ---";
constexpr char kBackendKey[] = "backend";

template <typename T>
void WriteIndexLine(std::ostream& out, const std::string& key,
                    const std::vector<T>& values) {
  out << key << ' ' << values.size();
  for (const T& v : values) out << ' ' << v;
  out << "\n";
}

}  // namespace

std::string ExplanationToString(const GefExplanation& explanation) {
  GEF_CHECK(explanation.fitted());
  const bool spline =
      explanation.surrogate->backend_name() == SplineGamSurrogate::kName;
  std::ostringstream out;
  out.precision(17);
  out << kMagic << "\n";
  if (!spline) {
    out << kBackendKey << ' ' << explanation.surrogate->backend_name()
        << "\n";
  }
  out << "fidelity_train " << explanation.fidelity_rmse_train << "\n";
  out << "fidelity_test " << explanation.fidelity_rmse_test << "\n";

  WriteIndexLine(out, "selected", explanation.selected_features);
  std::vector<int> categorical;
  for (bool c : explanation.is_categorical) categorical.push_back(c);
  WriteIndexLine(out, "categorical", categorical);
  WriteIndexLine(out, "univariate_terms",
                 explanation.univariate_term_index);
  std::vector<int> pair_flat;
  for (const auto& [a, b] : explanation.selected_pairs) {
    pair_flat.push_back(a);
    pair_flat.push_back(b);
  }
  WriteIndexLine(out, "pairs", pair_flat);
  WriteIndexLine(out, "bivariate_terms",
                 explanation.bivariate_term_index);

  out << "num_domains " << explanation.domains.size() << "\n";
  for (size_t f = 0; f < explanation.domains.size(); ++f) {
    out << "domain " << f << ' ' << explanation.domains[f].size();
    for (double v : explanation.domains[f]) out << ' ' << v;
    out << "\n";
  }
  out << (spline ? kGamMarker : kSurrogateMarker) << "\n";
  out << explanation.surrogate->SerializeText();
  return out.str();
}

StatusOr<std::unique_ptr<GefExplanation>> ExplanationFromString(
    const std::string& text) {
  bool spline = true;
  size_t marker = text.find(kGamMarker);
  size_t marker_size = std::string(kGamMarker).size();
  if (marker == std::string::npos) {
    spline = false;
    marker = text.find(kSurrogateMarker);
    marker_size = std::string(kSurrogateMarker).size();
  }
  if (marker == std::string::npos) {
    return Status::ParseError("missing surrogate section");
  }
  std::string head = text.substr(0, marker);
  std::string model_text = text.substr(marker + marker_size);

  std::istringstream in(head);
  std::string line;
  bool pushed_back = false;
  auto next_line = [&in, &line, &pushed_back]() {
    if (pushed_back) {
      pushed_back = false;
      return true;
    }
    while (std::getline(in, line)) {
      std::string_view trimmed = Trim(line);
      if (!trimmed.empty()) {
        line = std::string(trimmed);
        return true;
      }
    }
    return false;
  };

  if (!next_line() || line != kMagic) {
    return Status::ParseError("bad or missing explanation header");
  }

  // Optional backend line; its absence means the spline format.
  std::string backend = SplineGamSurrogate::kName;
  if (!next_line()) return Status::ParseError("truncated explanation");
  {
    std::vector<std::string> f = Split(line, ' ');
    if (f.size() == 2 && f[0] == kBackendKey) {
      backend = f[1];
    } else {
      pushed_back = true;
    }
  }
  if (spline != (backend == SplineGamSurrogate::kName)) {
    return Status::ParseError(
        "surrogate section does not match backend " + backend);
  }

  auto explanation = std::make_unique<GefExplanation>();

  auto read_double = [&](const std::string& key, double* out) -> Status {
    if (!next_line()) return Status::ParseError("truncated: " + key);
    std::vector<std::string> f = Split(line, ' ');
    if (f.size() != 2 || f[0] != key || !ParseDouble(f[1], out)) {
      return Status::ParseError("bad " + key + " line: " + line);
    }
    return Status::Ok();
  };
  if (Status s = read_double("fidelity_train",
                             &explanation->fidelity_rmse_train);
      !s.ok()) {
    return s;
  }
  if (Status s =
          read_double("fidelity_test", &explanation->fidelity_rmse_test);
      !s.ok()) {
    return s;
  }

  auto read_int_list = [&](const std::string& key,
                           std::vector<int>* out) -> Status {
    if (!next_line()) return Status::ParseError("truncated: " + key);
    std::vector<std::string> f = Split(line, ' ');
    int count = 0;
    if (f.size() < 2 || f[0] != key || !ParseInt(f[1], &count) ||
        count < 0 || f.size() != static_cast<size_t>(count) + 2) {
      return Status::ParseError("bad " + key + " line: " + line);
    }
    out->clear();
    for (int i = 0; i < count; ++i) {
      int value = 0;
      if (!ParseInt(f[i + 2], &value)) {
        return Status::ParseError("bad integer in " + key);
      }
      out->push_back(value);
    }
    return Status::Ok();
  };

  if (Status s = read_int_list("selected",
                               &explanation->selected_features);
      !s.ok()) {
    return s;
  }
  std::vector<int> categorical;
  if (Status s = read_int_list("categorical", &categorical); !s.ok()) {
    return s;
  }
  for (int c : categorical) explanation->is_categorical.push_back(c != 0);
  if (Status s = read_int_list("univariate_terms",
                               &explanation->univariate_term_index);
      !s.ok()) {
    return s;
  }
  std::vector<int> pair_flat;
  if (Status s = read_int_list("pairs", &pair_flat); !s.ok()) return s;
  if (pair_flat.size() % 2 != 0) {
    return Status::ParseError("odd pair list length");
  }
  for (size_t i = 0; i < pair_flat.size(); i += 2) {
    explanation->selected_pairs.emplace_back(pair_flat[i],
                                             pair_flat[i + 1]);
  }
  if (Status s = read_int_list("bivariate_terms",
                               &explanation->bivariate_term_index);
      !s.ok()) {
    return s;
  }
  if (explanation->selected_features.size() !=
          explanation->is_categorical.size() ||
      explanation->selected_features.size() !=
          explanation->univariate_term_index.size() ||
      explanation->selected_pairs.size() !=
          explanation->bivariate_term_index.size()) {
    return Status::ParseError("inconsistent component lists");
  }

  if (!next_line()) return Status::ParseError("truncated: num_domains");
  {
    std::vector<std::string> f = Split(line, ' ');
    int num_domains = 0;
    if (f.size() != 2 || f[0] != "num_domains" ||
        !ParseInt(f[1], &num_domains) || num_domains < 1) {
      return Status::ParseError("bad num_domains line: " + line);
    }
    explanation->domains.resize(num_domains);
    for (int d = 0; d < num_domains; ++d) {
      if (!next_line()) return Status::ParseError("truncated domain");
      std::vector<std::string> g = Split(line, ' ');
      int index = 0, count = 0;
      if (g.size() < 3 || g[0] != "domain" || !ParseInt(g[1], &index) ||
          !ParseInt(g[2], &count) || index < 0 || index >= num_domains ||
          count < 1 || g.size() != static_cast<size_t>(count) + 3) {
        return Status::ParseError("bad domain line: " + line);
      }
      std::vector<double>& domain = explanation->domains[index];
      domain.resize(count);
      for (int i = 0; i < count; ++i) {
        if (!ParseDouble(g[i + 3], &domain[i])) {
          return Status::ParseError("bad domain value: " + line);
        }
      }
    }
  }

  StatusOr<std::unique_ptr<Surrogate>> surrogate =
      SurrogateFromText(backend, model_text);
  if (!surrogate.ok()) return surrogate.status();
  explanation->surrogate = std::move(surrogate).value();

  // Index sanity against the restored surrogate.
  const size_t num_terms = explanation->surrogate->num_terms();
  for (int t : explanation->univariate_term_index) {
    if (t < 0 || static_cast<size_t>(t) >= num_terms) {
      return Status::ParseError("univariate term index out of range");
    }
  }
  for (int t : explanation->bivariate_term_index) {
    if (t < 0 || static_cast<size_t>(t) >= num_terms) {
      return Status::ParseError("bivariate term index out of range");
    }
  }
  return explanation;
}

Status SaveExplanation(const GefExplanation& explanation,
                       const std::string& path) {
  return WriteFileAtomic(path, ExplanationToString(explanation));
}

StatusOr<std::unique_ptr<GefExplanation>> LoadExplanation(
    const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ExplanationFromString(text.value());
}

}  // namespace gef
