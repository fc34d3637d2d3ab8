#include "gef/report.h"

#include <sstream>

#include "gef/evaluation.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gef {
namespace {

// Anchor row for evaluating one term's effect while the other features
// sit at their domain midpoints (only the term's own features matter for
// its contribution, but Evaluate needs a full row).
std::vector<double> AnchorRow(const GefExplanation& explanation) {
  std::vector<double> row(explanation.domains.size(), 0.0);
  for (size_t f = 0; f < explanation.domains.size(); ++f) {
    const std::vector<double>& domain = explanation.domains[f];
    row[f] = domain[domain.size() / 2];
  }
  return row;
}

std::vector<double> EffectGrid(const std::vector<double>& domain,
                               int points) {
  double lo = domain.front();
  double hi = domain.back();
  if (hi <= lo) hi = lo + 1.0;
  std::vector<double> grid(points);
  for (int g = 0; g < points; ++g) {
    grid[g] = lo + (hi - lo) * g / (points - 1);
  }
  return grid;
}

}  // namespace

std::string DescribeExplanation(const GefExplanation& explanation,
                                const Forest& forest) {
  std::ostringstream out;
  const Surrogate& surrogate = *explanation.surrogate;
  out << "GEF explanation of a forest with " << forest.num_trees()
      << " trees / " << forest.num_internal_nodes() << " split nodes ("
      << (forest.objective() == Objective::kBinaryClassification
              ? "classification"
              : "regression")
      << ")\n";
  out << "Surrogate fidelity (RMSE vs forest on held-out D*): "
      << FormatDouble(explanation.fidelity_rmse_test, 5) << "\n";
  // Backend-specific fit summary; the spline backend emits the exact
  // "GAM: ..." block this report printed before backends were pluggable.
  out << surrogate.DescribeFit();

  out << "\nUnivariate components (F'):\n";
  const std::vector<double> gains = forest.GainImportance();
  for (size_t i = 0; i < explanation.selected_features.size(); ++i) {
    int f = explanation.selected_features[i];
    int term = explanation.univariate_term_index[i];
    const char* shape = "";
    if (!explanation.is_categorical[i]) {
      switch (ComponentMonotonicity(explanation, i)) {
        case 1:
          shape = " [monotone +]";
          break;
        case -1:
          shape = " [monotone -]";
          break;
        default:
          shape = "";
      }
    }
    char line[160];
    std::snprintf(
        line, sizeof(line),
        "  %-30s forest gain %-12.4g GAM importance %-10.4g%s%s\n",
        surrogate.TermLabel(term).c_str(), gains[f],
        surrogate.TermImportance(term),
        explanation.is_categorical[i] ? " [categorical]" : "", shape);
    out << line;
  }
  if (!explanation.selected_pairs.empty()) {
    out << "\nBi-variate components (F''):\n";
    for (size_t i = 0; i < explanation.selected_pairs.size(); ++i) {
      int term = explanation.bivariate_term_index[i];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-30s GAM importance %-10.4g\n",
                    surrogate.TermLabel(term).c_str(),
                    surrogate.TermImportance(term));
      out << line;
    }
  }
  return out.str();
}

Status ExportCurvesCsv(const GefExplanation& explanation,
                       const Forest& forest, const std::string& path,
                       int points) {
  GEF_CHECK_GE(points, 2);
  std::ostringstream out;
  out << "term,feature,x,x2,effect,lower,upper\n";

  const Surrogate& surrogate = *explanation.surrogate;
  std::vector<double> row = AnchorRow(explanation);

  // CSV cells must not contain the delimiter; tensor labels are
  // "te(a, b)", so commas become semicolons.
  auto sanitize = [](std::string label) {
    for (char& c : label) {
      if (c == ',') c = ';';
    }
    return label;
  };

  auto write_point = [&](const std::string& label,
                         const std::string& feature_name, double x,
                         const std::string& x2, size_t term) {
    EffectInterval effect = surrogate.TermEffect(term, row);
    out << label << ',' << feature_name << ',' << FormatDouble(x, 10)
        << ',' << x2 << ',' << FormatDouble(effect.value, 10) << ','
        << FormatDouble(effect.lower, 10) << ','
        << FormatDouble(effect.upper, 10) << "\n";
  };

  for (size_t i = 0; i < explanation.selected_features.size(); ++i) {
    int f = explanation.selected_features[i];
    size_t term = static_cast<size_t>(
        explanation.univariate_term_index[i]);
    const std::string& name = forest.feature_names()[f];
    std::string label = sanitize(surrogate.TermLabel(term));
    if (surrogate.TermIsFactor(term)) {
      for (double level : explanation.domains[f]) {
        row[f] = level;
        write_point(label, name, level, "", term);
      }
    } else {
      for (double x : EffectGrid(explanation.domains[f], points)) {
        row[f] = x;
        write_point(label, name, x, "", term);
      }
    }
    row[f] = explanation.domains[f][explanation.domains[f].size() / 2];
  }

  for (size_t i = 0; i < explanation.selected_pairs.size(); ++i) {
    auto [a, b] = explanation.selected_pairs[i];
    size_t term = static_cast<size_t>(
        explanation.bivariate_term_index[i]);
    std::string label = sanitize(surrogate.TermLabel(term));
    std::string name = forest.feature_names()[a] + "*" +
                       forest.feature_names()[b];
    for (double xa : EffectGrid(explanation.domains[a], points)) {
      row[a] = xa;
      for (double xb : EffectGrid(explanation.domains[b], points)) {
        row[b] = xb;
        write_point(label, name, xa, FormatDouble(xb, 10), term);
      }
    }
    row[a] = explanation.domains[a][explanation.domains[a].size() / 2];
    row[b] = explanation.domains[b][explanation.domains[b].size() / 2];
  }

  return WriteFileAtomic(path, out.str());
}

}  // namespace gef
