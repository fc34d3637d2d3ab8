#include "data/csv.h"

#include <sstream>
#include <utility>

#include "util/file_io.h"
#include "util/string_util.h"
#include "util/validate.h"

namespace gef {

StatusOr<Dataset> LoadCsv(const std::string& path,
                          bool last_column_is_target) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  std::istringstream in(std::move(text).value());

  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("empty file: " + path);
  }
  std::vector<std::string> header = Split(Trim(line), ',');
  if (header.empty() || (last_column_is_target && header.size() < 2)) {
    return Status::ParseError("header too short in " + path);
  }
  size_t num_features =
      last_column_is_target ? header.size() - 1 : header.size();
  std::vector<std::string> names(header.begin(),
                                 header.begin() + num_features);
  for (auto& n : names) n = std::string(Trim(n));

  Dataset dataset(names);
  size_t line_number = 1;
  std::vector<double> row(num_features);
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::vector<std::string> fields = Split(trimmed, ',');
    if (fields.size() != header.size()) {
      return Status::ParseError("wrong field count at line " +
                                std::to_string(line_number) + " in " + path);
    }
    for (size_t j = 0; j < num_features; ++j) {
      if (!ParseDouble(fields[j], &row[j])) {
        return Status::ParseError("bad number '" + fields[j] + "' at line " +
                                  std::to_string(line_number));
      }
    }
    if (last_column_is_target) {
      double target = 0.0;
      if (!ParseDouble(fields.back(), &target)) {
        return Status::ParseError("bad target at line " +
                                  std::to_string(line_number));
      }
      dataset.AppendRow(row, target);
    } else {
      dataset.AppendRow(row);
    }
  }
  if (Status s = ValidateDataset(dataset); !s.ok()) {
    return Status::ParseError("invalid data in " + path + ": " +
                              s.message());
  }
  return dataset;
}

Status SaveCsv(const Dataset& dataset, const std::string& path) {
  std::ostringstream out;

  std::vector<std::string> header = dataset.feature_names();
  if (dataset.has_targets()) header.push_back("target");
  out << Join(header, ",") << "\n";

  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    for (size_t j = 0; j < dataset.num_features(); ++j) {
      if (j > 0) out << ',';
      out << FormatDouble(dataset.Get(i, j), 12);
    }
    if (dataset.has_targets()) {
      out << ',' << FormatDouble(dataset.target(i), 12);
    }
    out << "\n";
  }
  return WriteFileAtomic(path, out.str());
}

}  // namespace gef
