// gef_store — pack, inspect and verify binary model stores.
//
// The store (src/store/, DESIGN.md §3.17) is the mmap'd artifact
// gef_serve --store boots from: forests with their compiled traversal
// arrays plus cached surrogates, checksummed per section.
//
// Usage:
//   gef_store pack --out store.gefs
//             --model name=forest.txt[,name2=other.txt]
//             [--format gef|lightgbm]
//             [--surrogate name=explanation.txt[,...]]
//             [--summary name=summary.txt[,...]]
//   gef_store inspect store.gefs
//   gef_store verify store.gefs
//
// `verify` revalidates everything a reader would trust: header, section
// table, every payload checksum, and a full structural load of every
// forest (node reconstruction + ValidateForest + compiled-array bounds
// sweep). Exit codes: 0 success, 1 bad usage, 2 failure.

#include <cstdio>
#include <string>
#include <vector>

#include "forest/lightgbm_import.h"
#include "forest/serialization.h"
#include "store/store_builder.h"
#include "store/store_reader.h"
#include "util/file_io.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/shutdown.h"
#include "util/string_util.h"

namespace gef {
namespace {

/// Splits "name=path[,name=path...]" into pairs.
bool ParseNamedPaths(const std::string& arg,
                     std::vector<std::pair<std::string, std::string>>* out) {
  for (const std::string& item : Split(arg, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      return false;
    }
    out->emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return !out->empty();
}

int Pack(const Flags& flags) {
  const std::string out_path = flags.GetString("out", "");
  const std::string model_arg = flags.GetString("model", "");
  const std::string format = flags.GetString("format", "gef");
  const std::string surrogate_arg = flags.GetString("surrogate", "");
  const std::string summary_arg = flags.GetString("summary", "");
  if (out_path.empty() || model_arg.empty()) {
    std::fprintf(stderr,
                 "usage: gef_store pack --out <store> --model "
                 "name=forest.txt[,...] [--format gef|lightgbm] "
                 "[--surrogate name=file[,...]] [--summary name=file[,...]]\n");
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> models;
  if (!ParseNamedPaths(model_arg, &models)) {
    std::fprintf(stderr, "--model wants name=path[,name=path...]\n");
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> surrogates;
  if (!surrogate_arg.empty() &&
      !ParseNamedPaths(surrogate_arg, &surrogates)) {
    std::fprintf(stderr, "--surrogate wants name=path[,name=path...]\n");
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> summaries;
  if (!summary_arg.empty() && !ParseNamedPaths(summary_arg, &summaries)) {
    std::fprintf(stderr, "--summary wants name=path[,name=path...]\n");
    return 1;
  }

  store::StoreBuilder builder;
  for (const auto& [name, path] : models) {
    StatusOr<Forest> forest = format == "lightgbm"
                                  ? LoadLightGbmModel(path)
                                  : LoadForest(path);
    if (!forest.ok()) {
      std::fprintf(stderr, "cannot load forest %s: %s\n", path.c_str(),
                   forest.status().ToString().c_str());
      return 2;
    }
    if (Status s = builder.AddForest(name, forest.value()); !s.ok()) {
      std::fprintf(stderr, "cannot pack forest '%s': %s\n", name.c_str(),
                   s.ToString().c_str());
      return 2;
    }
    std::printf("packed forest '%s' from %s (hash %s, %zu trees)\n",
                name.c_str(), path.c_str(),
                HashToHex(forest->ContentHash()).c_str(),
                forest->num_trees());
  }
  for (const auto& [name, path] : surrogates) {
    StatusOr<std::string> text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "cannot read surrogate %s: %s\n", path.c_str(),
                   text.status().ToString().c_str());
      return 2;
    }
    if (Status s = builder.AddSurrogate(name, text.value()); !s.ok()) {
      std::fprintf(stderr, "cannot pack surrogate '%s': %s\n",
                   name.c_str(), s.ToString().c_str());
      return 2;
    }
    std::printf("packed surrogate '%s' from %s\n", name.c_str(),
                path.c_str());
  }
  for (const auto& [name, path] : summaries) {
    StatusOr<std::string> text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "cannot read summary %s: %s\n", path.c_str(),
                   text.status().ToString().c_str());
      return 2;
    }
    if (Status s = builder.AddDatasetSummary(name, text.value()); !s.ok()) {
      std::fprintf(stderr, "cannot pack summary '%s': %s\n", name.c_str(),
                   s.ToString().c_str());
      return 2;
    }
  }

  if (Status s = builder.WriteTo(out_path); !s.ok()) {
    std::fprintf(stderr, "cannot write store: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s (%zu sections)\n", out_path.c_str(),
              builder.num_sections());
  return 0;
}

int Inspect(const std::string& path) {
  auto reader = store::StoreReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 2;
  }
  std::printf("%s: format version %u, %zu sections, %zu bytes mapped\n",
              path.c_str(), reader->format_version(),
              reader->sections().size(), reader->mapped_bytes());
  for (const auto& section : reader->sections()) {
    std::printf("  %-15s %-15s %10llu bytes  model %s  artifact %s\n",
                store::SectionKindName(section.kind),
                section.name.c_str(),
                static_cast<unsigned long long>(section.payload_bytes),
                HashToHex(section.model_hash).c_str(),
                HashToHex(section.artifact_hash).c_str());
  }
  return 0;
}

int Verify(const std::string& path) {
  auto reader = store::StoreReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "verify FAILED: %s\n",
                 reader.status().ToString().c_str());
    return 2;
  }
  if (Status s = reader->VerifyAll(); !s.ok()) {
    std::fprintf(stderr, "verify FAILED: %s\n", s.ToString().c_str());
    return 2;
  }
  // Structural pass: everything a serving load would trust.
  for (const std::string& name : reader->ForestNames()) {
    StatusOr<Forest> forest = reader->LoadForest(name);
    if (!forest.ok()) {
      std::fprintf(stderr, "verify FAILED: %s\n",
                   forest.status().ToString().c_str());
      return 2;
    }
    std::printf("forest '%s' OK (hash %s, %zu trees)\n", name.c_str(),
                HashToHex(reader->ForestHash(name).value()).c_str(),
                forest->num_trees());
  }
  std::printf("store OK: %zu sections, all checksums match\n",
              reader->sections().size());
  return 0;
}

int Run(int argc, const char* const* argv) {
  InstallShutdownHandler();

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  const std::vector<std::string>& positional = flags.positional();
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: gef_store pack|inspect|verify ...\n"
                 "see the header of tools/gef_store.cc\n");
    return 1;
  }
  const std::string& command = positional[0];
  if (command == "pack") {
    const int code = Pack(flags);
    if (code != 0) return code;
  } else if (command == "inspect" || command == "verify") {
    if (positional.size() != 2) {
      std::fprintf(stderr, "usage: gef_store %s <store file>\n",
                   command.c_str());
      return 1;
    }
    const int code = command == "inspect" ? Inspect(positional[1])
                                          : Verify(positional[1]);
    if (code != 0) return code;
  } else {
    std::fprintf(stderr, "unknown command '%s' (pack|inspect|verify)\n",
                 command.c_str());
    return 1;
  }

  if (!flags.status().ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 1;
  }
  std::vector<std::string> unread = flags.UnreadFlags();
  if (!unread.empty()) {
    std::fprintf(stderr, "unknown flag(s): --%s\n",
                 Join(unread, ", --").c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gef

int main(int argc, char** argv) { return gef::Run(argc, argv); }
