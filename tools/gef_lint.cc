// gef_lint: fast token-level, multi-pass checker for repo-specific
// rules that compilers and clang-tidy do not enforce. Registered as a
// ctest so the gate runs in tier-1 (`ctest -R gef_lint`). Exits 0 when
// the tree is clean, 1 with one `file:line: [rule] message` diagnostic
// per finding.
//
// Per-line rules (see DESIGN.md §3.11):
//   gef-raw-rand        `rand(`, `srand(` or `std::random_device` anywhere
//                       outside src/stats/rng.* — all randomness must flow
//                       through the seeded, reproducible Rng.
//   gef-cout            `std::cout` inside src/ — library code reports via
//                       Status or writes caller-supplied streams; stdout
//                       belongs to the tools.
//   gef-naked-new       `new` expression inside src/ without an owning
//                       container/smart pointer. Deliberate leaks (fork
//                       safety, leaky singletons) carry a
//                       `// NOLINT(gef-naked-new)` comment on the line.
//   gef-float-narrow    `float x = <double literal>` inside src/ — the
//                       numeric core is double end to end; a stray float
//                       literal silently halves precision.
//   gef-todo-owner      `TODO` comment without an owner: must be written
//                       `TODO(owner): ...` so stale notes are traceable.
//
// Architectural passes (DESIGN.md §3.16):
//   gef-layer-order     include-graph layering. src/ layers form a total
//                       order — util → obs → linalg → stats → data →
//                       forest → gam → surrogate → explain → gef →
//                       store → serve — and a file may only include
//                       headers of its own or a lower layer. Upward
//                       includes (and therefore any include cycle) fail
//                       the gate. tools/, tests/, bench/ and examples/
//                       sit above every layer.
//   gef-gam-boundary    the surrogate boundary. Code above the surrogate
//                       layer — src/ explain, gef, store and serve,
//                       tools/ and examples/ — reaches Γ only through
//                       surrogate/surrogate.h and must not include a
//                       gam/ header. tests/ and bench/ may: the gam
//                       layer's own tests and the paper's GAM figures
//                       fit a Gam directly.
//   gef-layer-unknown   a directory under src/ that has no assigned
//                       rank: adding a layer requires declaring its
//                       place in the DAG here.
//   gef-raw-mutex       concurrency hygiene. Raw std::mutex /
//                       std::lock_guard / std::condition_variable /
//                       pthread_* inside src/ outside util/mutex.h —
//                       all locking goes through the CAPABILITY-
//                       annotated gef::Mutex wrappers so Clang thread
//                       safety analysis sees every acquisition
//                       (std::once_flag/call_once stay allowed: a
//                       stronger, self-contained primitive).
//   gef-wall-time       determinism. Wall-clock reads (`time(`,
//                       `clock(`, `gettimeofday(`, `localtime(`, ...)
//                       inside src/ — pipeline results must never
//                       depend on when they ran; timing belongs to
//                       util/timer (steady_clock) and the obs layer.
//   gef-raw-file-io     one way to open a file. std::ifstream /
//                       std::ofstream / std::fstream, `fopen(` or
//                       `::open(` / `open(` inside src/ outside
//                       util/file_io.cc —
//                       every artifact is read and written through
//                       util/file_io (ReadFile, WriteFileAtomic,
//                       AppendFile), so every save is crash-safe. Only
//                       obs/rss.cc (reads /proc) and store/mmap_file.cc
//                       (maps a store) open files themselves.
//
// The scanner strips comments and string/character literals before
// applying the code rules (so `"new"` in a string never fires) and keeps
// the comment text for the TODO rule. A line whose raw text contains
// `NOLINT` is exempt from all code rules on that line. Include
// directives are parsed from the raw text (their paths live inside
// string literals). Anything under a `lint_fixtures` directory is
// skipped when scanning a repo root — those trees are the planted-
// violation corpus of the gef_lint self-test, which points the linter
// *at* a fixture root directly.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct FileText {
  // Per source line: code with comments + string/char literals blanked
  // to spaces (column positions preserved), the comment text on that
  // line (if any), and the raw line.
  std::vector<std::string> code;
  std::vector<std::string> comments;
  std::vector<std::string> raw;
};

// Single-pass lexer: tracks block comments and literals across lines.
FileText Lex(const std::string& text) {
  FileText out;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string code_line, comment_line, raw_line;

  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    out.raw.push_back(raw_line);
    code_line.clear();
    comment_line.clear();
    raw_line.clear();
    if (state == State::kLineComment) state = State::kCode;
  };

  const size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    char c = text[i];
    if (c == '\n') {
      flush_line();
      continue;
    }
    raw_line += c;
    char next = i + 1 < n ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          raw_line += next;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          raw_line += next;
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          // Raw strings are not used in this tree; treat `R"` like a
          // plain literal opener (good enough for a gate, and the lint
          // source itself avoids them).
          state = State::kString;
          code_line += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += ' ';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          raw_line += next;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          raw_line += next;
          code_line += "  ";
          ++i;
        } else if (c == quote) {
          state = State::kCode;
          code_line += ' ';
        } else {
          code_line += ' ';
        }
        break;
      }
    }
  }
  if (!raw_line.empty() || !code_line.empty()) flush_line();
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Word-boundary search for `ident` in blanked code text.
bool HasIdent(const std::string& line, const std::string& ident) {
  size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    size_t end = pos + ident.size();
    bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Qualified-token search (tokens may contain "::"): boundaries reject
// identifier characters and further qualification on either side, so
// `std::condition_variable` does not fire on
// `std::condition_variable_any` and `mystd::mutex` never matches.
bool HasQualifiedToken(const std::string& line, const std::string& token) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    bool left_ok =
        pos == 0 || (!IsIdentChar(line[pos - 1]) && line[pos - 1] != ':');
    size_t end = pos + token.size();
    bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Identifier-prefix search: any identifier starting with `prefix`
// (pthread_create, pthread_mutex_lock, ...).
bool HasIdentPrefix(const std::string& line, const std::string& prefix) {
  size_t pos = 0;
  while ((pos = line.find(prefix, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || (!IsIdentChar(line[pos - 1]) &&
                                line[pos - 1] != ':');
    if (left_ok) return true;
    pos += prefix.size();
  }
  return false;
}

// `<name>(` call syntax with the parenthesis (so `operator_rand` or a
// member named rand_ never fires). `allow_member` controls whether
// `.name(` / `->name(` count (they do not, for wall-time: a method
// named time() on a repo type is not the C library call).
bool HasCall(const std::string& line, const char* name,
             bool flag_member_calls) {
  const std::string ident(name);
  size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    if (!flag_member_calls && pos > 0) {
      char prev = line[pos - 1];
      // `.time(` / `->time(` are member calls on repo types.
      if (prev == '.' || (prev == '>' && pos > 1 && line[pos - 2] == '-')) {
        left_ok = false;
      }
    }
    size_t end = pos + ident.size();
    size_t after = end;
    while (after < line.size() && line[after] == ' ') ++after;
    bool called = after < line.size() && line[after] == '(';
    bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok && called) return true;
    pos = end;
  }
  return false;
}

bool HasRandCall(const std::string& line) {
  return HasCall(line, "rand", /*flag_member_calls=*/true) ||
         HasCall(line, "srand", /*flag_member_calls=*/true);
}

// Wall-clock reads that would make pipeline output depend on when it
// ran. steady_clock/chrono stay fine (identifiers differ); member
// functions that happen to be called time() are skipped.
bool HasWallTimeCall(const std::string& line) {
  for (const char* name : {"time", "clock", "gettimeofday", "localtime",
                           "gmtime", "ctime", "timespec_get"}) {
    if (HasCall(line, name, /*flag_member_calls=*/false)) return true;
  }
  return false;
}

// Raw synchronization primitives banned outside the wrapper home; all
// of src/ locks through the annotated gef::Mutex family (util/mutex.h)
// so -Wthread-safety sees every acquisition.
bool HasRawSyncPrimitive(const std::string& line) {
  static const char* const kTokens[] = {
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::recursive_timed_mutex",
      "std::shared_mutex",   "std::shared_timed_mutex",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock",    "std::shared_lock",
      "std::condition_variable", "std::condition_variable_any",
  };
  for (const char* token : kTokens) {
    if (HasQualifiedToken(line, token)) return true;
  }
  return HasIdentPrefix(line, "pthread_");
}

// File opens that bypass util/file_io: the iostream file types, C stdio
// fopen and POSIX open (std::/:: qualified or not). `.open(` /
// `->open(` are member calls, not the syscall.
bool HasRawFileOpen(const std::string& line) {
  for (const char* token : {"std::ifstream", "std::ofstream",
                            "std::fstream"}) {
    if (HasQualifiedToken(line, token)) return true;
  }
  return HasCall(line, "fopen", /*flag_member_calls=*/false) ||
         HasCall(line, "open", /*flag_member_calls=*/false);
}

// `float <ident> = <literal>` / `float <ident>{<literal>}` where the
// literal is a double (has '.' or exponent, no f/F suffix).
bool HasFloatNarrowing(const std::string& line) {
  size_t pos = 0;
  while ((pos = line.find("float", pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    size_t i = pos + 5;
    pos = i;
    if (!left_ok || (i < line.size() && IsIdentChar(line[i]))) continue;
    while (i < line.size() && line[i] == ' ') ++i;
    size_t ident_start = i;
    while (i < line.size() && IsIdentChar(line[i])) ++i;
    if (i == ident_start) continue;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size() || (line[i] != '=' && line[i] != '{')) continue;
    ++i;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '-') ++i;
    size_t lit_start = i;
    bool has_dot = false, has_exp = false, is_hex = false;
    if (i + 1 < line.size() && line[i] == '0' &&
        (line[i + 1] == 'x' || line[i + 1] == 'X')) {
      is_hex = true;
    }
    while (i < line.size()) {
      char c = line[i];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '\'') {
        ++i;
      } else if (c == '.') {
        has_dot = true;
        ++i;
      } else if (!is_hex && (c == 'e' || c == 'E')) {
        has_exp = true;
        ++i;
        if (i < line.size() && (line[i] == '+' || line[i] == '-')) ++i;
      } else {
        break;
      }
    }
    if (i == lit_start || is_hex || (!has_dot && !has_exp)) continue;
    bool has_f_suffix =
        i < line.size() && (line[i] == 'f' || line[i] == 'F');
    if (!has_f_suffix) return true;
  }
  return false;
}

// `TODO` in a comment must be `TODO(<owner>)`.
bool HasOwnerlessTodo(const std::string& comment) {
  size_t pos = 0;
  while ((pos = comment.find("TODO", pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(comment[pos - 1]);
    size_t i = pos + 4;
    pos = i;
    // "TODOs"/"TODO_LIST" etc. are prose, not a work marker.
    if (!left_ok || (i < comment.size() && IsIdentChar(comment[i]))) continue;
    if (i >= comment.size() || comment[i] != '(') return true;
    size_t close = comment.find(')', i);
    if (close == std::string::npos || close == i + 1) return true;
  }
  return false;
}

struct Violation {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------
// Layering pass.
//
// The src/ layer DAG is pinned as a total order; a file may include only
// its own or a lower layer, which makes upward edges — and therefore any
// cycle — impossible to merge. tools/tests/bench/examples rank above
// everything and may include any layer.
// ---------------------------------------------------------------------

constexpr int kTopRank = 100;  // tools / tests / bench / examples

// Rank table == the architecture. Growing a new src/ directory means
// adding it here at its place in the order (gef-layer-unknown fires
// until it is declared).
int LayerRank(const std::string& layer) {
  static const std::pair<const char*, int> kRanks[] = {
      {"util", 0},      {"obs", 1},     {"linalg", 2},  {"stats", 3},
      {"data", 4},      {"forest", 5},  {"gam", 6},     {"surrogate", 7},
      {"explain", 8},   {"gef", 9},     {"store", 10},  {"serve", 11},
  };
  for (const auto& [name, rank] : kRanks) {
    if (layer == name) return rank;
  }
  return -1;  // unknown
}

// `#include "layer/header.h"` on a raw line; returns the quoted path or
// "" when the line is not a quoted include.
std::string ParseQuotedInclude(const std::string& raw) {
  size_t i = 0;
  while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
  if (i >= raw.size() || raw[i] != '#') return "";
  ++i;
  while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
  if (raw.compare(i, 7, "include") != 0) return "";
  i += 7;
  while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
  if (i >= raw.size() || raw[i] != '"') return "";
  size_t close = raw.find('"', i + 1);
  if (close == std::string::npos) return "";
  return raw.substr(i + 1, close - i - 1);
}

struct ScannedFile {
  fs::path path;
  fs::path rel;        // relative to the scan root
  std::string layer;   // "" when not under src/
  int rank = kTopRank;
  FileText text;
};

void LayeringPass(const ScannedFile& file, std::vector<Violation>* out) {
  if (file.layer.empty()) return;  // only src/ files are rank-bound
  if (file.rank < 0) {
    out->push_back(
        {file.path.string(), 1, "gef-layer-unknown",
         "src/" + file.layer +
             " has no rank in the layer DAG; declare its place in "
             "LayerRank() (tools/gef_lint.cc) and DESIGN.md §3.16"});
    return;
  }
  for (size_t l = 0; l < file.text.raw.size(); ++l) {
    if (file.text.raw[l].find("NOLINT") != std::string::npos) continue;
    const std::string include = ParseQuotedInclude(file.text.raw[l]);
    if (include.empty()) continue;
    const size_t slash = include.find('/');
    if (slash == std::string::npos) continue;  // same-dir or local
    const std::string target = include.substr(0, slash);
    const int target_rank = LayerRank(target);
    if (target_rank < 0) continue;  // not a src/ layer path
    if (target_rank > file.rank) {
      out->push_back(
          {file.path.string(), l + 1, "gef-layer-order",
           "upward include: src/" + file.layer + " (rank " +
               std::to_string(file.rank) + ") must not include " +
               target + "/ (rank " + std::to_string(target_rank) +
               "); the layer order is util < obs < linalg < stats < "
               "data < forest < gam < surrogate < explain < gef < "
               "store < serve"});
    }
  }
}

// Above the surrogate boundary: src/ layers ranked over surrogate, and
// the tools and examples.
bool AboveSurrogateLayer(const ScannedFile& file) {
  if (!file.layer.empty()) return file.rank > LayerRank("surrogate");
  const std::string top =
      file.rel.empty() ? std::string() : file.rel.begin()->string();
  return top == "tools" || top == "examples";
}

void GamBoundaryPass(const ScannedFile& file, std::vector<Violation>* out) {
  if (!AboveSurrogateLayer(file)) return;
  for (size_t l = 0; l < file.text.raw.size(); ++l) {
    if (file.text.raw[l].find("NOLINT") != std::string::npos) continue;
    if (ParseQuotedInclude(file.text.raw[l]).rfind("gam/", 0) != 0) {
      continue;
    }
    out->push_back({file.path.string(), l + 1, "gef-gam-boundary",
                    "gam/ header above the surrogate layer; reach the "
                    "surrogate through surrogate/surrogate.h (the "
                    "Surrogate interface) instead"});
  }
}

// ---------------------------------------------------------------------
// Per-line pass (style, hygiene, determinism rules).
// ---------------------------------------------------------------------

void LineRulesPass(const ScannedFile& file, std::vector<Violation>* out) {
  const std::string fname = file.path.filename().string();
  // The RNG wrapper is the one sanctioned home of raw randomness (and
  // of reading a clock to mix into an explicitly-requested nondeterministic
  // seed); the mutex wrapper is the one sanctioned home of the raw std
  // synchronization primitives; this checker's own source spells every
  // rule out verbatim.
  const bool rng_home = fname == "rng.h" || fname == "rng.cc";
  const bool mutex_home =
      fname == "mutex.h" || fname == "thread_annotations.h";
  const bool self = fname == "gef_lint.cc";
  const bool in_src =
      !file.rel.empty() && file.rel.begin()->string() == "src";
  const std::string rel = file.rel.generic_string();
  const bool file_io_home = rel == "src/util/file_io.cc" ||
                            rel == "src/obs/rss.cc" ||
                            rel == "src/store/mmap_file.cc";

  for (size_t l = 0; l < file.text.code.size(); ++l) {
    const std::string& code = file.text.code[l];
    const std::string& comment = file.text.comments[l];
    const size_t line_no = l + 1;
    const bool nolint =
        file.text.raw[l].find("NOLINT") != std::string::npos;

    if (self) continue;  // this file spells every rule out verbatim
    if (HasOwnerlessTodo(comment)) {
      out->push_back({file.path.string(), line_no, "gef-todo-owner",
                      "TODO without an owner; write TODO(name): ..."});
    }
    if (nolint) continue;

    if (!rng_home &&
        (HasRandCall(code) || HasIdent(code, "random_device"))) {
      out->push_back({file.path.string(), line_no, "gef-raw-rand",
                      "raw randomness outside src/stats/rng; use Rng"});
    }
    if (in_src && !rng_home && HasWallTimeCall(code)) {
      out->push_back({file.path.string(), line_no, "gef-wall-time",
                      "wall-clock read in library code; results must "
                      "not depend on when they ran — use "
                      "util/timer (steady_clock) for durations"});
    }
    if (in_src && !mutex_home && HasRawSyncPrimitive(code)) {
      out->push_back({file.path.string(), line_no, "gef-raw-mutex",
                      "raw std synchronization primitive in library "
                      "code; use the annotated gef::Mutex / MutexLock / "
                      "CondVar wrappers (util/mutex.h) so "
                      "-Wthread-safety sees the acquisition"});
    }
    if (in_src && !file_io_home && HasRawFileOpen(code)) {
      out->push_back({file.path.string(), line_no, "gef-raw-file-io",
                      "raw file open in library code; read and write "
                      "through util/file_io (ReadFile, WriteFileAtomic, "
                      "AppendFile)"});
    }
    if (in_src && code.find("std::cout") != std::string::npos) {
      out->push_back({file.path.string(), line_no, "gef-cout",
                      "std::cout in library code; return Status or take "
                      "an ostream"});
    }
    if (in_src && HasIdent(code, "new")) {
      out->push_back({file.path.string(), line_no, "gef-naked-new",
                      "naked new in library code; use containers or "
                      "std::make_unique, or annotate a deliberate leak "
                      "with NOLINT(gef-naked-new)"});
    }
    if (in_src && HasFloatNarrowing(code)) {
      out->push_back({file.path.string(), line_no, "gef-float-narrow",
                      "double literal narrowed to float; the numeric "
                      "core is double end to end"});
    }
  }
}

bool UnderFixtures(const fs::path& rel) {
  for (const fs::path& part : rel) {
    if (part == "lint_fixtures") return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <repo-root> [more-roots...]\n",
                 argv[0]);
    return 2;
  }

  std::vector<ScannedFile> files;
  for (int a = 1; a < argc; ++a) {
    const fs::path root(argv[a]);
    if (!fs::exists(root)) {
      std::fprintf(stderr, "gef_lint: no such path: %s\n", argv[a]);
      return 2;
    }
    // Scan the source trees only; skip build output and third-party-ish
    // top-level dirs by construction.
    for (const char* dir :
         {"src", "tools", "tests", "bench", "examples"}) {
      const fs::path sub = root / dir;
      if (!fs::is_directory(sub)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(sub)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".cc" && ext != ".cpp" && ext != ".h") continue;
        ScannedFile file;
        file.path = entry.path();
        file.rel = fs::relative(entry.path(), root);
        if (UnderFixtures(file.rel)) continue;  // self-test corpus
        auto it = file.rel.begin();
        if (it != file.rel.end() && it->string() == "src" &&
            ++it != file.rel.end()) {
          // src/<layer>/...; a file directly under src/ has no layer.
          fs::path tail = *it;
          if (std::next(it) != file.rel.end()) {
            file.layer = tail.string();
            file.rank = LayerRank(file.layer);
          }
        }
        std::ifstream in(file.path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        file.text = Lex(buffer.str());
        files.push_back(std::move(file));
      }
    }
  }

  std::vector<Violation> violations;
  for (const ScannedFile& file : files) {
    LineRulesPass(file, &violations);
    LayeringPass(file, &violations);
    GamBoundaryPass(file, &violations);
  }

  for (const Violation& v : violations) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "gef_lint: %zu violation(s) in %zu files\n",
                 violations.size(), files.size());
    return 1;
  }
  std::fprintf(stderr, "gef_lint: %zu files clean\n", files.size());
  return 0;
}
