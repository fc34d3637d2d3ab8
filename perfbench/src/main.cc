// perfbench — the repository benchmark. See perfbench/README.md for the
// workloads, the metrics and the noise rules; perfbench/run.py builds this
// binary and gef_serve and runs it.
//
//   perfbench --workload census_explain|wide_explain|census_serve
//             --seed N --seconds S --trace 0|1
//             --serve-bin PATH --work-dir DIR [--smoke]
//
// Every workload generates its data from the seed, trains the forest,
// fits its default surrogate, packs both into a .gefs store and boots the
// real gef_serve on it (the set-up, repeated three times). It then spends
// its measured window on repeated ExplainForest calls and on four serving
// phases driven over loopback by the benchmark's own load client; the
// workloads differ in model and in how the window is split. The last
// stdout line is the result object; the line before it records the
// machine fingerprint, the noise controls and the checks.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/census.h"
#include "data/dataset.h"
#include "data/one_hot.h"
#include "data/superconductivity.h"
#include "forest/forest.h"
#include "forest/gbdt_trainer.h"
#include "gef/evaluation.h"
#include "gef/explainer.h"
#include "gef/explanation_io.h"
#include "gef/local_explanation.h"
#include "stats/rng.h"
#include "store/store_builder.h"
#include "store/store_reader.h"
#include "surrogate/surrogate.h"

#include "http_load.h"
#include "mini_json.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using gef::Dataset;
using gef::Forest;
using gef::GefConfig;
using gef::GefExplanation;

constexpr int kSetupRepeats = 3;
// Closed-loop warm-up per request type, in every set-up.
constexpr double kWarmupSeconds = 0.1;
// The serving part of the window runs in rounds; each round runs one slice
// of every serving phase. A metric is the median over rounds, so a stall
// of the shared machine moves the one round it hits instead of the whole
// of one phase.
constexpr int kRounds = 5;
constexpr int kMinExplainReps = 3;
constexpr const char* kModelName = "bench";
// Server threads: one reactor shard and two handler workers. With the
// one-thread load client that is four busy threads, the box's nproc.
constexpr int kServerShards = 1;
constexpr int kServerWorkers = 2;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string serve_bin;
  std::string work_dir;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--workload") {
      if (!value(&options->workload)) return false;
    } else if (arg == "--serve-bin") {
      if (!value(&options->serve_bin)) return false;
    } else if (arg == "--work-dir") {
      if (!value(&options->work_dir)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      options->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      options->seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      if (!value(&v)) return false;
      options->trace = v == "1";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !options->workload.empty() && !options->serve_bin.empty() &&
         !options->work_dir.empty() && options->seconds > 0;
}

// --------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  bool census = true;  // census one-hot binary task, else superconductivity
  // The training task is fixed per workload, like a paper dataset: the
  // data come from `data_seed`. The run's --seed draws D*, picks the
  // request rows from the held-out pool and draws the arrival schedule.
  uint64_t data_seed = 0;
  size_t train_rows = 0;
  size_t heldout_pool = 4096;  // held-out rows after the training rows
  size_t request_rows = 1024;  // of the pool, picked by the run seed
  gef::GbdtConfig forest;
  GefConfig gef;
  // Shares of the measured window. explain == 0 means explain_s is taken
  // from the set-up's surrogate fits instead of in-window repetitions.
  double explain_share = 0.0;
  double predict_share = 0.0;
  double rows_share = 0.0;
  double explain_req_share = 0.0;
  double open_share = 0.0;
  double open_rate = 300.0;  // requests/s, 7 predicts : 1 explain
  // Closed-loop connection counts, each one whose latency is unimodal at
  // HEAD: one connection never pairs requests in the micro-batcher, so
  // every request pays the same lone wait.
  int predict_conns = 1;
  int rows_conns = 1;
  int explain_conns = 1;
  int open_conns = 4;
  size_t rows_per_request = 256;
};

bool MakeSpec(const Options& options, WorkloadSpec* spec) {
  spec->name = options.workload;
  GefConfig& gef_config = spec->gef;
  gef_config.num_samples = 20000;
  gef_config.k = 64;
  gef_config.seed = options.seed;
  spec->forest.learning_rate = 0.1;
  spec->forest.min_samples_leaf = 20;
  if (options.workload == "census_explain" ||
      options.workload == "census_serve") {
    // Census rows, trees, leaves, N and k as in the BENCH_PR4-PR10
    // census workload, whose training set this seed reproduces.
    spec->census = true;
    spec->data_seed = 43;
    spec->train_rows = 4000;
    spec->forest.objective = gef::Objective::kBinaryClassification;
    spec->forest.num_trees = 100;
    spec->forest.num_leaves = 32;
    gef_config.num_univariate = 5;
    gef_config.num_bivariate = 1;
  } else if (options.workload == "wide_explain") {
    spec->census = false;
    spec->data_seed = 44;
    spec->train_rows = 3000;
    spec->forest.objective = gef::Objective::kRegression;
    spec->forest.num_trees = 600;
    spec->forest.num_leaves = 64;
    gef_config.num_univariate = 8;
    gef_config.num_bivariate = 2;
  } else {
    return false;
  }
  spec->forest.seed = spec->data_seed;
  if (options.workload == "census_serve") {
    spec->predict_share = 0.25;
    spec->rows_share = 0.25;
    spec->explain_req_share = 0.2;
    spec->open_share = 0.3;
  } else {
    spec->explain_share = 0.5;
    spec->predict_share = 0.1;
    spec->rows_share = 0.2;  // a wide 256-row request takes ~70 ms
    spec->explain_req_share = 0.1;
    spec->open_share = 0.1;
  }
  if (options.smoke) {
    spec->train_rows = 400;
    spec->heldout_pool = 128;
    spec->request_rows = 64;
    spec->rows_per_request = 16;
    spec->forest.num_trees = 8;
    spec->forest.num_leaves = 8;
    gef_config.num_samples = 1500;
    gef_config.k = 16;
    gef_config.spline_basis = 8;
    gef_config.tensor_basis = 4;
  }
  return true;
}

// ------------------------------------------------------------ small utils

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile; 0 on an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  return values[rank - 1];
}

std::string NumberText(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string RowJson(const std::vector<double>& row) {
  std::string out = "[";
  for (size_t j = 0; j < row.size(); ++j) {
    if (j > 0) out += ",";
    out += NumberText(row[j]);
  }
  return out + "]";
}

// One stderr line per serving phase: the slice p50s the result takes the
// median of, and the whole phase's distribution behind them.
void LogPhase(const char* name, int conns, const std::vector<double>& p50s,
              const std::vector<double>& lat_ms) {
  std::string slices;
  for (double p : p50s) slices += " " + std::to_string(p).substr(0, 5);
  std::fprintf(stderr,
               "%-24s conns=%d n=%zu slice p50s:%s | ms: p10=%.3f p50=%.3f "
               "p90=%.3f p99=%.3f\n",
               name, conns, lat_ms.size(), slices.c_str(),
               Percentile(lat_ms, 0.1), Percentile(lat_ms, 0.5),
               Percentile(lat_ms, 0.9), Percentile(lat_ms, 0.99));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// VmHWM of a process in MiB, 0 when unreadable.
double PeakRssMib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// CPUs this thread may run on. The server gets all of them but the last,
// the load client the last one, so client and server never share a core.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int c : cpus) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out;
}

std::string ReadFirstLine(const std::string& path,
                          const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------- the server

// One gef_serve child process. Stop() (also run by the destructor) sends
// SIGTERM, which the server answers by draining, and waits for the exit.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, const std::string& store_path,
             const std::string& log_path, const std::vector<int>& cpus) {
    const std::vector<std::string> args = {
        binary,
        "--store", store_path,
        "--port", "0",
        "--shards", std::to_string(kServerShards),
        "--workers", std::to_string(kServerWorkers)};
    // A log left by an earlier server would announce a stale port.
    std::remove(log_path.c_str());
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      PinThread(cpus);
      const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      std::vector<char*> argv;
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    // The server prints "listening on ADDR:PORT" once it accepts.
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < 60.0) {
      const std::string line = ReadFirstLine(log_path, "listening on ");
      const size_t colon = line.rfind(':');
      if (colon != std::string::npos) {
        port_ = std::atoi(line.c_str() + colon + 1);
        break;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (port_ <= 0) return false;
    while (SecondsSince(start) < 60.0) {
      int status = 0;
      std::string body;
      if (LoadClient::RoundTrip(port_, "GET", "/healthz", "", &status,
                                &body) &&
          status == 200) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// SIGTERM and wait. Returns true when the server exited with code 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point start = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (SecondsSince(start) > 10.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// ------------------------------------------------------------ the run

struct Checks {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;  // first few, for the record line

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// Metrics of one measured window (every end-to-end metric but setup_s,
// fidelity_r2 and peak_rss_mb, which come from the set-up).
struct WindowResult {
  std::vector<double> explain_s;  // in-window ExplainForest calls
  double predict_qps = 0.0;
  double predict_p50_ms = 0.0;
  double batch_rows_per_s = 0.0;
  double explain_p50_ms = 0.0;
  double open_p50_ms = 0.0;
  // Traced-only diagnostics.
  std::map<std::string, double> extra;
  // /metrics deltas summed over each phase's slices (traced runs only).
  std::map<std::string, std::map<std::string, double>> deltas;
};

enum RequestKind { kPredict = 0, kRows = 1, kExplain = 2, kRequestKinds = 3 };
constexpr const char* kRequestSpanNames[] = {"serve.predict", "serve.rows",
                                             "serve.explain"};

class Bench {
 public:
  Bench(Options options, WorkloadSpec spec)
      : options_(std::move(options)), spec_(std::move(spec)) {
    if (all_cpus_.size() >= 2) {
      server_cpus_.assign(all_cpus_.begin(), all_cpus_.end() - 1);
      client_cpus_ = {all_cpus_.back()};
    }
  }

  int Run();

 private:
  bool SetupOnce(Tracer* tracer, bool keep_server, double* seconds);
  bool Window(Tracer* tracer, WindowResult* out);
  void RunExplainReps(Tracer* tracer, double seconds, WindowResult* out);
  std::unique_ptr<GefExplanation> Explain(Tracer* tracer);
  void BuildRequests();
  void CheckPhase(const std::vector<Completion>& phase,
                  const std::vector<Request>& reqs,
                  std::vector<double>* latencies_ms);
  bool CheckExplainBody(const std::string& body, size_t row);
  void CheckModels();
  std::map<std::string, double> Scrape(const Tracer* tracer);
  void LayerProbes(Tracer* tracer, std::map<std::string, double>* out);
  std::string Path(const std::string& suffix) const {
    return options_.work_dir + "/" + spec_.name + "-" +
           std::to_string(options_.seed) + "-" + std::to_string(getpid()) +
           suffix;
  }

  Options options_;
  WorkloadSpec spec_;
  std::vector<int> all_cpus_ = AllowedCpus();
  std::vector<int> server_cpus_;
  std::vector<int> client_cpus_;

  // Products of the last set-up.
  Dataset train_;
  Dataset heldout_;
  Forest forest_;
  std::unique_ptr<GefExplanation> explanation_;
  uint64_t surrogate_hash_ = 0;
  std::unique_ptr<ServerProcess> server_;
  std::vector<double> setup_s_;
  std::vector<double> prefit_s_;
  std::vector<double> train_s_;

  // The forest and explanation as loaded back from the served store: the
  // reference every response is checked against.
  Forest stored_forest_;
  std::unique_ptr<GefExplanation> stored_explanation_;
  uint64_t store_hash_ = 0;

  std::vector<std::vector<double>> rows_;
  std::vector<Request> predict_requests_;
  std::vector<Request> rows_requests_;
  std::vector<Request> explain_requests_;
  std::vector<Request> open_requests_;  // predicts then explains
  std::vector<std::vector<Arrival>> open_schedules_;  // one per round
  size_t open_explain_offset_ = 0;

  Checks checks_;
  int http_attempted_ = 0;
  int http_failed_ = 0;
  std::map<int, double> resp_bytes_;   // by kind, summed
  std::map<int, double> resp_count_;
};

std::unique_ptr<GefExplanation> Bench::Explain(Tracer* tracer) {
  if (!tracer->enabled()) return gef::ExplainForest(forest_, spec_.gef);
  // ExplainForest is exactly these two stages; tracing splits them.
  gef::GefSamplingArtifacts artifacts;
  {
    ScopedSpan span(tracer, "gef.BuildSamplingArtifacts");
    artifacts = gef::BuildSamplingArtifacts(forest_, spec_.gef);
  }
  ScopedSpan span(tracer, "surrogate.FitExplanation");
  return gef::FitExplanation(forest_, artifacts, spec_.gef);
}

bool Bench::SetupOnce(Tracer* tracer, bool keep_server, double* seconds) {
  const Clock::time_point start = Clock::now();
  ScopedSpan setup_span(tracer, "bench.setup");
  {
    ScopedSpan span(tracer, "data.generate");
    gef::Rng rng(spec_.data_seed);
    Dataset pool;
    if (spec_.census) {
      // Encoded with the training rows' levels, as a served model sees
      // new rows.
      Dataset raw_train = gef::MakeCensusDatasetRaw(spec_.train_rows, &rng);
      Dataset raw_pool = gef::MakeCensusDatasetRaw(spec_.heldout_pool, &rng);
      gef::OneHotEncoder encoder(raw_train, gef::CensusCategoricalColumns());
      train_ = encoder.Transform(raw_train);
      pool = encoder.Transform(raw_pool);
    } else {
      train_ = gef::MakeSuperconductivityDataset(spec_.train_rows, &rng);
      pool = gef::MakeSuperconductivityDataset(spec_.heldout_pool, &rng);
    }
    std::vector<size_t> pick(pool.num_rows());
    for (size_t i = 0; i < pick.size(); ++i) pick[i] = i;
    std::mt19937_64 gen(options_.seed);
    std::shuffle(pick.begin(), pick.end(), gen);
    pick.resize(std::min(spec_.request_rows, pick.size()));
    heldout_ = pool.Subset(pick);
  }
  {
    ScopedSpan span(tracer, "forest.TrainGbdt");
    const Clock::time_point t = Clock::now();
    forest_ = gef::TrainGbdt(train_, nullptr, spec_.forest).forest;
    train_s_.push_back(SecondsSince(t));
  }
  {
    ScopedSpan span(tracer, "gef.prefit");
    const Clock::time_point t = Clock::now();
    explanation_ = Explain(tracer);
    prefit_s_.push_back(SecondsSince(t));
  }
  if (explanation_ == nullptr) {
    std::fprintf(stderr, "surrogate fit failed\n");
    return false;
  }
  const std::string store_path = Path(".gefs");
  {
    ScopedSpan span(tracer, "store.pack");
    gef::store::StoreBuilder builder;
    gef::Status s = builder.AddForest(kModelName, forest_);
    if (s.ok()) {
      s = builder.AddSurrogate(kModelName,
                               gef::ExplanationToString(*explanation_));
    }
    if (s.ok()) s = builder.WriteTo(store_path);
    if (!s.ok()) {
      std::fprintf(stderr, "store pack failed: %s\n", s.ToString().c_str());
      return false;
    }
  }
  server_ = std::make_unique<ServerProcess>();
  {
    ScopedSpan span(tracer, "serve.boot");
    if (!server_->Start(options_.serve_bin, store_path, Path(".log"),
                        server_cpus_)) {
      std::fprintf(stderr, "gef_serve did not come up; see %s\n",
                   Path(".log").c_str());
      return false;
    }
  }
  {
    // Untimed warm-up of every request type (its cost is in setup_s).
    ScopedSpan span(tracer, "bench.warmup");
    BuildRequests();
    PinThread(client_cpus_);
    LoadClient client;
    bool connected = client.Connect(server_->port(), spec_.predict_conns);
    for (const std::vector<Request>* reqs :
         {&predict_requests_, &rows_requests_, &explain_requests_}) {
      if (connected) client.RunClosed(*reqs, kWarmupSeconds);
    }
    PinThread(all_cpus_);
    if (!connected) return false;
  }
  *seconds = SecondsSince(start);
  if (!keep_server) {
    server_->Stop();
    server_.reset();
  }
  return true;
}

void Bench::BuildRequests() {
  rows_.clear();
  std::vector<double> row;
  for (size_t i = 0; i < heldout_.num_rows(); ++i) {
    heldout_.GetRowInto(i, &row);
    rows_.push_back(row);
  }
  std::vector<std::string> row_json;
  for (const auto& r : rows_) row_json.push_back(RowJson(r));

  predict_requests_.clear();
  explain_requests_.clear();
  rows_requests_.clear();
  for (size_t i = 0; i < rows_.size(); ++i) {
    const std::string body = "{\"row\":" + row_json[i] + "}";
    predict_requests_.push_back(
        {PostRequest("/v1/predict", body), kPredict, i});
    explain_requests_.push_back(
        {PostRequest("/v1/explain", body), kExplain, i});
  }
  const size_t per = std::min(spec_.rows_per_request, rows_.size());
  for (size_t first = 0; first + per <= rows_.size(); first += per) {
    std::string body = "{\"rows\":[";
    for (size_t i = first; i < first + per; ++i) {
      if (i > first) body += ",";
      body += row_json[i];
    }
    body += "]}";
    rows_requests_.push_back({PostRequest("/v1/predict", body), kRows, first});
  }
  // Open loop: a seeded Poisson schedule, 7 predicts to 1 explain, rows
  // drawn uniformly from the held-out set.
  open_requests_ = predict_requests_;
  open_explain_offset_ = open_requests_.size();
  open_requests_.insert(open_requests_.end(), explain_requests_.begin(),
                        explain_requests_.end());
  open_schedules_.assign(kRounds, {});
  std::mt19937_64 gen(options_.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::exponential_distribution<double> gap(spec_.open_rate);
  std::uniform_int_distribution<size_t> pick(0, rows_.size() - 1);
  std::uniform_int_distribution<int> mix(0, 7);
  const double horizon =
      std::max(0.05, spec_.open_share * options_.seconds / kRounds);
  for (std::vector<Arrival>& schedule : open_schedules_) {
    for (double t = gap(gen); t < horizon; t += gap(gen)) {
      const size_t r = pick(gen);
      schedule.push_back({t, mix(gen) == 0 ? open_explain_offset_ + r : r});
    }
  }
}

void Bench::RunExplainReps(Tracer* tracer, double seconds,
                           WindowResult* out) {
  ScopedSpan phase(tracer, "bench.explain_phase");
  const Clock::time_point start = Clock::now();
  int reps = 0;
  while (reps < kMinExplainReps || SecondsSince(start) < seconds) {
    const Clock::time_point t = Clock::now();
    std::unique_ptr<GefExplanation> e;
    {
      ScopedSpan span(tracer, "gef.ExplainForest");
      e = Explain(tracer);
    }
    out->explain_s.push_back(SecondsSince(t));
    ++reps;
    checks_.Record(e != nullptr && e->surrogate->ContentHash() ==
                                        surrogate_hash_,
                   "repeated ExplainForest changed the surrogate hash");
  }
}

bool Bench::CheckExplainBody(const std::string& body, size_t row) {
  JsonValue json;
  if (!ParseJson(body, &json)) return false;
  const gef::LocalExplanation local = gef::ExplainInstance(
      *stored_explanation_, stored_forest_, rows_[row]);
  auto number = [&](const JsonValue& obj, const char* key, double want) {
    const JsonValue* v = obj.Find(key);
    return v != nullptr && v->kind == JsonValue::Kind::kNumber &&
           SameBits(v->number, want);
  };
  if (!number(json, "gam_prediction", local.gam_prediction) ||
      !number(json, "forest_prediction", local.forest_prediction) ||
      !number(json, "intercept", local.intercept)) {
    return false;
  }
  const JsonValue* terms = json.Find("terms");
  if (terms == nullptr || terms->array.size() != local.terms.size()) {
    return false;
  }
  for (size_t t = 0; t < local.terms.size(); ++t) {
    const JsonValue& got = terms->array[t];
    const gef::LocalTermContribution& want = local.terms[t];
    const JsonValue* label = got.Find("label");
    const JsonValue* features = got.Find("features");
    if (label == nullptr || label->str != want.label ||
        features == nullptr ||
        features->array.size() != want.features.size()) {
      return false;
    }
    for (size_t f = 0; f < want.features.size(); ++f) {
      if (features->array[f].number != want.features[f]) return false;
    }
    if (!number(got, "contribution", want.contribution) ||
        !number(got, "lower", want.lower) ||
        !number(got, "upper", want.upper) ||
        !number(got, "delta_minus", want.delta_minus) ||
        !number(got, "delta_plus", want.delta_plus)) {
      return false;
    }
  }
  return true;
}

// Counts every response, checks it against the in-process reference, and
// collects the latencies of the 200s (from the due time).
void Bench::CheckPhase(const std::vector<Completion>& phase,
                       const std::vector<Request>& reqs,
                       std::vector<double>* latencies_ms) {
  size_t explains_seen = 0;
  for (const Completion& c : phase) {
    const Request& req = reqs[c.request];
    ++http_attempted_;
    resp_bytes_[req.kind] += static_cast<double>(c.body.size());
    resp_count_[req.kind] += 1.0;
    bool ok = c.status == 200;
    if (ok && req.kind == kPredict) {
      JsonValue json;
      const JsonValue* p = ParseJson(c.body, &json)
                               ? json.Find("prediction")
                               : nullptr;
      ok = p != nullptr &&
           SameBits(p->number, stored_forest_.Predict(rows_[req.payload]));
    } else if (ok && req.kind == kRows) {
      JsonValue json;
      const JsonValue* p = ParseJson(c.body, &json)
                               ? json.Find("predictions")
                               : nullptr;
      const size_t per = std::min(spec_.rows_per_request, rows_.size());
      ok = p != nullptr && p->array.size() == per;
      for (size_t i = 0; ok && i < per; ++i) {
        ok = SameBits(p->array[i].number,
                      stored_forest_.Predict(rows_[req.payload + i]));
      }
    } else if (ok && req.kind == kExplain) {
      // ExplainInstance is not free; check every 8th answer.
      if (explains_seen++ % 8 == 0) {
        ok = CheckExplainBody(c.body, req.payload);
      }
    }
    if (!ok) {
      ++http_failed_;
      if (checks_.failures.size() < 8) {
        checks_.failures.push_back(std::string(kRequestSpanNames[req.kind]) +
                                   " status " + std::to_string(c.status) +
                                   (c.status == 200 ? " wrong answer" : ""));
      }
      continue;
    }
    latencies_ms->push_back(
        std::chrono::duration<double, std::milli>(c.done - c.due).count());
  }
}

void Bench::CheckModels() {
  int status = 0;
  std::string body;
  bool ok = LoadClient::RoundTrip(server_->port(), "GET", "/v1/models", "",
                                  &status, &body) &&
            status == 200;
  JsonValue json;
  ok = ok && ParseJson(body, &json);
  bool found = false;
  if (ok && json.Find("models") != nullptr) {
    for (const JsonValue& model : json.Find("models")->array) {
      const JsonValue* name = model.Find("name");
      const JsonValue* hash = model.Find("hash");
      if (name != nullptr && name->str == kModelName && hash != nullptr) {
        found = std::strtoull(hash->str.c_str(), nullptr, 16) == store_hash_;
      }
    }
  }
  checks_.Record(ok && found, "/v1/models does not report the store hash");
}

// The server's /metrics exposition as name -> value, in traced runs only.
// Any line that is not "name number" is skipped: these values are
// diagnostics and a format change must never fail the run.
std::map<std::string, double> Bench::Scrape(const Tracer* tracer) {
  std::map<std::string, double> values;
  if (!tracer->enabled()) return values;
  int status = 0;
  std::string body;
  if (!LoadClient::RoundTrip(server_->port(), "GET", "/metrics", "", &status,
                             &body) ||
      status != 200) {
    return values;
  }
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || line[0] == '#') continue;
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + space + 1, &end);
    if (end != line.c_str() + space + 1) values[line.substr(0, space)] = v;
  }
  return values;
}

bool Bench::Window(Tracer* tracer, WindowResult* out) {
  const double s = options_.seconds;
  struct Phase {
    const char* name;
    RequestKind kind;  // closed loop of this kind; kRequestKinds = open
    int conns;
    double share;
    const std::vector<Request>* reqs;
  };
  const Phase phases[] = {
      {"bench.predict_phase", kPredict, spec_.predict_conns,
       spec_.predict_share, &predict_requests_},
      {"bench.rows_phase", kRows, spec_.rows_conns, spec_.rows_share,
       &rows_requests_},
      {"bench.explain_req_phase", kExplain, spec_.explain_conns,
       spec_.explain_req_share, &explain_requests_},
      {"bench.open_phase", kRequestKinds, spec_.open_conns, spec_.open_share,
       &open_requests_}};
  constexpr int kPhases = 4;
  const char* const tail_names[kPhases] = {"serve.predict", "serve.rows",
                                           "serve.explain", "serve.open"};
  // One client per phase, connected for the whole window.
  std::vector<std::unique_ptr<LoadClient>> clients;
  for (const Phase& phase : phases) {
    clients.push_back(std::make_unique<LoadClient>());
    if (!clients.back()->Connect(server_->port(), phase.conns)) return false;
  }
  std::vector<double> p50s[kPhases], all[kPhases], lag_ms;

  if (spec_.explain_share > 0) {
    RunExplainReps(tracer, spec_.explain_share * s, out);
  }
  PinThread(client_cpus_);
  // One unmeasured slice per closed-loop phase first.
  for (int p = 0; p < kPhases; ++p) {
    if (phases[p].kind == kRequestKinds) continue;
    std::vector<double> unused;
    CheckPhase(clients[p]->RunClosed(*phases[p].reqs,
                                     phases[p].share * s / kRounds),
               *phases[p].reqs, &unused);
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int p = 0; p < kPhases; ++p) {
      const Phase& phase = phases[p];
      const std::map<std::string, double> before = Scrape(tracer);
      const int span = tracer->Begin(phase.name);
      std::vector<Completion> slice =
          phase.kind == kRequestKinds
              ? clients[p]->RunOpen(*phase.reqs, open_schedules_[round])
              : clients[p]->RunClosed(*phase.reqs, phase.share * s / kRounds);
      tracer->End(span);
      for (const auto& [key, value] : Scrape(tracer)) {
        auto b = before.find(key);
        if (b != before.end()) {
          out->deltas[phase.name][key] += value - b->second;
        }
      }
      for (const Completion& c : slice) {
        tracer->Add(kRequestSpanNames[(*phase.reqs)[c.request].kind], c.due,
                    c.done, span, c.request_id);
        if (phase.kind == kRequestKinds) {
          lag_ms.push_back(
              std::chrono::duration<double, std::milli>(c.sent - c.due)
                  .count());
        }
      }
      std::vector<double> lat;
      CheckPhase(slice, *phase.reqs, &lat);
      p50s[p].push_back(Percentile(lat, 0.5));
      all[p].insert(all[p].end(), lat.begin(), lat.end());
    }
  }
  CheckModels();
  PinThread(all_cpus_);

  for (int p = 0; p < kPhases; ++p) {
    LogPhase(phases[p].name, phases[p].conns, p50s[p], all[p]);
    out->extra[std::string(tail_names[p]) + "_p99_ms"] =
        Percentile(all[p], 0.99);
    out->extra[std::string(tail_names[p]) + "_n"] =
        static_cast<double>(all[p].size());
  }
  // One connection's closed-loop rate is the reciprocal of its latency.
  // It is taken at the round's median request: a stall of the shared
  // machine delays a few requests, which the median skips, where a count
  // over the slice would absorb it.
  const double rows_per_request =
      static_cast<double>(std::min(spec_.rows_per_request, rows_.size()));
  std::vector<double> predict_rates, rows_rates;
  for (double p50 : p50s[kPredict]) {
    predict_rates.push_back(1e3 / std::max(p50, 1e-9));
  }
  for (double p50 : p50s[kRows]) {
    rows_rates.push_back(rows_per_request * 1e3 / std::max(p50, 1e-9));
  }
  out->predict_qps = Median(predict_rates);
  out->predict_p50_ms = Median(p50s[kPredict]);
  out->batch_rows_per_s = Median(rows_rates);
  out->explain_p50_ms = Median(p50s[kExplain]);
  out->open_p50_ms = Median(p50s[kRequestKinds]);
  out->extra["serve.open_send_lag_p99_ms"] = Percentile(lag_ms, 0.99);
  return true;
}

// Per-layer probes: the benchmark times its own calls into each layer's
// public functions on the products of the last set-up.
void Bench::LayerProbes(Tracer* tracer, std::map<std::string, double>* out) {
  constexpr int kReps = 5;
  gef::GefSamplingArtifacts artifacts;
  std::vector<double> sampling_s, fit_s, label_rps, surrogate_rps;
  std::unique_ptr<GefExplanation> fitted;
  for (int r = 0; r < 3; ++r) {
    Clock::time_point t = Clock::now();
    {
      ScopedSpan span(tracer, "gef.BuildSamplingArtifacts");
      artifacts = gef::BuildSamplingArtifacts(forest_, spec_.gef);
    }
    sampling_s.push_back(SecondsSince(t));
    t = Clock::now();
    {
      ScopedSpan span(tracer, "surrogate.FitExplanation");
      fitted = gef::FitExplanation(forest_, artifacts, spec_.gef);
    }
    fit_s.push_back(SecondsSince(t));
  }
  (*out)["gef.sampling_s"] = Median(sampling_s);
  (*out)["gef.fit_s"] = Median(fit_s);
  const double dstar_rows = static_cast<double>(artifacts.dstar.num_rows());
  for (int r = 0; r < kReps; ++r) {
    Clock::time_point t = Clock::now();
    {
      ScopedSpan span(tracer, "forest.PredictBatch");
      forest_.PredictBatch(artifacts.dstar);
    }
    label_rps.push_back(dstar_rows / SecondsSince(t));
    t = Clock::now();
    {
      ScopedSpan span(tracer, "surrogate.PredictBatch");
      fitted->surrogate->PredictBatch(fitted->dstar_test);
    }
    surrogate_rps.push_back(
        static_cast<double>(fitted->dstar_test.num_rows()) / SecondsSince(t));
  }
  (*out)["forest.label_rows_per_s"] = Median(label_rps);
  (*out)["surrogate.predict_rows_per_s"] = Median(surrogate_rps);
  (*out)["gef.dstar_rows"] = dstar_rows;
  (*out)["forest.nodes"] = static_cast<double>(forest_.num_internal_nodes());
  (*out)["surrogate.terms"] =
      static_cast<double>(fitted->surrogate->num_terms());

  {
    GefConfig fanova = spec_.gef;
    fanova.surrogate_backend = "boosted_fanova";
    const Clock::time_point t = Clock::now();
    std::unique_ptr<GefExplanation> e;
    {
      ScopedSpan span(tracer, "surrogate.FitExplanation_fanova");
      e = gef::FitExplanation(forest_, artifacts, fanova);
    }
    (*out)["surrogate.fanova_fit_s"] = SecondsSince(t);
    (*out)["surrogate.fanova_r2"] =
        e != nullptr ? gef::EvaluateFidelity(*e, forest_, e->dstar_test).r2
                     : 0.0;
  }

  // Serving-side layers, on the forest and explanation the server holds.
  std::vector<double> open_ms;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t = Clock::now();
    ScopedSpan span(tracer, "store.Open");
    auto reader = gef::store::StoreReader::Open(Path(".gefs"));
    checks_.Record(reader.ok() && reader.value().LoadForest(kModelName).ok(),
                   "the served store does not load");
    open_ms.push_back(1e3 * SecondsSince(t));
  }
  (*out)["store.open_ms"] = Median(open_ms);

  std::vector<double> predict_us, explain_us, batch_rps;
  {
    ScopedSpan span(tracer, "forest.Predict");
    for (int r = 0; r < kReps; ++r) {
      const Clock::time_point t = Clock::now();
      for (const auto& row : rows_) stored_forest_.Predict(row);
      predict_us.push_back(1e6 * SecondsSince(t) /
                           static_cast<double>(rows_.size()));
    }
  }
  const size_t per = std::min(spec_.rows_per_request, rows_.size());
  std::vector<size_t> idx(per);
  for (size_t i = 0; i < per; ++i) idx[i] = i;
  const Dataset one_request = heldout_.Subset(idx);
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t = Clock::now();
    ScopedSpan span(tracer, "forest.PredictBatch_request");
    stored_forest_.PredictBatch(one_request);
    batch_rps.push_back(static_cast<double>(per) / SecondsSince(t));
  }
  {
    ScopedSpan span(tracer, "gef.ExplainInstance");
    const size_t n = std::min<size_t>(rows_.size(), 256);
    for (int r = 0; r < kReps; ++r) {
      const Clock::time_point t = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        gef::ExplainInstance(*stored_explanation_, stored_forest_, rows_[i]);
      }
      explain_us.push_back(1e6 * SecondsSince(t) / static_cast<double>(n));
    }
  }
  (*out)["forest.predict_us"] = Median(predict_us);
  (*out)["forest.batch_rows_per_s"] = Median(batch_rps);
  (*out)["gef.local_explain_us"] = Median(explain_us);
}

std::string Fingerprint() {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  utsname uts{};
  uname(&uts);
  const char* threads = std::getenv("GEF_NUM_THREADS");
  return "{\"cpu\":" + JsonString(cpu) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel\":" + JsonString(uts.release) +
         ",\"compiler\":" + JsonString(__VERSION__) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"gef_num_threads\":" + JsonString(threads ? threads : "unset") +
         "}";
}

// A /metrics counter's change over one phase's slices; false when the
// server does not export it.
bool Delta(const WindowResult& w, const char* phase, const std::string& key,
           double* value) {
  auto p = w.deltas.find(phase);
  if (p == w.deltas.end()) return false;
  auto v = p->second.find(key);
  if (v == p->second.end()) return false;
  *value = v->second;
  return true;
}

// Sum of Delta over every serving phase.
bool WindowDelta(const WindowResult& w, const std::string& key,
                 double* value) {
  bool any = false;
  *value = 0.0;
  for (const auto& [phase, values] : w.deltas) {
    auto v = values.find(key);
    if (v == values.end()) continue;
    *value += v->second;
    any = true;
  }
  return any;
}

int Bench::Run() {
  Tracer setup_tracer(options_.trace);
  // Set-up, repeated; the last repetition's products and server are kept.
  for (int r = 0; r < kSetupRepeats; ++r) {
    double seconds = 0.0;
    if (!SetupOnce(&setup_tracer, r + 1 == kSetupRepeats, &seconds)) {
      return 1;
    }
    setup_s_.push_back(seconds);
    std::fprintf(stderr, "set-up %d: %.3f s (train %.3f s, prefit %.3f s)\n",
                 r, seconds, train_s_.back(), prefit_s_.back());
  }
  surrogate_hash_ = explanation_->surrogate->ContentHash();
  const double fidelity_r2 =
      gef::EvaluateFidelity(*explanation_, forest_, explanation_->dstar_test)
          .r2;
  checks_.Record(std::isfinite(fidelity_r2), "fidelity_r2 is not finite");
  {
    auto reader = gef::store::StoreReader::Open(Path(".gefs"));
    if (!reader.ok()) return 1;
    auto forest = reader.value().LoadForest(kModelName);
    auto text = reader.value().SurrogateText(kModelName);
    auto hash = reader.value().ForestHash(kModelName);
    if (!forest.ok() || !text.ok() || !hash.ok()) return 1;
    stored_forest_ = std::move(forest).value();
    auto parsed = gef::ExplanationFromString(text.value());
    if (!parsed.ok()) return 1;
    stored_explanation_ = std::move(parsed).value();
    store_hash_ = hash.value();
  }

  Tracer untraced(false);
  WindowResult window;
  if (!Window(&untraced, &window)) return 1;
  const double bench_rss = PeakRssMib("self");
  const double server_rss = PeakRssMib(std::to_string(server_->pid()));

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const double explain_s = spec_.explain_share > 0 ? Median(window.explain_s)
                                                   : Median(prefit_s_);
  if (!options_.trace) {
    metrics = {
        {"setup_s", {Median(setup_s_), "s"}},
        {"explain_s", {explain_s, "s"}},
        {"fidelity_r2", {fidelity_r2, "R2"}},
        {"peak_rss_mb",
         {spec_.explain_share > 0 ? bench_rss : server_rss, "MiB"}},
        {"predict_qps", {window.predict_qps, "1/s"}},
        {"predict_p50_ms", {window.predict_p50_ms, "ms"}},
        {"explain_p50_ms", {window.explain_p50_ms, "ms"}},
        {"open_p50_ms", {window.open_p50_ms, "ms"}},
    };
  } else {
    // Traced: the same window again with spans on; the difference to the
    // untraced window above is the tracing overhead.
    Tracer tracer(true);
    WindowResult traced;
    if (!Window(&tracer, &traced)) return 1;
    std::map<std::string, double> layer;
    LayerProbes(&tracer, &layer);
    // Not gated: one worker's JSON-bound rate followed the shared host's
    // speed from run to run by more than any bound allows.
    layer["serve.batch_rows_per_s"] = traced.batch_rows_per_s;
    layer["forest.train_s"] = Median(train_s_);
    layer["gef.prefit_s"] = Median(prefit_s_);
    for (const auto& [key, value] : traced.extra) layer[key] = value;
    const double traced_explain_s = spec_.explain_share > 0
                                        ? Median(traced.explain_s)
                                        : Median(prefit_s_);
    layer["trace.overhead_explain_s"] = traced_explain_s - explain_s;
    layer["trace.overhead_predict_p50_ms"] =
        traced.predict_p50_ms - window.predict_p50_ms;
    layer["trace.overhead_explain_p50_ms"] =
        traced.explain_p50_ms - window.explain_p50_ms;
    layer["trace.overhead_open_p50_ms"] =
        traced.open_p50_ms - window.open_p50_ms;
    for (const auto& [kind, bytes] : resp_bytes_) {
      static const char* const names[] = {"serve.resp_bytes_predict",
                                          "serve.resp_bytes_rows",
                                          "serve.resp_bytes_explain"};
      layer[names[kind]] = bytes / std::max(1.0, resp_count_[kind]);
    }
    // Self time per layer over the set-up and the traced window.
    std::map<std::string, double> self = setup_tracer.SelfSecondsByLayer();
    for (const auto& [name, seconds] : tracer.SelfSecondsByLayer()) {
      self[name] += seconds;
    }
    for (const auto& [name, seconds] : self) {
      layer["self_s." + name] = seconds;
    }

    // /metrics deltas. Optional: absent when a counter is missing.
    std::map<std::string, double> optional;
    double a = 0.0, b = 0.0;
    if (Delta(traced, "bench.predict_phase", "serve.latency_s.predict.sum",
              &a) &&
        Delta(traced, "bench.predict_phase", "serve.latency_s.predict.count",
              &b) &&
        b > 0) {
      optional["serve.server_predict_mean_ms"] = 1e3 * a / b;
    }
    if (Delta(traced, "bench.explain_req_phase",
              "serve.latency_s.explain.sum", &a) &&
        Delta(traced, "bench.explain_req_phase",
              "serve.latency_s.explain.count", &b) &&
        b > 0) {
      optional["serve.server_explain_mean_ms"] = 1e3 * a / b;
    }
    if (Delta(traced, "bench.predict_phase", "serve.batch.rows", &a) &&
        Delta(traced, "bench.predict_phase", "serve.batch.dispatches", &b) &&
        b > 0) {
      optional["serve.batch_rows_per_dispatch"] = a / b;
    }
    if (Delta(traced, "bench.predict_phase", "serve.predict.burst_rows.sum",
              &a) &&
        Delta(traced, "bench.predict_phase",
              "serve.predict.burst_rows.count", &b) &&
        b > 0) {
      optional["serve.burst_rows_per_round"] = a / b;
    }
    if (WindowDelta(traced, "serve.shed", &a)) optional["serve.shed"] = a;
    if (WindowDelta(traced, "serve.surrogate_cache.hits", &a) &&
        WindowDelta(traced, "serve.surrogate_cache.misses", &b) &&
        a + b > 0) {
      optional["serve.cache_hit_ratio"] = a / (a + b);
    }
    if (WindowDelta(traced, "serve.gef_fits", &a)) {
      optional["serve.gef_fits"] = a;
      checks_.Record(a == 0, "the server fitted a surrogate in traffic");
    }
    for (const auto& [key, value] : optional) layer[key] = value;

    const std::string trace_path = Path(".trace.jsonl");
    Tracer merged(true);
    for (const Tracer* t : {&setup_tracer, &tracer}) {
      const size_t base = merged.spans().size();
      for (const Span& s : t->spans()) {
        merged.Add(s.name, s.start, s.end,
                   s.parent < 0 ? -1 : s.parent + static_cast<int>(base),
                   s.request_id);
      }
    }
    if (!merged.WriteJsonl(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "spans: %s\n", trace_path.c_str());
    }
    for (const auto& [key, value] : layer) {
      std::string unit = "count";
      auto ends = [&key](const char* suffix) {
        const size_t n = std::strlen(suffix);
        return key.size() >= n && key.compare(key.size() - n, n, suffix) == 0;
      };
      // The unit is spelled by the name's suffix; longest suffix first.
      if (ends("_rows_per_s")) unit = "rows/s";
      else if (ends("_s") || key.rfind("self_s.", 0) == 0) unit = "s";
      else if (ends("_ms")) unit = "ms";
      else if (ends("_us")) unit = "us";
      else if (ends("_r2")) unit = "R2";
      else if (ends("_ratio") || ends("_per_dispatch") ||
               ends("_per_round")) unit = "ratio";
      else if (key.rfind("serve.resp_bytes", 0) == 0) unit = "bytes";
      metrics.push_back({key, {value, unit}});
    }
  }

  const bool server_clean = server_->Stop();
  checks_.Record(server_clean, "gef_serve did not drain and exit 0");
  std::remove(Path(".gefs").c_str());
  std::remove(Path(".log").c_str());

  const int attempted = http_attempted_ + checks_.attempted;
  const int failed = http_failed_ + checks_.failed;

  std::string record = "{\"perfbench\":{\"workload\":" +
                       JsonString(spec_.name) +
                       ",\"seed\":" + std::to_string(options_.seed) +
                       ",\"seconds\":" + NumberText(options_.seconds) +
                       ",\"trace\":" + (options_.trace ? "1" : "0") +
                       ",\"fingerprint\":" + Fingerprint() +
                       ",\"noise_controls\":{\"server_shards\":" +
                       std::to_string(kServerShards) +
                       ",\"server_workers\":" + std::to_string(kServerWorkers) +
                       ",\"server_cpus\":\"" + CpuList(server_cpus_) +
                       "\",\"client_cpus\":\"" + CpuList(client_cpus_) +
                       "\",\"client_threads\":1,\"connections\":{\"predict\":" +
                       std::to_string(spec_.predict_conns) +
                       ",\"rows\":" + std::to_string(spec_.rows_conns) +
                       ",\"explain\":" + std::to_string(spec_.explain_conns) +
                       ",\"open\":" + std::to_string(spec_.open_conns) +
                       "},\"open_rate_per_s\":" + NumberText(spec_.open_rate) +
                       ",\"setup_repeats\":" + std::to_string(kSetupRepeats) +
                       ",\"explain_reps\":" +
                       std::to_string(window.explain_s.size()) +
                       ",\"warmup\":\"prefit ExplainForest + closed-loop "
                       "requests per type\",\"warmup_s_per_type\":" +
                       NumberText(kWarmupSeconds) + "},\"failures\":[";
  for (size_t i = 0; i < checks_.failures.size(); ++i) {
    if (i > 0) record += ",";
    record += JsonString(checks_.failures[i]);
  }
  record += "]}}";
  std::printf("%s\n", record.c_str());

  std::string line = "{\"correct\":" +
                     std::string(failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ",";
    line += JsonString(metrics[i].first) + ":{\"value\":" +
            NumberText(metrics[i].second.first) +
            ",\"unit\":" + JsonString(metrics[i].second.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --work-dir DIR [--smoke]\n");
    return 2;
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::MakeSpec(options, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  mkdir(options.work_dir.c_str(), 0755);
  perfbench::Bench bench(options, std::move(spec));
  return bench.Run();
}
