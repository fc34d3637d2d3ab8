// Tests for the observability layer (src/obs): span/counter/gauge/metric
// aggregation, JSONL emission, determinism of aggregates across thread
// counts (ISSUE acceptance: `GEF_NUM_THREADS=1` and `=4` flush identical
// span counts and counter totals), and the disabled-path cost bound.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "explain/pdp.h"
#include "explain/treeshap.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"
#include "obs/obs.h"
#include "obs/rss.h"
#include "stats/rng.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace gef {
namespace {

// Every test must leave tracing off so unrelated test binaries/tests in
// this process never observe a stale enabled state.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Disable();
    SetNumThreads(0);
  }
};

TEST_F(ObsTest, DisabledFlushReturnsEmptyAggregates) {
  obs::Disable();
  EXPECT_FALSE(obs::Enabled());
  {
    GEF_OBS_SPAN("obs_test.ignored");
    GEF_OBS_COUNTER_ADD("obs_test.ignored_counter", 1.0);
  }
  obs::Aggregates agg = obs::Flush();
  EXPECT_TRUE(agg.spans.empty());
  EXPECT_TRUE(agg.counters.empty());
  EXPECT_TRUE(agg.gauges.empty());
  EXPECT_TRUE(agg.metric_points.empty());
}

TEST_F(ObsTest, AggregatesSpansCountersGaugesMetrics) {
  obs::Enable("");
  ASSERT_TRUE(obs::Enabled());
  for (int i = 0; i < 3; ++i) {
    GEF_OBS_SPAN("obs_test.outer");
    GEF_OBS_SPAN("obs_test.inner");
    GEF_OBS_COUNTER_ADD("obs_test.counter", 2.5);
  }
  GEF_OBS_GAUGE_SET("obs_test.gauge", 1.0);
  GEF_OBS_GAUGE_SET("obs_test.gauge", 4.0);  // last write wins
  GEF_OBS_METRIC("obs_test.series", 0, 10.0);
  GEF_OBS_METRIC("obs_test.series", 1, 20.0);

  obs::Aggregates agg = obs::Flush();
  ASSERT_EQ(agg.spans.count("obs_test.outer"), 1u);
  EXPECT_EQ(agg.spans.at("obs_test.outer").count, 3u);
  EXPECT_EQ(agg.spans.at("obs_test.inner").count, 3u);
  EXPECT_GE(agg.spans.at("obs_test.outer").total_ns,
            agg.spans.at("obs_test.inner").total_ns);
  EXPECT_DOUBLE_EQ(agg.Counter("obs_test.counter"), 7.5);
  EXPECT_DOUBLE_EQ(agg.gauges.at("obs_test.gauge"), 4.0);
  EXPECT_EQ(agg.metric_points.at("obs_test.series"), 2u);
  EXPECT_GT(agg.peak_rss_bytes, 0u);

  // Flush drained the buffers: a second flush is empty.
  obs::Aggregates again = obs::Flush();
  EXPECT_TRUE(again.spans.empty());
  EXPECT_TRUE(again.counters.empty());
}

TEST_F(ObsTest, MissingNamesReturnZero) {
  obs::Enable("");
  GEF_OBS_COUNTER_ADD("obs_test.present", 1.0);
  obs::Aggregates agg = obs::Flush();
  EXPECT_DOUBLE_EQ(agg.SpanSeconds("obs_test.no_such_span"), 0.0);
  EXPECT_DOUBLE_EQ(agg.Counter("obs_test.no_such_counter"), 0.0);
}

TEST_F(ObsTest, CountersSumAcrossPoolThreads) {
  obs::Enable("");
  SetNumThreads(4);
  ParallelForChunked(0, 1000, 10,
                     [&](size_t chunk_begin, size_t chunk_end) {
                       GEF_OBS_SPAN("obs_test.chunk");
                       GEF_OBS_COUNTER_ADD(
                           "obs_test.rows",
                           static_cast<double>(chunk_end - chunk_begin));
                     });
  obs::Aggregates agg = obs::Flush();
  EXPECT_DOUBLE_EQ(agg.Counter("obs_test.rows"), 1000.0);
  EXPECT_EQ(agg.spans.at("obs_test.chunk").count, 100u);
}

TEST_F(ObsTest, JsonlEmissionParsesAndNests) {
  std::string path =
      ::testing::TempDir() + "/obs_test_trace.jsonl";
  std::remove(path.c_str());
  obs::Enable(path);
  EXPECT_EQ(obs::TracePath(), path);
  {
    GEF_OBS_SPAN("obs_test.depth0");
    GEF_OBS_SPAN("obs_test.depth1");
    GEF_OBS_COUNTER_ADD("obs_test.jsonl_counter", 3.0);
  }
  {
    // What JSON cannot carry raw: a newline inside a name, and
    // non-finite values (written as null).
    GEF_OBS_SPAN("obs_test.two\nlines");
    GEF_OBS_GAUGE_SET("obs_test.nan_gauge", std::nan(""));
    GEF_OBS_METRIC("obs_test.inf_metric", 1,
                   std::numeric_limits<double>::infinity());
  }
  obs::Flush();

  // Every line must be one JSON object; keep the last one per name.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  bool saw_flush = false;
  std::map<std::string, Json> by_name;
  while (std::getline(in, line)) {
    ++lines;
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << line;
    ASSERT_TRUE(parsed->is_object()) << line;
    const Json* type = parsed->Find("type");
    ASSERT_TRUE(type != nullptr && type->is_string()) << line;
    if (type->str == "flush") {
      saw_flush = true;
      const Json* rss = parsed->Find("peak_rss_bytes");
      EXPECT_TRUE(rss != nullptr && rss->is_number()) << line;
      continue;
    }
    const Json* name = parsed->Find("name");
    ASSERT_TRUE(name != nullptr && name->is_string()) << line;
    by_name[name->str] = *parsed;
  }
  // flush + three spans + counter + gauge + metric point.
  EXPECT_EQ(lines, 7);
  EXPECT_TRUE(saw_flush);
  auto member = [&by_name](const std::string& name,
                           const std::string& key) -> const Json* {
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second.Find(key);
  };
  auto number_at = [&member](const std::string& name,
                             const std::string& key) {
    const Json* value = member(name, key);
    return value != nullptr && value->is_number() ? value->number : -1.0;
  };
  auto is_null = [&member](const std::string& name,
                           const std::string& key) {
    const Json* value = member(name, key);
    return value != nullptr && value->type == Json::Type::kNull;
  };
  EXPECT_EQ(number_at("obs_test.depth0", "depth"), 0.0);
  EXPECT_EQ(number_at("obs_test.depth1", "depth"), 1.0);
  EXPECT_EQ(number_at("obs_test.jsonl_counter", "delta"), 3.0);
  EXPECT_EQ(number_at("obs_test.two\nlines", "depth"), 0.0);
  EXPECT_TRUE(is_null("obs_test.nan_gauge", "value"));
  EXPECT_EQ(number_at("obs_test.inf_metric", "step"), 1.0);
  EXPECT_TRUE(is_null("obs_test.inf_metric", "value"));
  std::remove(path.c_str());
}

TEST_F(ObsTest, RssSamplerReportsPlausibleValues) {
  // On Linux both values come from /proc/self/status; peak >= current.
  uint64_t current = obs::CurrentRssBytes();
  uint64_t peak = obs::PeakRssBytes();
  if (current == 0) GTEST_SKIP() << "RSS sampling unsupported here";
  EXPECT_GT(current, 1u << 20);  // a test binary uses well over 1 MiB
  EXPECT_GE(peak, current);
}

// Runs the full GEF pipeline on a small fixed-seed problem, then one
// TreeSHAP and one 1-D PDP baseline call, and returns the flushed
// aggregates.
obs::Aggregates RunPipelineAndFlush() {
  obs::Flush();  // drop anything earlier tests buffered
  Rng rng(321);
  Dataset data = MakeGDoublePrimeDataset(600, {{0, 1}}, &rng);
  GbdtConfig forest_config;
  forest_config.num_trees = 25;
  forest_config.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, forest_config).forest;
  GefConfig config;
  config.num_univariate = 4;
  config.num_bivariate = 1;
  config.num_samples = 2500;
  config.k = 32;
  config.seed = 321;
  auto explanation = ExplainForest(forest, config);
  EXPECT_NE(explanation, nullptr);
  std::vector<double> row;
  data.GetRowInto(0, &row);
  TreeShapExplainer(forest).Explain(row);
  PartialDependence1d(forest, data, 0, FeatureGrid(data, 0, 15));
  return obs::Flush();
}

TEST_F(ObsTest, AggregatesInvariantAcrossThreadCounts) {
  obs::Enable("");
  SetNumThreads(1);
  obs::Aggregates serial = RunPipelineAndFlush();
  SetNumThreads(4);
  obs::Aggregates parallel = RunPipelineAndFlush();

  // Span *counts* and counter totals depend only on the instrumented
  // call graph; the fixed parallel chunk grid makes them thread-count
  // invariant. (Durations of course differ.)
  ASSERT_FALSE(serial.spans.empty());
  ASSERT_EQ(serial.spans.size(), parallel.spans.size());
  for (const auto& [name, stats] : serial.spans) {
    ASSERT_EQ(parallel.spans.count(name), 1u) << name;
    EXPECT_EQ(parallel.spans.at(name).count, stats.count) << name;
  }
  ASSERT_FALSE(serial.counters.empty());
  ASSERT_EQ(serial.counters.size(), parallel.counters.size());
  for (const auto& [name, total] : serial.counters) {
    ASSERT_EQ(parallel.counters.count(name), 1u) << name;
    EXPECT_DOUBLE_EQ(parallel.counters.at(name), total) << name;
  }
  EXPECT_EQ(serial.gauges.size(), parallel.gauges.size());
  EXPECT_EQ(serial.metric_points, parallel.metric_points);

  // The pipeline hit the expected stages.
  EXPECT_EQ(serial.spans.at("forest.gbdt_train").count, 1u);
  EXPECT_EQ(serial.spans.at("forest.grow_tree").count, 25u);
  EXPECT_EQ(serial.spans.at("gef.feature_selection").count, 1u);
  EXPECT_EQ(serial.spans.at("gef.sampling_domains").count, 1u);
  EXPECT_EQ(serial.spans.at("gef.dstar_draw").count, 1u);
  EXPECT_EQ(serial.spans.at("gef.dstar_label").count, 1u);
  EXPECT_EQ(serial.spans.at("gef.interaction_selection").count, 1u);
  EXPECT_EQ(serial.spans.at("gam.fit").count, 1u);
  EXPECT_EQ(serial.spans.at("explain.treeshap").count, 1u);
  EXPECT_EQ(serial.spans.at("explain.pdp_1d").count, 1u);
  EXPECT_DOUBLE_EQ(serial.Counter("gef.dstar_rows_labeled"), 2500.0);
  EXPECT_DOUBLE_EQ(serial.Counter("grower.splits"), 25.0 * 7.0);
}

TEST_F(ObsTest, DisabledMacrosAreCheap) {
  obs::Disable();
  ASSERT_FALSE(obs::Enabled());
  // 2M disabled macro invocations: each is one relaxed atomic load plus
  // a predicted branch, so even sanitizer builds finish far inside the
  // bound. Guards the "<1% overhead with GEF_TRACE unset" acceptance
  // criterion without a flaky relative comparison.
  constexpr int kIters = 2000000;
  volatile double sink = 0.0;
  Timer timer;
  for (int i = 0; i < kIters; ++i) {
    GEF_OBS_SPAN("obs_test.disabled_span");
    GEF_OBS_COUNTER_ADD("obs_test.disabled_counter", 1.0);
    sink = sink + 1.0;
  }
  double elapsed = timer.ElapsedSeconds();
  EXPECT_EQ(sink, static_cast<double>(kIters));
  // ~4 ns/iter in Release; allow 500 ns/iter for sanitized Debug runs.
  EXPECT_LT(elapsed, 1.0) << "disabled obs path too slow: " << elapsed
                          << " s for " << kIters << " iterations";
  obs::Aggregates agg = obs::Flush();
  EXPECT_TRUE(agg.spans.empty());
}

}  // namespace
}  // namespace gef
