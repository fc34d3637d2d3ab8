// Tests for the flag parser and the explanation report/CSV export.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"
#include "gef/report.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace gef {
namespace {

Flags ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  auto flags = Flags::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.ok());
  return std::move(flags).value();
}

TEST(FlagsTest, SpaceAndEqualsForms) {
  Flags flags = ParseArgs({"--model", "m.txt", "--k=32"});
  EXPECT_EQ(flags.GetString("model", ""), "m.txt");
  EXPECT_EQ(flags.GetInt("k", 0), 32);
}

TEST(FlagsTest, BareFlagIsBooleanTrue) {
  Flags flags = ParseArgs({"--verbose", "--model", "m.txt"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("model", ""), "m.txt");
}

TEST(FlagsTest, FallbacksForMissingFlags) {
  Flags flags = ParseArgs({});
  EXPECT_EQ(flags.GetInt("k", 7), 7);
  EXPECT_EQ(flags.GetString("model", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.5), 0.5);
  EXPECT_FALSE(flags.GetBool("verbose", false));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  Flags flags = ParseArgs({"input.csv", "--k", "3", "more"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "more");
}

TEST(FlagsTest, UnreadFlagsDetected) {
  Flags flags = ParseArgs({"--known", "1", "--typo", "2"});
  flags.GetInt("known", 0);
  auto unread = flags.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

TEST(FlagsTest, DoubleValues) {
  Flags flags = ParseArgs({"--lr", "0.05"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 1.0), 0.05);
}

TEST(FlagsTest, BadIntegerRecordsStatus) {
  Flags flags = ParseArgs({"--k", "abc"});
  EXPECT_TRUE(flags.status().ok());
  EXPECT_EQ(flags.GetInt("k", 7), 7);  // fallback, not abort
  EXPECT_FALSE(flags.status().ok());
  EXPECT_NE(flags.status().message().find("expects an integer"),
            std::string::npos);
  EXPECT_NE(flags.status().message().find("abc"), std::string::npos);
}

TEST(FlagsTest, BadDoubleRecordsStatus) {
  Flags flags = ParseArgs({"--lr", "fast", "--depth", "x"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.5), 0.5);
  flags.GetInt("depth", 3);
  // First error wins; later malformed values do not overwrite it.
  EXPECT_FALSE(flags.status().ok());
  EXPECT_NE(flags.status().message().find("--lr"), std::string::npos);
}

TEST(FlagsTest, BareDoubleDashRejected) {
  std::vector<const char*> args = {"tool", "--"};
  auto flags = Flags::Parse(2, args.data());
  EXPECT_FALSE(flags.ok());
}

class ReportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(55);
    Dataset data = MakeGPrimeDataset(2000, &rng);
    GbdtConfig fc;
    fc.num_trees = 50;
    fc.num_leaves = 8;
    forest_ = TrainGbdt(data, nullptr, fc).forest;
    GefConfig config;
    config.num_univariate = 3;
    config.num_bivariate = 1;
    config.num_samples = 2000;
    config.k = 16;
    explanation_ = ExplainForest(forest_, config);
    ASSERT_NE(explanation_, nullptr);
  }

  Forest forest_;
  std::unique_ptr<GefExplanation> explanation_;
};

TEST_F(ReportFixture, DescribeContainsKeySections) {
  std::string report = DescribeExplanation(*explanation_, forest_);
  EXPECT_NE(report.find("Surrogate fidelity"), std::string::npos);
  EXPECT_NE(report.find("Univariate components"), std::string::npos);
  EXPECT_NE(report.find("Bi-variate components"), std::string::npos);
  EXPECT_NE(report.find("s(x"), std::string::npos);
  EXPECT_NE(report.find("te("), std::string::npos);
  EXPECT_NE(report.find("lambda"), std::string::npos);
}

TEST_F(ReportFixture, CsvExportHasHeaderAndRows) {
  std::string path =
      (std::filesystem::temp_directory_path() / "gef_curves_test.csv")
          .string();
  ASSERT_TRUE(ExportCurvesCsv(*explanation_, forest_, path, 11).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "term,feature,x,x2,effect,lower,upper");

  int univariate_rows = 0, tensor_rows = 0, total = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++total;
    auto fields = Split(line, ',');
    ASSERT_EQ(fields.size(), 7u);
    if (fields[3].empty()) {
      ++univariate_rows;
    } else {
      ++tensor_rows;
    }
    double effect = 0.0, lower = 0.0, upper = 0.0;
    ASSERT_TRUE(ParseDouble(fields[4], &effect));
    ASSERT_TRUE(ParseDouble(fields[5], &lower));
    ASSERT_TRUE(ParseDouble(fields[6], &upper));
    EXPECT_LE(lower, effect);
    EXPECT_GE(upper, effect);
  }
  // 3 univariate terms x 11 points (or level counts), 1 tensor x 121.
  EXPECT_GE(univariate_rows, 3 * 2);
  EXPECT_EQ(tensor_rows, 121);
  EXPECT_EQ(total, univariate_rows + tensor_rows);
  std::remove(path.c_str());
}

TEST_F(ReportFixture, CsvEffectsMatchGamContributions) {
  std::string path =
      (std::filesystem::temp_directory_path() / "gef_curves_test2.csv")
          .string();
  ASSERT_TRUE(ExportCurvesCsv(*explanation_, forest_, path, 5).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  // First data row: first univariate term at its domain minimum.
  std::getline(in, line);
  auto fields = Split(line, ',');
  int feature = explanation_->selected_features[0];
  int term = explanation_->univariate_term_index[0];
  double x = 0.0, effect = 0.0;
  ASSERT_TRUE(ParseDouble(fields[2], &x));
  ASSERT_TRUE(ParseDouble(fields[4], &effect));
  std::vector<double> row(5, 0.0);
  for (size_t f = 0; f < 5; ++f) {
    const auto& domain = explanation_->domains[f];
    row[f] = domain[domain.size() / 2];
  }
  row[feature] = x;
  EXPECT_NEAR(effect, explanation_->surrogate->TermContribution(term, row),
              1e-9);
  std::remove(path.c_str());
}

TEST_F(ReportFixture, CsvExportToUnwritablePathFails) {
  EXPECT_FALSE(
      ExportCurvesCsv(*explanation_, forest_, "/nonexistent/x.csv").ok());
}

}  // namespace
}  // namespace gef
