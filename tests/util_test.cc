// Tests for util: Status/StatusOr, string helpers, timer, JSON, file I/O.

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace gef {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::IoError("cannot open foo");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(status.message(), "cannot open foo");
  EXPECT_EQ(status.ToString(), "IO_ERROR: cannot open foo");
}

TEST(StatusTest, AllFactoryFunctionsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

TEST(SplitTest, BasicSplit) {
  auto fields = Split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto fields = Split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitTest, NoDelimiterYieldsSingleField) {
  auto fields = Split("alone", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nvalue\r "), "value");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(1.25), "1.25");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.001), "0.001");
}

TEST(FormatDoubleTest, RespectsSignificantDigits) {
  EXPECT_EQ(FormatDouble(3.14159265, 3), "3.14");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("forest model", "forest"));
  EXPECT_FALSE(StartsWith("forest", "forest model"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble("  7 ", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ParseDoubleTest, RejectsMalformedInput) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(ParseIntTest, ParsesValidIntegers) {
  int v = 0;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
}

TEST(ParseIntTest, RejectsMalformedInput) {
  int v = 0;
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("1.5", &v));
  EXPECT_FALSE(ParseInt("x", &v));
}

TEST(TimerTest, MeasuresNonNegativeElapsedTime) {
  Timer timer;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(sink, 0.0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
}

TEST(TimerTest, ResetRestartsClock) {
  Timer timer;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(sink, 0.0);
  double before = timer.ElapsedSeconds();
  timer.Reset();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1.0);
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(GEF_CHECK(1 == 2), "GEF_CHECK failed");
}

TEST(CheckDeathTest, FailedCheckMsgIncludesMessage) {
  EXPECT_DEATH(GEF_CHECK_MSG(false, "context " << 42), "context 42");
}

TEST(CheckDeathTest, ComparisonMacros) {
  EXPECT_DEATH(GEF_CHECK_EQ(1, 2), "expected equality");
  EXPECT_DEATH(GEF_CHECK_LT(2, 1), "expected a < b");
}

TEST(CheckTest, PassingChecksAreSilent) {
  GEF_CHECK(true);
  GEF_CHECK_EQ(3, 3);
  GEF_CHECK_LE(1, 1);
  GEF_CHECK_GT(2, 1);
}

// ---------------------------------------------------------------------
// util/json
// ---------------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocument) {
  auto parsed = ParseJson(
      R"({"row": [1, -2.5, 3e2], "model": "census", "opts": {"deep": true},
          "null_member": null, "flag": false})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& json = *parsed;
  ASSERT_TRUE(json.is_object());
  const Json* row = json.Find("row");
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->is_array());
  ASSERT_EQ(row->array.size(), 3u);
  EXPECT_DOUBLE_EQ(row->array[1].number, -2.5);
  EXPECT_DOUBLE_EQ(row->array[2].number, 300.0);
  EXPECT_EQ(json.Find("model")->str, "census");
  EXPECT_TRUE(json.Find("opts")->Find("deep")->boolean);
  EXPECT_EQ(json.Find("null_member")->type, Json::Type::kNull);
  EXPECT_EQ(json.Find("missing"), nullptr);
}

TEST(JsonTest, ParsesStringEscapes) {
  auto parsed = ParseJson(R"({"s": "a\"b\\c\n\tA"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->str, "a\"b\\c\n\tA");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{not json").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1,}").ok());
  EXPECT_FALSE(ParseJson("[1, 2] trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"a\"}").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("01").ok());
  // Number spellings strtod would read but RFC 8259 forbids.
  for (const char* bad : {"-01.5", "1.", "1.e5", "-.5", ".5", "+1", "1e",
                          "1e+", "-", "0x10", "inf", "nan"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
  // Whitespace is space, tab, LF and CR only.
  EXPECT_TRUE(ParseJson(" \t\r\n[1,\n2]\r\n").ok());
  EXPECT_FALSE(ParseJson("[1,\v2]").ok());
  EXPECT_FALSE(ParseJson("\f1").ok());
}

TEST(JsonTest, NumberLengthReadsOneToken) {
  const auto length = [](const std::string& text) {
    return JsonNumberLength(text.data(), text.data() + text.size());
  };
  EXPECT_EQ(length("-0.25e+3,"), 8u);
  EXPECT_EQ(length("0]"), 1u);
  EXPECT_EQ(length("1E5"), 3u);
  EXPECT_EQ(length("01"), 0u);
  EXPECT_EQ(length("1.e5"), 0u);
  EXPECT_EQ(length(""), 0u);
  // ParseJson converts with strtod, so an underflow still reads as 0.
  auto tiny = ParseJson("1e-400");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->number, 0.0);
}

TEST(JsonTest, SurrogatePairsDecodeToUtf8) {
  // U+1F600 as Python's json.dumps writes it by default.
  auto pair = ParseJson(R"("\ud83d\ude00")");
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->str, "\xf0\x9f\x98\x80");
  auto bmp = ParseJson(R"("\u00e9\u20ac")");
  ASSERT_TRUE(bmp.ok());
  EXPECT_EQ(bmp->str, "\xc3\xa9\xe2\x82\xac");
  // A lone surrogate has no UTF-8 form.
  EXPECT_FALSE(ParseJson(R"("\ud83d")").ok());        // lone high
  EXPECT_FALSE(ParseJson(R"("\ude00")").ok());        // lone low
  EXPECT_FALSE(ParseJson(R"("\ud83dx")").ok());       // high, no escape
  EXPECT_FALSE(ParseJson(R"("\ud83d\u0041")").ok());  // high, non-low
  EXPECT_FALSE(ParseJson(R"("\ud83d\ud83d")").ok());  // high, high
}

TEST(JsonTest, DepthLimitBoundsRecursion) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep, 64).ok());
  EXPECT_TRUE(ParseJson("[[[[1]]]]", 8).ok());
}

TEST(JsonTest, NumberAndEscapeRendering) {
  EXPECT_EQ(JsonNumberText(1.5), "1.5");
  EXPECT_EQ(JsonNumberText(std::nan("")), "null");
  EXPECT_EQ(JsonNumberText(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(JsonEscapeString("a\"b\\\n"), "a\\\"b\\\\\\n");
  EXPECT_EQ(JsonNumberArray({1.0, 2.5}), "[1,2.5]");
  // Round numbers print in fixed form, not as "1.2e+02".
  EXPECT_EQ(JsonNumberText(120), "120");

  // Every finite double reads back bit for bit.
  auto round_trips = [](double x) {
    auto parsed = ParseJson(JsonNumberText(x));
    return parsed.ok() && parsed->is_number() &&
           std::bit_cast<uint64_t>(parsed->number) ==
               std::bit_cast<uint64_t>(x);
  };
  using Limits = std::numeric_limits<double>;
  for (double x : {0.0, -0.0, Limits::denorm_min(), -Limits::denorm_min(),
                   Limits::min(), Limits::max(), -Limits::max(), 0.1,
                   1.0 / 3.0}) {
    EXPECT_TRUE(round_trips(x)) << JsonNumberText(x);
  }
  Rng rng(20);
  int finite = 0;
  int misses = 0;
  for (int i = 0; i < (1 << 18); ++i) {
    const double x = std::bit_cast<double>(rng.Next());
    if (!std::isfinite(x)) continue;
    ++finite;
    if (!round_trips(x)) ++misses;
  }
  EXPECT_GT(finite, 1 << 17);
  EXPECT_EQ(misses, 0);

  // Every ASCII byte, and every UTF-8 sequence, survives escaping and
  // parsing back. (A lone byte >= 0x80 is not UTF-8, so no JSON string
  // carries it; RawStringBytesMustBeUtf8 covers those.)
  const auto survives = [](const std::string& text) {
    std::string literal = "\"";
    literal += JsonEscapeString(text);
    literal += '"';
    auto parsed = ParseJson(literal);
    return parsed.ok() && parsed->str == text;
  };
  for (int byte = 0; byte < 0x80; ++byte) {
    EXPECT_TRUE(survives({'<', static_cast<char>(byte), '>'}))
        << "byte " << byte;
  }
  for (const char* text : {"\xc2\x80", "\xc3\xa9", "\xe2\x82\xac",
                           "\xef\xbf\xbd", "\xf0\x9f\x98\x80",
                           "\xf4\x8f\xbf\xbf"}) {
    EXPECT_TRUE(survives(text)) << text;
  }
}

// Byte strings that are not UTF-8, one per way to fail RFC 3629 §4.
const char* const kMalformedUtf8[] = {
    "\x80",              // stray continuation byte
    "a\xbf" "b",         // stray continuation byte mid-string
    "\xff",              // never a UTF-8 byte
    "\xfe\x80",
    "\xc3",              // truncated 2-byte sequence
    "\xe2\x82",          // truncated 3-byte sequence
    "\xf0\x9f\x98",      // truncated 4-byte sequence
    "\xc3(",             // lead byte, then no continuation
    "\xc0\xaf",          // overlong '/'
    "\xc1\xbf",          // overlong
    "\xe0\x80\xaf",      // overlong 3-byte
    "\xf0\x80\x80\xaf",  // overlong 4-byte
    "\xed\xa0\x80",      // encoded surrogate U+D800
    "\xed\xbf\xbf",      // encoded surrogate U+DFFF
    "\xf4\x90\x80\x80",  // U+110000, above U+10FFFF
    "\xf5\x80\x80\x80",  // lead byte above F4
};

TEST(JsonTest, RawStringBytesMustBeUtf8) {
  // Raw (unescaped) é, € and 😀 read back byte for byte.
  for (const char* text : {"\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80",
                           "a\xc3\xa9" "b\xe2\x82\xac\xf0\x9f\x98\x80"}) {
    auto parsed = ParseJson(std::string("\"") + text + "\"");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->str, text);
  }
  for (const char* bytes : kMalformedUtf8) {
    auto parsed = ParseJson(std::string("\"") + bytes + "\"");
    EXPECT_FALSE(parsed.ok()) << "accepted malformed UTF-8";
    // A malformed key is refused the same way.
    EXPECT_FALSE(
        ParseJson(std::string("{\"") + bytes + "\": 1}").ok());
  }
  // The truncated sequence may not swallow the closing quote.
  EXPECT_FALSE(ParseJson("[\"\xe2\x82\"]").ok());
}

TEST(JsonTest, EscapeReplacesBytesThatAreNotUtf8) {
  // Each byte that does not start a well-formed sequence becomes one
  // \ufffd; a broken sequence's stray continuation bytes become their own.
  EXPECT_EQ(JsonEscapeString("c\xff" "x"), "c\\ufffdx");
  // Truncated, overlong and encoded-surrogate sequences.
  EXPECT_EQ(JsonEscapeString("\xe2\x82"), "\\ufffd\\ufffd");
  EXPECT_EQ(JsonEscapeString("\xc0\xaf"), "\\ufffd\\ufffd");
  EXPECT_EQ(JsonEscapeString("\xed\xa0\x80"), "\\ufffd\\ufffd\\ufffd");
  // Well-formed text, é and 😀 among ASCII, passes through byte for byte.
  for (const char* text : {"\xc3\xa9", "\xf0\x9f\x98\x80",
                           "d\xc3\xa9j\xc3\xa0 vu \xf0\x9f\x98\x80!"}) {
    EXPECT_EQ(JsonEscapeString(text), text);
  }
  // So every escaped string is JSON, and malformed input reads back with
  // U+FFFD in place of the bad bytes.
  for (const char* bytes : kMalformedUtf8) {
    std::string literal = "\"";
    literal += JsonEscapeString(bytes);
    literal += '"';
    auto parsed = ParseJson(literal);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_NE(parsed->str.find("\xef\xbf\xbd"), std::string::npos);
  }
}

TEST(JsonTest, FuzzedInputsNeverCrash) {
  Rng rng(991);
  const std::string seed_doc =
      R"({"row": [1.0, 2.0], "model": "m", "config": {"k": 16}})";
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string doc = seed_doc;
    int num_edits = 1 + static_cast<int>(rng.Uniform() * 4);
    for (int e = 0; e < num_edits; ++e) {
      size_t pos = static_cast<size_t>(rng.Uniform() * doc.size());
      doc[pos] = static_cast<char>(rng.Uniform() * 256);
    }
    auto parsed = ParseJson(doc);  // must return, never crash
    (void)parsed;
  }
}

// ---------------------------------------------------------------------
// util/file_io
// ---------------------------------------------------------------------

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gef_file_io_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(FileIoTest, EveryByteRoundTripsExactly) {
  std::string bytes;
  for (int round = 0; round < 3; ++round) {
    for (int byte = 0; byte < 256; ++byte) {
      bytes.push_back(static_cast<char>(byte));
    }
  }
  bytes += "\r\n\n";  // no newline translation either way
  ASSERT_TRUE(WriteFileAtomic(Path("bytes.bin"), bytes).ok());
  StatusOr<std::string> read = ReadFile(Path("bytes.bin"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), bytes);

  ASSERT_TRUE(WriteFileAtomic(Path("empty.txt"), "").ok());
  StatusOr<std::string> empty = ReadFile(Path("empty.txt"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(FileIoTest, OverwriteReplacesAndLeavesNoTempFile) {
  const std::string path = Path("model.txt");
  ASSERT_TRUE(WriteFileAtomic(path, std::string(5000, 'a')).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "short").ok());
  EXPECT_EQ(ReadFile(path).value(), "short");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator()),
            1);
}

TEST_F(FileIoTest, WriteIntoMissingDirectoryIsIoErrorAndCreatesNothing) {
  const std::string path = Path("missing/out.txt");
  Status status = WriteFileAtomic(path, "bytes");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.message();
  EXPECT_FALSE(std::filesystem::exists(Path("missing")));
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(FileIoTest, FailedRenameLeavesNoTempFileAndTargetIntact) {
  // rename(2) cannot replace a non-empty directory with a file.
  const std::string target = Path("occupied");
  std::filesystem::create_directories(target);
  ASSERT_TRUE(WriteFileAtomic(target + "/keep.txt", "kept").ok());

  Status status = WriteFileAtomic(target, "bytes");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("rename"), std::string::npos)
      << status.message();
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(target));
  EXPECT_EQ(ReadFile(target + "/keep.txt").value(), "kept");
}

TEST_F(FileIoTest, ReadMissingPathIsIoErrorNamingIt) {
  const std::string path = Path("nope/gam.txt");
  StatusOr<std::string> read = ReadFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find(path), std::string::npos)
      << read.status().message();
  // A directory opens but does not read.
  EXPECT_EQ(ReadFile(dir_.string()).status().code(), StatusCode::kIoError);
}

TEST_F(FileIoTest, AppendsConcatenate) {
  const std::string path = Path("trace.jsonl");
  ASSERT_TRUE(AppendFile(path, "{\"a\":1}\n").ok());
  ASSERT_TRUE(AppendFile(path, std::string("{\"b\":\"\0\"}\n", 10)).ok());
  EXPECT_EQ(ReadFile(path).value(),
            std::string("{\"a\":1}\n{\"b\":\"\0\"}\n", 18));
  EXPECT_EQ(AppendFile(Path("missing/trace.jsonl"), "x").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace gef
