// Tests for src/core: Status/Result, Rng, string utilities, and flags.

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "src/core/flags.h"
#include "src/core/random.h"
#include "src/core/status.h"
#include "src/core/strings.h"

namespace adpa {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.NextU64() != b.NextU64();
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(5);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 1000 draws
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(99);
  const int kDraws = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) counts[rng.Categorical(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  const auto sample = rng.SampleWithoutReplacement(100, 40);
  EXPECT_EQ(sample.size(), 40u);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = values;
  rng.Shuffle(&values);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringsTest, FormatMeanStd) {
  EXPECT_EQ(FormatMeanStd(84.52, 0.64, 2), "84.52±0.64");
  EXPECT_EQ(FormatMeanStd(84.5, 0.6), "84.5±0.6");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcd", 2), "abcd");  // never truncates
}

TEST(StringsTest, PaddingCountsUtf8CodePoints) {
  // "1.0±0.1" has 7 display columns but 8 bytes.
  EXPECT_EQ(PadLeft("1.0±0.1", 8).size(), 9u);  // one space + 8 bytes
}

TEST(StringsTest, TablePrinterAlignsColumns) {
  TablePrinter table({"Model", "Acc"});
  table.AddRow({"GCN", "84.2"});
  table.AddRow({"ADPA", "86.0"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| Model | "), std::string::npos);
  EXPECT_NE(rendered.find("| GCN   |"), std::string::npos);
  EXPECT_NE(rendered.find("| ADPA  |"), std::string::npos);
}

// ----------------------------------------------------------------- Flags --

TEST(FlagsTest, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--epochs=50", "--lr=0.01", "--name=test"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("epochs", 0), 50);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 0.01);
  EXPECT_EQ(flags.GetString("name", ""), "test");
}

TEST(FlagsTest, ParsesSpaceSeparatedValue) {
  const char* argv[] = {"prog", "--epochs", "50"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("epochs", 0), 50);
}

TEST(FlagsTest, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagsTest, DefaultsWhenMissing) {
  Flags flags;
  EXPECT_EQ(flags.GetInt("absent", 7), 7);
  EXPECT_EQ(flags.GetString("absent", "x"), "x");
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_FALSE(flags.Has("absent"));
}

TEST(FlagsTest, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  Flags flags;
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, MalformedNumberFallsBackToDefault) {
  // An empty value is malformed too: strtoll/strtod consume nothing and
  // would otherwise read it as 0.
  const char* argv[] = {"prog", "--epochs=abc", "--threads=", "--lr="};
  Flags flags;
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("epochs", 12), 12);
  EXPECT_EQ(flags.GetInt("threads", 3), 3);
  EXPECT_EQ(flags.GetDouble("lr", 0.01), 0.01);
}

TEST(ParseDecimalTest, AcceptsDigitsWithinTheRangeOnly) {
  // Parsing only: the CLI feeds a rejected value to its usage path, never
  // to a model, where a wrong bound would size a propagation or a layer.
  constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  struct Case {
    const char* text;
    int64_t lo;
    int64_t hi;
    std::optional<int64_t> expected;
  };
  const Case cases[] = {
      {"0", 0, kInt32Max, 0},
      {"200", 0, kInt32Max, 200},
      {"007", 0, kInt32Max, 7},
      {"2147483647", 0, kInt32Max, kInt32Max},
      {"2147483648", 0, kInt32Max, std::nullopt},
      {"4294967299", 0, kInt32Max, std::nullopt},  // 2^32 + 3: an int cast reads 3
      {"-1", 0, kInt32Max, std::nullopt},
      {"+1", 0, kInt32Max, std::nullopt},
      {"", 0, kInt32Max, std::nullopt},
      {" 1", 0, kInt32Max, std::nullopt},
      {"1 ", 0, kInt32Max, std::nullopt},
      {"2.5", 0, kInt32Max, std::nullopt},
      {"1e3", 0, kInt32Max, std::nullopt},
      {"abc", 0, kInt32Max, std::nullopt},
      {"1", 1, 5, 1},  // --order
      {"5", 1, 5, 5},
      {"0", 1, 5, std::nullopt},
      {"6", 1, 5, std::nullopt},
      {"7", 1, 5, std::nullopt},  // one digit past a one-digit bound
      {"9223372036854775807", 0, kInt64Max, kInt64Max},
      {"9223372036854775808", 0, kInt64Max, std::nullopt},  // past int64
      {"99999999999999999999", 0, kInt64Max, std::nullopt},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ParseDecimal(c.text, c.lo, c.hi), c.expected)
        << '"' << c.text << "\" in " << c.lo << ".." << c.hi;
  }
}

TEST(ParseRealTest, AcceptsFiniteDecimalsOnly) {
  // Parsing only: the caller bounds the value (adpa_cli: 0 <= dropout < 1,
  // lr > 0) and takes its usage path on nullopt.
  struct Case {
    const char* text;
    std::optional<double> expected;
  };
  const Case cases[] = {
      {"0", 0.0},
      {"0.5", 0.5},
      {"-0.5", -0.5},
      {".25", 0.25},
      {"1e-3", 1e-3},
      {"2.5E2", 250.0},
      {"1e308", 1e308},
      {"1e309", std::nullopt},  // past the double range
      {"nan", std::nullopt},
      {"NaN", std::nullopt},
      {"inf", std::nullopt},
      {"-inf", std::nullopt},
      {"infinity", std::nullopt},
      {"", std::nullopt},
      {"+1", std::nullopt},
      {" 1", std::nullopt},
      {"1 ", std::nullopt},
      {"0.5x", std::nullopt},
      {"0x10", std::nullopt},
      {"1e", std::nullopt},
      {"-", std::nullopt},
      {".", std::nullopt},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ParseReal(c.text), c.expected) << '"' << c.text << '"';
  }
}

}  // namespace
}  // namespace adpa
