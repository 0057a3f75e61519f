// Tests for src/core: Status/Result, Rng, string utilities, and flags.

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

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

/// Flags parsed from `args`, each one argv entry after the program name.
Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (std::string& arg : args) argv.push_back(arg.data());
  Flags flags;
  EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  return flags;
}

bool Positive(double v) { return v > 0.0; }

TEST(FlagsTest, ParsesKeyEqualsValue) {
  const Flags flags = ParseArgs({"--epochs=50", "--lr=0.01", "--name=test"});
  EXPECT_EQ(CountFlag(flags, "epochs", 0, 0, 100), 50);
  EXPECT_EQ(RealFlag(flags, "lr", 0.0, Positive, "lr > 0"), 0.01);
  EXPECT_EQ(flags.GetString("name", ""), "test");
}

TEST(FlagsTest, ParsesSpaceSeparatedValue) {
  const Flags flags = ParseArgs({"--epochs", "50"});
  EXPECT_EQ(CountFlag(flags, "epochs", 0, 0, 100), 50);
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags flags = ParseArgs({"--verbose"});
  EXPECT_EQ(SwitchFlag(flags, "verbose"), true);
}

TEST(FlagsTest, DefaultsWhenMissing) {
  const Flags flags;
  EXPECT_EQ(CountFlag(flags, "absent", 7, 0, 5), 7);  // not checked
  EXPECT_EQ(RealFlag(flags, "absent", -1.0, Positive, "> 0"), -1.0);
  EXPECT_EQ(flags.GetString("absent", "x"), "x");
  EXPECT_EQ(SwitchFlag(flags, "absent"), false);
  EXPECT_FALSE(flags.Has("absent"));
}

TEST(FlagsTest, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  Flags flags;
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, MalformedNumberIsRejected) {
  // An empty value is malformed too, not a zero and not the default.
  const Flags flags = ParseArgs({"--epochs=abc", "--threads=", "--lr="});
  EXPECT_EQ(CountFlag(flags, "epochs", 12, 0, 100), std::nullopt);
  EXPECT_EQ(CountFlag(flags, "threads", 3, 0, 100), std::nullopt);
  EXPECT_EQ(RealFlag(flags, "lr", 0.01, Positive, "lr > 0"), std::nullopt);
}

TEST(FlagsTest, UnreadListsTheFlagsNoReaderAskedFor) {
  Flags flags = ParseArgs({"--epochs=5", "--epoch=1", "--undirect",
                           "--lr=nan", "--out=f"});
  using Names = std::vector<std::string>;
  EXPECT_EQ(flags.Unread(),
            (Names{"epoch", "epochs", "lr", "out", "undirect"}));
  EXPECT_EQ(CountFlag(flags, "epochs", 0, 0, 10), 5);
  EXPECT_EQ(SwitchFlag(flags, "undirect"), true);
  EXPECT_FALSE(flags.Has("absent"));
  EXPECT_EQ(flags.Unread(), (Names{"epoch", "lr", "out"}));
  EXPECT_FALSE(AllFlagsRead(flags));
  // A value its reader refuses is read: its own error line reports it.
  EXPECT_EQ(RealFlag(flags, "lr", 0.01, Positive, "lr > 0"), std::nullopt);
  EXPECT_EQ(flags.GetString("out", ""), "f");
  EXPECT_TRUE(flags.Has("epoch"));
  EXPECT_EQ(flags.Unread(), Names{});
  EXPECT_TRUE(AllFlagsRead(flags));
}

TEST(CountFlagTest, AcceptsADecimalInTheRangeOnly) {
  struct Case {
    const char* arg;  // nullptr: the flag is absent
    std::optional<int64_t> expected;
  };
  const Case cases[] = {
      {nullptr, 7},  // the fallback, even outside 1..100
      {"--n=1", 1},
      {"--n=100", 100},
      {"--n=007", 7},
      {"--n=0", std::nullopt},
      {"--n=101", std::nullopt},
      {"--n=-1", std::nullopt},
      {"--n=+5", std::nullopt},
      {"--n=2.5", std::nullopt},
      {"--n=1e2", std::nullopt},
      {"--n=nan", std::nullopt},
      {"--n=5x", std::nullopt},
      {"--n=5 ", std::nullopt},
      {"--n= 5", std::nullopt},
      {"--n=", std::nullopt},
      {"--n", std::nullopt},  // bare: "true"
      {"--n=18446744073709551621", std::nullopt},  // 2^64 + 5
  };
  for (const Case& c : cases) {
    const Flags flags =
        c.arg == nullptr ? Flags() : ParseArgs({std::string(c.arg)});
    EXPECT_EQ(CountFlag(flags, "n", 7, 1, 100), c.expected)
        << (c.arg == nullptr ? "absent" : c.arg);
  }
}

TEST(RealFlagTest, AcceptsAFiniteRealInTheRangeOnly) {
  struct Case {
    const char* arg;  // nullptr: the flag is absent
    std::optional<double> expected;
  };
  const Case cases[] = {
      {nullptr, -1.0},  // the fallback, even where accept refuses it
      {"--r=0.5", 0.5},
      {"--r=1e-3", 1e-3},
      {"--r=2.5E2", 250.0},
      {"--r=0", std::nullopt},
      {"--r=-0.5", std::nullopt},
      {"--r=+1", std::nullopt},
      {"--r=nan", std::nullopt},
      {"--r=inf", std::nullopt},
      {"--r=1e309", std::nullopt},  // past the double range
      {"--r=1x", std::nullopt},
      {"--r=1 ", std::nullopt},
      {"--r=", std::nullopt},
      {"--r", std::nullopt},  // bare: "true"
  };
  for (const Case& c : cases) {
    const Flags flags =
        c.arg == nullptr ? Flags() : ParseArgs({std::string(c.arg)});
    EXPECT_EQ(RealFlag(flags, "r", -1.0, Positive, "r > 0"), c.expected)
        << (c.arg == nullptr ? "absent" : c.arg);
  }
  // A float flag is checked on the float it stores.
  const auto below_one = [](float p) { return p >= 0.0f && p < 1.0f; };
  const auto positive = [](float v) { return v > 0.0f; };
  EXPECT_EQ(RealFlag(ParseArgs({"--p=0.9999999999"}), "p", 0.5f, below_one,
                     "0 <= p < 1"),
            std::nullopt);  // 1.0f
  EXPECT_EQ(RealFlag(ParseArgs({"--p=1e-50"}), "p", 0.5f, positive, "p > 0"),
            std::nullopt);  // 0.0f
  EXPECT_EQ(RealFlag(ParseArgs({"--p=1e39"}), "p", 0.5f, positive, "p > 0"),
            std::nullopt);  // past the float range
  EXPECT_EQ(RealFlag(ParseArgs({"--p=0.25"}), "p", 0.5f, below_one,
                     "0 <= p < 1"),
            0.25f);
}

TEST(SwitchFlagTest, AcceptsSixSpellingsAndABareFlagOnly) {
  struct Case {
    std::vector<std::string> args;
    std::optional<bool> expected;
  };
  const Case cases[] = {
      {{}, false},
      {{"--s"}, true},
      {{"--s=true"}, true},
      {{"--s=1"}, true},
      {{"--s=yes"}, true},
      {{"--s", "yes"}, true},
      {{"--s=false"}, false},
      {{"--s=0"}, false},
      {{"--s=no"}, false},
      {{"--s=ture"}, std::nullopt},
      {{"--s=maybe"}, std::nullopt},
      {{"--s=TRUE"}, std::nullopt},
      {{"--s=2"}, std::nullopt},
      {{"--s="}, std::nullopt},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(SwitchFlag(ParseArgs(c.args), "s"), c.expected)
        << (c.args.empty() ? "absent" : c.args.front());
  }
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
