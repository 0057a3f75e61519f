// Chaos scheduler tests (src/core/chaos.h): the ADPA_CHAOS spec grammar,
// the determinism contracts that make seed-replay work (same spec ->
// bitwise-identical schedule; a point's config depends only on (seed,
// name), never on the prefix filter or catalog growth), and — under the
// recovery preset — that ChaosConfigure actually arms the registry.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/chaos.h"
#include "src/core/failpoint.h"

namespace adpa {
namespace {

using failpoint::BuildChaosSchedule;
using failpoint::ChaosSchedule;
using failpoint::ChaosSpec;
using failpoint::ParseChaosSpec;

TEST(ChaosSpecTest, ParsesSeedIntensityAndPrefixes) {
  Result<ChaosSpec> spec = ParseChaosSpec("7:0.35");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->intensity, 0.35);
  EXPECT_TRUE(spec->prefixes.empty());

  spec = ParseChaosSpec("18446744073709551615:1:net.,checkpoint.");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->seed, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(spec->intensity, 1.0);
  EXPECT_EQ(spec->prefixes,
            (std::vector<std::string>{"net.", "checkpoint."}));

  // A full catalog name is a valid prefix of itself.
  EXPECT_TRUE(ParseChaosSpec("42:1:dataset.load").ok());
}

TEST(ChaosSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",              // empty
      "7",             // no intensity
      "7:",            // empty intensity
      ":0.5",          // empty seed
      "-1:0.5",        // negative seed
      "1e3:0.5",       // non-decimal seed
      "18446744073709551616:0.5",  // seed overflows uint64
      "7:0",           // intensity must be > 0
      "7:0.0",         //
      "7:1.5",         // intensity must be <= 1
      "7:2",           //
      "7:1e-3",        // no exponents
      "7:0.3.5",       // two dots
      "7:-0.5",        // no signs
      "7:0.5:",        // empty prefix
      "7:0.5:net.,",   // trailing empty prefix
      "7:0.5:NET.",    // uppercase outside [a-z0-9._]
      "7:0.5:bogus.",  // matches no catalog name (typo guard)
      "not-a-spec",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseChaosSpec(text).ok())
        << "accepted malformed chaos spec: " << text;
  }
}

TEST(ChaosScheduleTest, SameSpecBuildsIdenticalSchedules) {
  const ChaosSpec spec = ParseChaosSpec("1234:0.5").value();
  const ChaosSchedule first = BuildChaosSchedule(spec).value();
  const ChaosSchedule second = BuildChaosSchedule(spec).value();
  ASSERT_EQ(first.points.size(), second.points.size());
  for (size_t i = 0; i < first.points.size(); ++i) {
    EXPECT_EQ(first.points[i].name, second.points[i].name);
    EXPECT_EQ(first.points[i].spec, second.points[i].spec);
  }
  EXPECT_EQ(first.Describe(), second.Describe());
  EXPECT_GT(first.eligible, 0u);

  // The exact schedule of one spec pins the splitmix64 stream and the
  // FNV-1a name hash it is keyed on.
  const ChaosSchedule pinned =
      BuildChaosSchedule(ParseChaosSpec("13:0.5").value()).value();
  EXPECT_EQ(pinned.Describe(),
            "chaos: seed=13 intensity=0.5 armed 10/18 eligible points\n"
            "chaos: binary.write=error(chaos)@1in33\n"
            "chaos: checkpoint.save=error(chaos)@1in19\n"
            "chaos: atomic_file.write.partial=delay(5)@1in10\n"
            "chaos: atomic_file.before_rename=error(chaos)@1in9\n"
            "chaos: dataset.load=error(chaos)@1in25\n"
            "chaos: net.accept=error(chaos)@1in29\n"
            "chaos: net.accept.emfile=delay(6)@1in15\n"
            "chaos: net.read.short=error(chaos)@1in15\n"
            "chaos: net.write.short=error(chaos)@1in33\n"
            "chaos: net.reload.load=error(chaos)@1in27\n");
}

TEST(ChaosScheduleTest, IntensityOneArmsEveryEligiblePoint) {
  const ChaosSchedule schedule =
      BuildChaosSchedule(ParseChaosSpec("9:1").value()).value();
  EXPECT_EQ(schedule.points.size(), failpoint::Catalog().size());
  EXPECT_EQ(schedule.eligible, failpoint::Catalog().size());
  for (const auto& point : schedule.points) {
    // Every armed spec is feedable to the standard failpoint grammar:
    // action, then a @1inN trigger with the documented floor of 2.
    EXPECT_NE(point.spec.find("@1in"), std::string::npos) << point.spec;
    const std::string n = point.spec.substr(point.spec.find("@1in") + 4);
    EXPECT_GE(std::stoull(n), 2u) << point.name << "=" << point.spec;
  }
}

TEST(ChaosScheduleTest, PrefixFilterRestrictsEligibilityOnly) {
  const ChaosSchedule full =
      BuildChaosSchedule(ParseChaosSpec("77:0.8").value()).value();
  const ChaosSchedule net_only =
      BuildChaosSchedule(ParseChaosSpec("77:0.8:net.").value()).value();

  EXPECT_LT(net_only.eligible, full.eligible);
  std::map<std::string, std::string> full_specs;
  for (const auto& point : full.points) {
    full_specs[point.name] = point.spec;
  }
  ASSERT_FALSE(net_only.points.empty());
  for (const auto& point : net_only.points) {
    EXPECT_EQ(point.name.rfind("net.", 0), 0u) << point.name;
    // The replay contract: narrowing the filter never changes the config
    // of a point that stays eligible — its stream is keyed by (seed,
    // name) alone.
    ASSERT_TRUE(full_specs.count(point.name)) << point.name;
    EXPECT_EQ(full_specs[point.name], point.spec) << point.name;
  }
}

TEST(ChaosScheduleTest, NeverArmsCrashAndShortPointsGetError) {
  // Survey many seeds: chaos certifies fault-tolerance, so `crash` must
  // never appear, and `.short` points (interpreted as one-byte IO caps)
  // must always carry the error action.
  for (uint64_t seed = 0; seed < 64; ++seed) {
    const ChaosSpec spec =
        ParseChaosSpec(std::to_string(seed) + ":1").value();
    const ChaosSchedule schedule = BuildChaosSchedule(spec).value();
    for (const auto& point : schedule.points) {
      EXPECT_EQ(point.spec.find("crash"), std::string::npos)
          << "seed " << seed << " armed " << point.name << "="
          << point.spec;
      if (point.name.size() >= 6 &&
          point.name.compare(point.name.size() - 6, 6, ".short") == 0) {
        EXPECT_EQ(point.spec.rfind("error(chaos)", 0), 0u)
            << "seed " << seed << " armed " << point.name << "="
            << point.spec;
      }
    }
  }
}

TEST(ChaosScheduleTest, DescribeIsGreppableAndComplete) {
  const ChaosSchedule schedule =
      BuildChaosSchedule(ParseChaosSpec("3:0.35:net.").value()).value();
  const std::string text = schedule.Describe();
  EXPECT_EQ(text.rfind("chaos: seed=3 intensity=0.35 armed ", 0), 0u)
      << text;
  for (const auto& point : schedule.points) {
    EXPECT_NE(text.find("chaos: " + point.name + "=" + point.spec + "\n"),
              std::string::npos)
        << text;
  }
}

class ChaosConfigureTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::CompiledIn()) {
      GTEST_SKIP() << "failpoints compiled out; build with "
                      "-DADPA_FAILPOINTS=ON (the `recovery` preset)";
    }
    failpoint::ClearAll();
  }
  void TearDown() override {
    if (failpoint::CompiledIn()) failpoint::ClearAll();
  }
};

TEST_F(ChaosConfigureTest, ArmsTheRegistryAccordingToTheSchedule) {
  // dataset.load at intensity 1 is always armed; its trigger is some
  // @1inN with N in [2, 5], so within 5 hits it must fire at least once.
  const ChaosSpec spec = ParseChaosSpec("21:1:dataset.load").value();
  const Result<ChaosSchedule> schedule = failpoint::ChaosConfigure(spec);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_EQ(schedule->points.size(), 1u);
  EXPECT_EQ(schedule->points[0].name, "dataset.load");

  bool fired = false;
  for (int i = 0; i < 5; ++i) {
    if (!failpoint::Hit("dataset.load").ok()) fired = true;
  }
  EXPECT_TRUE(fired) << "armed " << schedule->points[0].spec
                     << " never fired within its trigger period";
  EXPECT_EQ(failpoint::HitCount("dataset.load"), 5u);
}

TEST_F(ChaosConfigureTest, UnarmedPointsStayDormant) {
  const ChaosSpec spec = ParseChaosSpec("21:1:dataset.load").value();
  ASSERT_TRUE(failpoint::ChaosConfigure(spec).ok());
  // Points outside the filter never armed: they pass and never count a
  // configured action (HitCount still ticks, actions do not).
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(failpoint::Hit("checkpoint.save").ok());
  }
}

}  // namespace
}  // namespace adpa
