// Fault-injection framework tests (src/core/failpoint.h): the catalog, the
// spec grammar, deterministic @N / @1inN triggers, and error injection
// through the BinaryWriter/BinaryReader seams. Action tests are skipped
// when the build compiled failpoints out (plain Release); the compiled-out
// contract — Configure refuses loudly — is tested either way.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/failpoint.h"
#include "src/data/io.h"
#include "src/io/binary.h"
#include "src/io/checkpoint.h"

namespace adpa {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::CompiledIn()) {
      GTEST_SKIP() << "failpoints compiled out; build with "
                      "-DADPA_FAILPOINTS=ON (the `recovery` preset)";
    }
    failpoint::ClearAll();
  }
  void TearDown() override { failpoint::ClearAll(); }
};

TEST(FailpointCatalogTest, CatalogIsAvailableInEveryBuild) {
  const auto catalog = failpoint::Catalog();
  ASSERT_FALSE(catalog.empty());
  bool has_checkpoint_save = false;
  for (const auto& [name, seam] : catalog) {
    EXPECT_FALSE(name.empty());
    EXPECT_FALSE(seam.empty()) << name << " has no seam description";
    if (name == "checkpoint.save") has_checkpoint_save = true;
  }
  EXPECT_TRUE(has_checkpoint_save);
}

TEST(FailpointCompiledOutTest, ConfigureRefusesLoudlyWhenCompiledOut) {
  if (failpoint::CompiledIn()) {
    GTEST_SKIP() << "this build has failpoints compiled in";
  }
  const Status status = failpoint::Configure("checkpoint.save", "error");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("compiled out"), std::string::npos);
}

TEST_F(FailpointTest, EveryCatalogNameIsConfigurable) {
  for (const auto& [name, seam] : failpoint::Catalog()) {
    EXPECT_TRUE(failpoint::Configure(name, "error").ok())
        << name << " (" << seam << ") rejected a plain error spec";
  }
}

TEST_F(FailpointTest, UnknownNamesAndBadSpecsAreRejected) {
  EXPECT_FALSE(failpoint::Configure("no.such.point", "error").ok());
  const char* bad_specs[] = {
      "",        "explode",     "error@",     "error@0",  "error@1in0",
      "error@x", "delay",       "delay()",    "delay(x)", "delay(-1)",
      "crash(x)", "error@1in",  "error@-3",
  };
  for (const char* spec : bad_specs) {
    EXPECT_FALSE(failpoint::Configure("checkpoint.save", spec).ok())
        << "accepted bad spec: " << spec;
  }
}

TEST_F(FailpointTest, ErrorActionInjectsStatusAndCountsHits) {
  ASSERT_TRUE(failpoint::Configure("checkpoint.save", "error(boom)").ok());
  const Status first = failpoint::Hit("checkpoint.save");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_NE(first.message().find("checkpoint.save"), std::string::npos);
  EXPECT_NE(first.message().find("boom"), std::string::npos);
  EXPECT_FALSE(failpoint::Hit("checkpoint.save").ok());
  EXPECT_EQ(failpoint::HitCount("checkpoint.save"), 2u);
  // A dormant point neither fails nor counts.
  EXPECT_TRUE(failpoint::Hit("checkpoint.load").ok());
  EXPECT_EQ(failpoint::HitCount("checkpoint.load"), 0u);
}

TEST_F(FailpointTest, NthHitTriggerFiresExactlyOnce) {
  ASSERT_TRUE(failpoint::Configure("trainer.epoch", "error@3").ok());
  EXPECT_TRUE(failpoint::Hit("trainer.epoch").ok());   // hit 1
  EXPECT_TRUE(failpoint::Hit("trainer.epoch").ok());   // hit 2
  EXPECT_FALSE(failpoint::Hit("trainer.epoch").ok());  // hit 3 fires
  EXPECT_TRUE(failpoint::Hit("trainer.epoch").ok());   // hit 4
  EXPECT_TRUE(failpoint::Hit("trainer.epoch").ok());   // hit 5
  EXPECT_EQ(failpoint::HitCount("trainer.epoch"), 5u);
}

TEST_F(FailpointTest, OneInNTriggerFiresPeriodically) {
  ASSERT_TRUE(failpoint::Configure("checkpoint.load", "error@1in2").ok());
  int failures = 0;
  for (int i = 0; i < 6; ++i) {
    if (!failpoint::Hit("checkpoint.load").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3) << "1in2 must fire on hits 2, 4, 6";
}

TEST_F(FailpointTest, ConfigureFromStringActivatesMultiplePoints) {
  ASSERT_TRUE(failpoint::ConfigureFromString(
                  "checkpoint.save=error;;checkpoint.load=error@2;")
                  .ok());
  EXPECT_FALSE(failpoint::Hit("checkpoint.save").ok());
  EXPECT_TRUE(failpoint::Hit("checkpoint.load").ok());
  EXPECT_FALSE(failpoint::Hit("checkpoint.load").ok());
  EXPECT_FALSE(failpoint::ConfigureFromString("no-equals-sign").ok());
  EXPECT_FALSE(failpoint::ConfigureFromString("bogus.name=error").ok());
}

TEST_F(FailpointTest, OffSpecDeactivatesAPoint) {
  ASSERT_TRUE(failpoint::Configure("checkpoint.save", "error").ok());
  ASSERT_FALSE(failpoint::Hit("checkpoint.save").ok());
  ASSERT_TRUE(failpoint::Configure("checkpoint.save", "off").ok());
  EXPECT_TRUE(failpoint::Hit("checkpoint.save").ok());
}

TEST_F(FailpointTest, DelayActionProceedsAfterSleeping) {
  ASSERT_TRUE(failpoint::Configure("net.reload.load", "delay(1)").ok());
  EXPECT_TRUE(failpoint::Hit("net.reload.load").ok())
      << "delay must pause, not fail";
}

TEST_F(FailpointTest, WriterSeamLatchesInjectedFailure) {
  ASSERT_TRUE(failpoint::Configure("binary.write", "error@2").ok());
  std::ostringstream out;
  BinaryWriter writer(&out);
  writer.WriteU32(1);  // first write is clean
  EXPECT_TRUE(writer.status().ok());
  writer.WriteU32(2);  // injected failure latches
  writer.WriteU32(3);
  EXPECT_FALSE(writer.status().ok());
  EXPECT_NE(writer.status().message().find("binary.write"),
            std::string::npos);
}

TEST_F(FailpointTest, ReaderSeamSurfacesInjectedFailure) {
  ASSERT_TRUE(failpoint::Configure("binary.read", "error").ok());
  std::istringstream in(std::string(16, '\0'));
  BinaryReader reader(&in);
  uint32_t value = 0;
  const Status status = reader.ReadU32(&value);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("binary.read"), std::string::npos);
}

TEST_F(FailpointTest, DatasetLoadSeamSurfacesInjectedFailure) {
  ASSERT_TRUE(failpoint::Configure("dataset.load", "error").ok());
  std::istringstream in("would-be dataset bytes");
  const Result<Dataset> loaded = LoadDatasetFromStream(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("dataset.load"),
            std::string::npos);
}

TEST_F(FailpointTest, ClearAllResetsActionsAndCounters) {
  ASSERT_TRUE(failpoint::Configure("checkpoint.save", "error").ok());
  ASSERT_FALSE(failpoint::Hit("checkpoint.save").ok());
  failpoint::ClearAll();
  EXPECT_TRUE(failpoint::Hit("checkpoint.save").ok());
  EXPECT_EQ(failpoint::HitCount("checkpoint.save"), 0u)
      << "ClearAll must reset hit counters, not just actions";
}

}  // namespace
}  // namespace adpa
