// Tests for the §3.4 analysis phase: experiment classification and campaign
// aggregation.
#include <gtest/gtest.h>

#include "core/analysis.hpp"

namespace goofi::core {
namespace {

LoggedState Reference() {
  LoggedState state;
  state.halted = true;
  state.cycles = 1000;
  state.instret = 800;
  state.outputs = {0x1234};
  state.scan_images["internal_core"] = "0101";
  return state;
}

TEST(ClassifyTest, DetectedWinsOverEverything) {
  LoggedState exp = Reference();
  exp.detected = true;
  exp.edm = "cache_parity_instr";
  exp.outputs = {0xBAD};      // even with wrong outputs...
  exp.env_failed = true;      // ...and a fallen plant
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kDetected);
  EXPECT_EQ(cls.mechanism, "cache_parity_instr");
}

TEST(ClassifyTest, WrongOutputsEscapeAsValueFailure) {
  LoggedState exp = Reference();
  exp.outputs = {0x9999};
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kEscaped);
  EXPECT_TRUE(cls.value_failure);
}

TEST(ClassifyTest, EnvFailureEscapesAsValueFailure) {
  LoggedState exp = Reference();
  exp.env_failed = true;
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kEscaped);
  EXPECT_TRUE(cls.value_failure);
}

TEST(ClassifyTest, TimeoutEscapesAsTimelinessViolation) {
  LoggedState exp = Reference();
  exp.halted = false;
  exp.timed_out = true;
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kEscaped);
  EXPECT_TRUE(cls.timeliness_violation);
}

TEST(ClassifyTest, StateDifferenceIsLatent) {
  LoggedState exp = Reference();
  exp.scan_images["internal_core"] = "0111";
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kLatent);
}

TEST(ClassifyTest, IdenticalStateIsOverwritten) {
  const auto cls = Classify(Reference(), Reference());
  EXPECT_EQ(cls.outcome, Outcome::kOverwritten);
}

TEST(ClassifyTest, CycleCountDifferenceAloneIsNotAnError) {
  // Timing may legitimately differ (cache effects); only the observable
  // state vector and outputs matter.
  LoggedState exp = Reference();
  exp.cycles += 50;
  exp.instret += 10;
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kOverwritten);
}

// --- report aggregation --------------------------------------------------------

TEST(ReportTest, CoverageMath) {
  AnalysisReport report;
  report.total = 10;
  report.by_outcome[Outcome::kDetected] = 3;
  report.by_outcome[Outcome::kEscaped] = 1;
  report.by_outcome[Outcome::kLatent] = 2;
  report.by_outcome[Outcome::kOverwritten] = 4;
  EXPECT_DOUBLE_EQ(report.ErrorCoverage(), 0.75);
  EXPECT_DOUBLE_EQ(report.EffectivenessRatio(), 0.4);
  EXPECT_EQ(report.Count(Outcome::kLatent), 2);
}

TEST(ReportTest, CoverageWithNoEffectiveErrorsIsOne) {
  AnalysisReport report;
  report.total = 5;
  report.by_outcome[Outcome::kOverwritten] = 5;
  EXPECT_DOUBLE_EQ(report.ErrorCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(report.EffectivenessRatio(), 0.0);
}

TEST(ReportTest, ToStringListsMechanisms) {
  AnalysisReport report;
  report.campaign = "camp";
  report.total = 2;
  report.by_outcome[Outcome::kDetected] = 2;
  report.detected_by_mechanism["illegal_opcode"] = 1;
  report.detected_by_mechanism["watchdog_timeout"] = 1;
  const std::string text = report.ToString();
  EXPECT_NE(text.find("illegal_opcode"), std::string::npos);
  EXPECT_NE(text.find("watchdog_timeout"), std::string::npos);
  EXPECT_NE(text.find("camp"), std::string::npos);
}

// --- campaign-level analysis over a store ---------------------------------------

class AnalyzeCampaignTest : public ::testing::Test {
 protected:
  AnalyzeCampaignTest() : store_(&db_) {
    TargetSystemData target;
    target.name = "t";
    EXPECT_TRUE(store_.PutTargetSystem(target).ok());
    CampaignData campaign;
    campaign.name = "c";
    campaign.target_name = "t";
    campaign.workload = "w";
    EXPECT_TRUE(store_.PutCampaign(campaign).ok());
    EXPECT_TRUE(store_
                    .PutExperiment(CampaignStore::ReferenceName("c"), "", "c",
                                   "", Reference())
                    .ok());
  }

  void AddExperiment(const std::string& name, const LoggedState& state,
                     const std::string& data = "", const std::string& parent = "") {
    ASSERT_TRUE(store_.PutExperiment(name, parent, "c", data, state).ok());
  }

  db::Database db_;
  CampaignStore store_;
};

TEST_F(AnalyzeCampaignTest, AggregatesAllOutcomeKinds) {
  LoggedState detected = Reference();
  detected.detected = true;
  detected.edm = "illegal_opcode";
  AddExperiment("c/e0", detected,
                "faults=transient_bitflip,internal_core,3,core.ir,0,0,5,0");

  LoggedState escaped = Reference();
  escaped.outputs = {0xBAD};
  AddExperiment("c/e1", escaped,
                "faults=transient_bitflip,internal_regfile,40,regfile.r1,0,0,5,0");

  LoggedState latent = Reference();
  latent.scan_images["internal_core"] = "1111";
  AddExperiment("c/e2", latent,
                "faults=transient_bitflip,internal_regfile,70,regfile.r2,0,0,5,0");

  AddExperiment("c/e3", Reference(),
                "faults=transient_bitflip,internal_regfile,70,regfile.r2,0,0,9,0");

  const auto report = AnalyzeCampaign(store_, "c").ValueOrDie();
  EXPECT_EQ(report.total, 4);
  EXPECT_EQ(report.Count(Outcome::kDetected), 1);
  EXPECT_EQ(report.Count(Outcome::kEscaped), 1);
  EXPECT_EQ(report.Count(Outcome::kLatent), 1);
  EXPECT_EQ(report.Count(Outcome::kOverwritten), 1);
  EXPECT_EQ(report.detected_by_mechanism.at("illegal_opcode"), 1);
  EXPECT_DOUBLE_EQ(report.ErrorCoverage(), 0.5);
}

TEST_F(AnalyzeCampaignTest, DetailRowsExcluded) {
  AddExperiment("c/e0", Reference(), "f");
  LoggedState step;
  AddExperiment("c/e0/d0", step, "detail_step", "c/e0");
  const auto report = AnalyzeCampaign(store_, "c").ValueOrDie();
  EXPECT_EQ(report.total, 1);
}

TEST_F(AnalyzeCampaignTest, MalformedDetailRowIsNeitherReadNorParsed) {
  LoggedState detected = Reference();
  detected.detected = true;
  detected.edm = "illegal_opcode";
  AddExperiment("c/e0", detected,
                "faults=transient_bitflip,internal_core,3,core.ir,0,0,5,0");
  AddExperiment("c/e1", Reference(),
                "faults=transient_bitflip,internal_regfile,40,regfile.r1,0,0,5,0");
  const std::string report = AnalyzeCampaign(store_, "c").ValueOrDie().ToString();
  std::map<std::string, std::string> groups;
  for (const auto& [group, r] : AnalyzeByLocationGroup(store_, "c").ValueOrDie()) {
    groups[group] = r.ToString();
  }

  // A detail row whose stateVector no parser accepts, stored past
  // LoggedState::Serialize.
  ASSERT_TRUE(db_.Insert("LoggedSystemState",
                         {db::Value::Text("c/e0/detail"), db::Value::Text("c/e0"),
                          db::Value::Text("c"), db::Value::Text("detail_step"),
                          db::Value::Text("halted=zz;wat")})
                  .ok());
  ASSERT_FALSE(store_.GetExperiment("c/e0/detail").ok());

  const auto after = AnalyzeCampaign(store_, "c");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().ToString(), report);
  const auto groups_after = AnalyzeByLocationGroup(store_, "c");
  ASSERT_TRUE(groups_after.ok()) << groups_after.status().ToString();
  ASSERT_EQ(groups_after.value().size(), groups.size());
  for (const auto& [group, r] : groups_after.value()) {
    EXPECT_EQ(r.ToString(), groups[group]) << group;
  }
}

TEST_F(AnalyzeCampaignTest, MissingReferenceIsError) {
  EXPECT_FALSE(AnalyzeCampaign(store_, "nope").ok());
}

TEST_F(AnalyzeCampaignTest, ByLocationGroupSplitsOnCellPrefix) {
  LoggedState detected = Reference();
  detected.detected = true;
  detected.edm = "illegal_opcode";
  AddExperiment("c/e0", detected,
                "faults=transient_bitflip,internal_core,3,core.ir,0,0,5,0");
  AddExperiment("c/e1", Reference(),
                "faults=transient_bitflip,internal_regfile,40,regfile.r1,0,0,5,0");
  AddExperiment(
      "c/e2", Reference(),
      "faults=transient_bitflip,,0,memory.text@0x00000010,16,3,0,0");

  const auto by_group = AnalyzeByLocationGroup(store_, "c").ValueOrDie();
  ASSERT_EQ(by_group.size(), 3u);
  EXPECT_EQ(by_group.at("core").Count(Outcome::kDetected), 1);
  EXPECT_EQ(by_group.at("regfile").Count(Outcome::kOverwritten), 1);
  EXPECT_EQ(by_group.at("memory.text").total, 1);
}

}  // namespace
}  // namespace goofi::core
