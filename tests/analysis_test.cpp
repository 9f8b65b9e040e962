// Tests for the §3.4 analysis phase: experiment classification and campaign
// aggregation.
#include <gtest/gtest.h>

#include "analysis_reference.hpp"
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

// --- in place against copy-based, on rows written by hand through SQL --------
//
// Rows LoggedState::Serialize never writes but the stateVector grammar
// accepts (or refuses), inserted past the store.

class HandWrittenRowsTest : public AnalyzeCampaignTest {
 protected:
  /// INSERT through SQL; an empty `parent` or `data` is NULL.
  void Insert(const std::string& name, const std::string& state_vector,
              const std::string& data = "", const std::string& parent = "",
              const std::string& campaign = "c") {
    const auto text_or_null = [](const std::string& text) {
      return text.empty() ? db::Value::Null() : db::Value::Text(text);
    };
    ASSERT_TRUE(store_.statement_cache()
                    .Execute(db_,
                             "INSERT INTO LoggedSystemState "
                             "VALUES (?, ?, ?, ?, ?)",
                             {db::Value::Text(name), text_or_null(parent),
                              db::Value::Text(campaign), text_or_null(data),
                              db::Value::Text(state_vector)})
                    .ok())
        << name;
  }

  void Delete(const std::string& name) {
    ASSERT_TRUE(store_.statement_cache()
                    .Execute(db_,
                             "DELETE FROM LoggedSystemState "
                             "WHERE experimentName = ?",
                             {db::Value::Text(name)})
                    .ok());
  }

  static constexpr const char* kFault =
      "faults=transient_bitflip,internal_regfile,40,regfile.r1,0,0,5,0";
};

TEST_F(HandWrittenRowsTest, OddButValidStateVectorsClassifyAsCopied) {
  // The reference reads halted=1, outputs=00001234, scan.internal_core=0101.
  const std::string rest = "halted=1;";
  // Scan keys out of order or repeated: the last value of a chain counts.
  Insert("c/h00", rest + "outputs=00001234;scan.x=1;scan.internal_core=0101;",
         kFault);
  Insert("c/h01",
         rest + "outputs=00001234;scan.internal_core=1111;"
                "scan.internal_core=0101;",
         kFault);
  Insert("c/h02",
         rest + "outputs=00001234;scan.internal_core=11;scan.internal_core=1;",
         kFault);
  Insert("c/h03", "scan.internal_core=0101;" + rest + "outputs=00001234;",
         kFault);
  // Upper-case, short and repeated output words.
  Insert("c/h04", rest + "outputs=1234;scan.internal_core=0101;", kFault);
  Insert("c/h05", rest + "outputs=0000ABCD;scan.internal_core=0101;", kFault);
  Insert("c/h06", rest + "outputs=12;outputs=34;scan.internal_core=0101;",
         kFault);
  Insert("c/h07", rest + "outputs=1234;outputs=;scan.internal_core=0101;",
         kFault);
  // edm=none, alone or after a named mechanism, and odd integer spellings.
  Insert("c/h09", "detected=1;edm=none;", kFault);
  Insert("c/h10", "detected=1;edm=illegal_opcode;edm=none;", kFault);
  Insert("c/h11", "detected= 1;edm=cache_parity_data;", kFault);
  Insert("c/h12", "halted=+1;timeout=0x0;outputs=1234;scan.internal_core=0101;",
         kFault);
  Insert("c/h13", "timeout=1;;", kFault);
  Insert("c/h14", "", kFault);
  // experimentData: a malformed, empty or missing first fault, and others.
  Insert("c/h20", rest + "outputs=1;", "faults=bogus,,0,,0,0,0,0");
  Insert("c/h21", rest + "outputs=1;", "technique=scifi;faults=");
  Insert("c/h22", rest + "outputs=1;", "technique=scifi");
  Insert("c/h23", rest + "outputs=1;", "");
  Insert("c/h24", rest + "outputs=1;",
         "faults=|transient_bitflip,internal_core,3,core.ir,0,0,5,0");
  Insert("c/h25", rest + "outputs=1;",
         "technique=scifi;faults=transient_bitflip,internal_core,3,core.ir,0,0,"
         "5,0|bogus;faults=");
  Insert("c/h26", rest + "outputs=1;",
         "faults=transient_bitflip,,0,memory.data,16,3,0,0");
  Insert("c/h27", rest + "outputs=1;",
         "faults=transient_bitflip,internal_core,3,watchdog,0,0,5,0");
  Insert("c/h28", rest + "outputs=1;",
         "faults=transient_bitflip,internal_core,x,core.ir,0,0,5,0");
  // Neither read: a malformed detail row and another campaign's row.
  Insert("c/h00/detail", "halted=zz", "detail_step", "c/h00");
  CampaignData other = store_.GetCampaign("c").ValueOrDie();
  other.name = "d";
  ASSERT_TRUE(store_.PutCampaign(other).ok());
  Insert("d/e0", "wat", kFault, "", "d");

  testing_reference::ExpectInPlaceAnalysisMatches(store_, "c");
  // The reference shares the stateVector grammar, so the outcomes are also
  // pinned: latent h00 h02; overwritten h01 h03 h04 h07 h12; detected h09
  // h10 (no mechanism) h11; escaped the rest, h13 and h14 late too.
  const AnalysisReport report = AnalyzeCampaign(store_, "c").ValueOrDie();
  EXPECT_EQ(report.total, 23);
  EXPECT_EQ(report.Count(Outcome::kLatent), 2);
  EXPECT_EQ(report.Count(Outcome::kOverwritten), 5);
  EXPECT_EQ(report.Count(Outcome::kDetected), 3);
  EXPECT_EQ(report.Count(Outcome::kEscaped), 13);
  EXPECT_EQ(report.escaped_value, 13);
  EXPECT_EQ(report.escaped_timeliness, 2);
  EXPECT_EQ(report.detected_by_mechanism,
            (std::map<std::string, int>{{"", 2}, {"cache_parity_data", 1}}));
  std::map<std::string, int> group_totals;
  for (const auto& [group, r] :
       AnalyzeByLocationGroup(store_, "c").ValueOrDie()) {
    group_totals[group] = r.total;
  }
  EXPECT_EQ(group_totals, (std::map<std::string, int>{{"core", 1},
                                                      {"memory", 1},
                                                      {"none", 3},
                                                      {"regfile", 14},
                                                      {"unknown", 3},
                                                      {"watchdog", 1}}));
}

TEST_F(HandWrittenRowsTest, MalformedStateVectorsKeepTheirStatus) {
  AddExperiment("c/e0", Reference(), kFault);
  for (const char* text :
       {"halted=zz", "wat=1", "noequals", "outputs=12,zz", "outputs=,",
        "halted=1;scan.internal_core=0101;code=", "halted=1;;x",
        "cycles=99999999999999999999", "outputs=1ffffffffffffffff0",
        "outputs=0x1234"}) {
    SCOPED_TRACE(text);
    Insert("c/bad", text, kFault);
    Insert("c/bad2", "halted=zz;wat", kFault);  // a later bad row
    const auto got = AnalyzeCampaign(store_, "c");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), util::StatusCode::kParseError);
    testing_reference::ExpectInPlaceAnalysisMatches(store_, "c");
    Delete("c/bad");
    Delete("c/bad2");
  }
  // A malformed reference row fails both analyses before any other row.
  Delete("c/ref");
  Insert("c/ref", "halted=1;iters=-", "technique=scifi;faults=");
  Insert("c/bad", "wat", kFault);
  EXPECT_EQ(AnalyzeCampaign(store_, "c").status().message(),
            "bad integer in LoggedState: iters=-");
  testing_reference::ExpectInPlaceAnalysisMatches(store_, "c");
  Delete("c/ref");
  testing_reference::ExpectInPlaceAnalysisMatches(store_, "c");
  EXPECT_EQ(AnalyzeCampaign(store_, "c").status().code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace goofi::core
