// Tests for CampaignStore: the GOOFI database bindings of paper Fig. 4.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "core/campaign_store.hpp"
#include "db/sql_executor.hpp"

namespace goofi::core {
namespace {

class CampaignStoreTest : public ::testing::Test {
 protected:
  CampaignStoreTest() : store_(&db_) {}

  TargetSystemData Target(const std::string& name = "thor") {
    TargetSystemData target;
    target.name = name;
    target.description = "test target";
    target.chain_data = "internal_core core.pc 32 0\n";
    return target;
  }

  CampaignData Campaign(const std::string& name = "c1",
                        const std::string& target = "thor") {
    CampaignData campaign;
    campaign.name = name;
    campaign.target_name = target;
    campaign.workload = "bubblesort";
    campaign.locations = {{"internal_regfile", ""}};
    return campaign;
  }

  db::Database db_;
  CampaignStore store_;
};

TEST_F(CampaignStoreTest, CreatesAllThreeTables) {
  EXPECT_TRUE(db_.HasTable("TargetSystemData"));
  EXPECT_TRUE(db_.HasTable("CampaignData"));
  EXPECT_TRUE(db_.HasTable("LoggedSystemState"));
}

TEST_F(CampaignStoreTest, Fig4ForeignKeysDeclared) {
  const auto& campaign_fks = db_.GetTable("CampaignData")->schema().foreign_keys();
  ASSERT_EQ(campaign_fks.size(), 1u);
  EXPECT_EQ(campaign_fks[0].ref_table, "TargetSystemData");

  const auto& log_fks = db_.GetTable("LoggedSystemState")->schema().foreign_keys();
  ASSERT_EQ(log_fks.size(), 2u);
  EXPECT_EQ(log_fks[0].ref_table, "CampaignData");
  EXPECT_EQ(log_fks[1].ref_table, "LoggedSystemState") << "parentExperiment";
}

TEST_F(CampaignStoreTest, TargetSystemRoundTrip) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  const auto back = store_.GetTargetSystem("thor").ValueOrDie();
  EXPECT_EQ(back.description, "test target");
  EXPECT_EQ(back.chain_data, "internal_core core.pc 32 0\n");
  EXPECT_FALSE(store_.GetTargetSystem("nope").ok());
  EXPECT_EQ(store_.TargetSystemNames().ValueOrDie(),
            std::vector<std::string>{"thor"});
}

TEST_F(CampaignStoreTest, TargetSystemUpsertReplaces) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  TargetSystemData updated = Target();
  updated.description = "v2";
  ASSERT_TRUE(store_.PutTargetSystem(updated).ok());
  EXPECT_EQ(store_.GetTargetSystem("thor").ValueOrDie().description, "v2");
}

TEST_F(CampaignStoreTest, CampaignRequiresTargetSystem) {
  const auto st = store_.PutCampaign(Campaign());
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation)
      << "foreign key must reject orphan campaigns";
}

TEST_F(CampaignStoreTest, CampaignRoundTripAllFields) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  CampaignData campaign = Campaign();
  campaign.technique = Technique::kSwifiRuntime;
  campaign.fault_model = FaultModelKind::kIntermittentBitFlip;
  campaign.faults_per_experiment = 3;
  campaign.num_experiments = 77;
  campaign.inject_min_instr = 5;
  campaign.inject_max_instr = 5000;
  campaign.locations = {{"internal_core", "core.pc"}, {"memory.data", ""}};
  campaign.timeout_cycles = 123456;
  campaign.max_iterations = 42;
  campaign.seed = 0xABCDEF;
  campaign.log_mode = LogMode::kDetail;
  campaign.observe_chains = {"boundary"};
  campaign.burst_length = 9;
  campaign.burst_spacing = 333;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());

  const auto back = store_.GetCampaign("c1").ValueOrDie();
  EXPECT_EQ(back.target_name, "thor");
  EXPECT_EQ(back.technique, Technique::kSwifiRuntime);
  EXPECT_EQ(back.fault_model, FaultModelKind::kIntermittentBitFlip);
  EXPECT_EQ(back.faults_per_experiment, 3);
  EXPECT_EQ(back.num_experiments, 77);
  EXPECT_EQ(back.inject_min_instr, 5u);
  EXPECT_EQ(back.inject_max_instr, 5000u);
  ASSERT_EQ(back.locations.size(), 2u);
  EXPECT_EQ(back.locations[0].chain, "internal_core");
  EXPECT_EQ(back.locations[0].cell_prefix, "core.pc");
  EXPECT_EQ(back.timeout_cycles, 123456u);
  EXPECT_EQ(back.max_iterations, 42);
  EXPECT_EQ(back.seed, 0xABCDEFu);
  EXPECT_EQ(back.log_mode, LogMode::kDetail);
  EXPECT_EQ(back.observe_chains, std::vector<std::string>{"boundary"});
  EXPECT_EQ(back.burst_length, 9u);
  EXPECT_EQ(back.burst_spacing, 333u);
}

TEST_F(CampaignStoreTest, CampaignUpsertModifiesStoredData) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign()).ok());
  CampaignData updated = Campaign();
  updated.num_experiments = 999;
  ASSERT_TRUE(store_.PutCampaign(updated).ok());
  EXPECT_EQ(store_.GetCampaign("c1").ValueOrDie().num_experiments, 999);
  EXPECT_EQ(store_.CampaignNames().ValueOrDie().size(), 1u);
}

TEST_F(CampaignStoreTest, ExperimentRequiresCampaign) {
  const auto st = store_.PutExperiment("e1", "", "missing", "", LoggedState{});
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
}

TEST_F(CampaignStoreTest, ExperimentParentMustExist) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign()).ok());
  EXPECT_FALSE(store_.PutExperiment("e2", "ghost-parent", "c1", "", LoggedState{}).ok());
  ASSERT_TRUE(store_.PutExperiment("e1", "", "c1", "", LoggedState{}).ok());
  EXPECT_TRUE(store_.PutExperiment("e2", "e1", "c1", "", LoggedState{}).ok());
}

TEST_F(CampaignStoreTest, ExperimentRoundTripWithState) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign()).ok());
  LoggedState state;
  state.detected = true;
  state.edm = "illegal_opcode";
  state.cycles = 555;
  state.outputs = {7};
  ASSERT_TRUE(store_.PutExperiment("e1", "", "c1", "faults=xyz", state).ok());

  const auto row = store_.GetExperiment("e1").ValueOrDie();
  EXPECT_EQ(row.campaign_name, "c1");
  EXPECT_EQ(row.parent_experiment, "");
  EXPECT_EQ(row.experiment_data, "faults=xyz");
  EXPECT_TRUE(row.state.detected);
  EXPECT_EQ(row.state.edm, "illegal_opcode");
  EXPECT_EQ(row.state.cycles, 555u);
}

TEST_F(CampaignStoreTest, ExperimentsOfFiltersByCampaign) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign("a")).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign("b")).ok());
  ASSERT_TRUE(store_.PutExperiment("a/e0", "", "a", "", LoggedState{}).ok());
  ASSERT_TRUE(store_.PutExperiment("a/e1", "", "a", "", LoggedState{}).ok());
  ASSERT_TRUE(store_.PutExperiment("b/e0", "", "b", "", LoggedState{}).ok());
  EXPECT_EQ(store_.ExperimentsOf("a").ValueOrDie().size(), 2u);
  EXPECT_EQ(store_.ExperimentsOf("b").ValueOrDie().size(), 1u);
  EXPECT_TRUE(store_.ExperimentsOf("none").ValueOrDie().empty());
}

TEST_F(CampaignStoreTest, DuplicateExperimentNameRejected) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign()).ok());
  ASSERT_TRUE(store_.PutExperiment("e1", "", "c1", "", LoggedState{}).ok());
  EXPECT_FALSE(store_.PutExperiment("e1", "", "c1", "", LoggedState{}).ok());
}

// --- merge (set-up phase, §3.2) ------------------------------------------------

TEST_F(CampaignStoreTest, MergeCombinesLocationsAndCounts) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  CampaignData a = Campaign("a");
  a.num_experiments = 100;
  a.locations = {{"internal_regfile", ""}};
  a.inject_min_instr = 10;
  a.inject_max_instr = 100;
  CampaignData b = Campaign("b");
  b.num_experiments = 50;
  b.locations = {{"internal_core", ""}, {"internal_regfile", ""}};
  b.inject_min_instr = 1;
  b.inject_max_instr = 500;
  ASSERT_TRUE(store_.PutCampaign(a).ok());
  ASSERT_TRUE(store_.PutCampaign(b).ok());

  ASSERT_TRUE(store_.MergeCampaigns({"a", "b"}, "merged").ok());
  const auto merged = store_.GetCampaign("merged").ValueOrDie();
  EXPECT_EQ(merged.num_experiments, 150);
  EXPECT_EQ(merged.locations.size(), 2u) << "duplicates removed";
  EXPECT_EQ(merged.inject_min_instr, 1u);
  EXPECT_EQ(merged.inject_max_instr, 500u);
}

TEST_F(CampaignStoreTest, MergeRejectsMismatchedWorkloads) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  CampaignData a = Campaign("a");
  CampaignData b = Campaign("b");
  b.workload = "matmul";
  ASSERT_TRUE(store_.PutCampaign(a).ok());
  ASSERT_TRUE(store_.PutCampaign(b).ok());
  EXPECT_FALSE(store_.MergeCampaigns({"a", "b"}, "merged").ok());
}

TEST_F(CampaignStoreTest, MergeRejectsEmptyAndMissing) {
  EXPECT_FALSE(store_.MergeCampaigns({}, "m").ok());
  EXPECT_FALSE(store_.MergeCampaigns({"ghost"}, "m").ok());
}

TEST_F(CampaignStoreTest, ReferenceNameConvention) {
  EXPECT_EQ(CampaignStore::ReferenceName("camp"), "camp/ref");
}

TEST_F(CampaignStoreTest, StandardIndexesServeTheStoreQueries) {
  std::vector<std::string> names;
  for (const auto& index : db_.GetTable("LoggedSystemState")->indexes()) {
    names.push_back(index->name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"idx_lss_campaign",
                                             "idx_lss_parent"}));
  // The SELECTs of ExperimentsOf, TopLevelRowsOf and DetailRowsOf.
  const std::string select =
      "SELECT experimentName, parentExperiment, campaignName, experimentData, "
      "stateVector FROM LoggedSystemState WHERE ";
  auto explain = [&](const std::string& where) {
    auto plan = db::ExplainSql(db_, select + where);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan.value() : std::string();
  };
  const std::string residual = "\nWHERE: residual filter on candidates\n";
  EXPECT_EQ(explain("campaignName = ?"),
            "FROM LoggedSystemState: index equality probe idx_lss_campaign "
            "(campaignName)" + residual);
  EXPECT_EQ(explain("campaignName = ? AND parentExperiment IS NULL"),
            "FROM LoggedSystemState: smallest of index equality probe "
            "idx_lss_campaign (campaignName), index IS NULL probe "
            "idx_lss_parent (parentExperiment)" + residual);
  EXPECT_EQ(explain("parentExperiment = ?"),
            "FROM LoggedSystemState: index equality probe idx_lss_parent "
            "(parentExperiment)" + residual);
}

TEST_F(CampaignStoreTest, TopLevelRowsOfReturnsOneCampaignsRowsInOrder) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign("a")).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign("b")).ok());
  std::map<std::string, std::vector<std::string>> top;
  // Interleaved campaigns; every other experiment gets a detail re-run laid
  // out as RerunDetailed writes one: `<e>/detail` under `<e>`, and its
  // per-instruction rows under `<e>/detail`.
  auto put = [&](const std::string& campaign, int i, bool rerun) {
    const std::string name = campaign + "/e" + std::to_string(i);
    LoggedState state;
    state.cycles = static_cast<uint64_t>(i);
    ASSERT_TRUE(
        store_.PutExperiment(name, "", campaign, "faults=", state).ok());
    top[campaign].push_back(name);
    if (!rerun) return;
    const std::string detail = name + "/detail";
    ASSERT_TRUE(store_.PutExperiment(detail, name, campaign, "", state).ok());
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(store_
                      .PutExperiment(detail + "/d" + std::to_string(k), detail,
                                     campaign, "detail_step", state)
                      .ok());
    }
  };
  auto names_of = [&](const std::string& campaign) {
    std::vector<std::string> names;
    for (const auto& row : store_.TopLevelRowsOf(campaign).ValueOrDie()) {
      EXPECT_EQ(row.campaign_name, campaign);
      EXPECT_EQ(row.parent_experiment, "");
      names.push_back(row.experiment_name);
    }
    return names;
  };
  for (int i = 0; i < 6; ++i) {
    put("a", i, i % 2 == 0);
    put("b", i, i % 3 == 0);
  }
  // Each campaign has more rows (6 top-level, re-runs and their detail rows)
  // than all campaigns have top-level rows (12): the IS NULL probe is smaller.
  EXPECT_EQ(names_of("a"), top["a"]);
  EXPECT_EQ(names_of("b"), top["b"]);
  // Many more top-level rows in b: now a's campaign probe is the smaller.
  for (int i = 6; i < 60; ++i) put("b", i, false);
  EXPECT_EQ(names_of("a"), top["a"]);
  EXPECT_EQ(names_of("b"), top["b"]);
  EXPECT_TRUE(names_of("none").empty());
}

TEST_F(CampaignStoreTest, AnArchiveWithTheFormerNameIndexLoadsWithIt) {
  // Archives written before the store stopped creating idx_lss_name carry it.
  ASSERT_TRUE(db_.CreateIndex("LoggedSystemState", "idx_lss_name",
                              {"experimentName"}, db::IndexKind::kSorted)
                  .ok());
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign()).ok());
  ASSERT_TRUE(store_.PutExperiment("c1/e0", "", "c1", "", LoggedState{}).ok());
  ASSERT_TRUE(store_
                  .PutExperiment("c1/e0/detail", "c1/e0", "c1", "",
                                 LoggedState{})
                  .ok());
  const std::string path = testing::TempDir() + "campaign_store_name_index.db";
  ASSERT_TRUE(db_.Save(path).ok());
  db::Database loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  std::remove(path.c_str());
  CampaignStore store(&loaded);
  ASSERT_TRUE(store.EnsureSchema().ok());
  const db::Table* lss = loaded.GetTable("LoggedSystemState");
  EXPECT_NE(lss->FindIndex("idx_lss_name"), nullptr);
  EXPECT_NE(lss->FindIndex("idx_lss_campaign"), nullptr);
  EXPECT_NE(lss->FindIndex("idx_lss_parent"), nullptr);
  std::string error;
  EXPECT_TRUE(lss->ValidateIndexes(&error)) << error;
  EXPECT_EQ(store.TopLevelRowsOf("c1").ValueOrDie().size(), 1u);
  EXPECT_EQ(store.DetailRowsOf("c1/e0").ValueOrDie().size(), 1u);
  EXPECT_EQ(store.GetExperiment("c1/e0/detail").ValueOrDie().parent_experiment,
            "c1/e0");
}

/// FailedPrecondition naming `table`: what every accessor returns when its
/// GOOFI table is missing or foreign.
testing::AssertionResult RefusedFor(const util::Status& status,
                                    const std::string& table) {
  if (status.code() == util::StatusCode::kFailedPrecondition &&
      status.message().find(table) != std::string::npos) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "want failed_precondition naming " << table << ", got "
         << status.ToString();
}

TEST_F(CampaignStoreTest, DroppedTablesFailEveryAccessor) {
  ASSERT_TRUE(store_.PutTargetSystem(Target()).ok());
  ASSERT_TRUE(store_.PutCampaign(Campaign()).ok());
  ASSERT_TRUE(store_.PutExperiment("c1/ref", "", "c1", "", LoggedState{}).ok());
  ASSERT_TRUE(db_.DropTable("LoggedSystemState").ok());
  ASSERT_TRUE(db_.DropTable("CampaignData").ok());
  ASSERT_TRUE(db_.DropTable("TargetSystemData").ok());

  EXPECT_TRUE(RefusedFor(store_.PutTargetSystem(Target()), "TargetSystemData"));
  EXPECT_TRUE(RefusedFor(store_.GetTargetSystem("thor").status(),
                         "TargetSystemData"));
  EXPECT_TRUE(
      RefusedFor(store_.TargetSystemNames().status(), "TargetSystemData"));
  EXPECT_TRUE(RefusedFor(store_.PutCampaign(Campaign()), "CampaignData"));
  EXPECT_TRUE(RefusedFor(store_.GetCampaign("c1").status(), "CampaignData"));
  EXPECT_TRUE(RefusedFor(store_.CampaignNames().status(), "CampaignData"));
  EXPECT_TRUE(RefusedFor(store_.MergeCampaigns({"c1"}, "m"), "CampaignData"));
  const char* const logged = "LoggedSystemState";
  EXPECT_TRUE(RefusedFor(
      store_.PutExperiment("c1/e0000", "", "c1", "", LoggedState{}), logged));
  EXPECT_TRUE(RefusedFor(store_.PutExperiments({}), logged));
  EXPECT_TRUE(RefusedFor(store_.GetExperiment("c1/ref").status(), logged));
  EXPECT_TRUE(RefusedFor(store_.ExperimentsOf("c1").status(), logged));
  EXPECT_TRUE(RefusedFor(store_.TopLevelRowsOf("c1").status(), logged));
  EXPECT_TRUE(RefusedFor(store_.DetailRowsOf("c1/ref").status(), logged));
  EXPECT_TRUE(RefusedFor(store_.LoadTrace("c1/ref/detail").status(), logged));
  EXPECT_TRUE(RefusedFor(store_.ReferenceTrace("c1").status(), logged));

  // EnsureSchema puts the tables back.
  ASSERT_TRUE(store_.EnsureSchema().ok());
  EXPECT_TRUE(store_.CampaignNames().ValueOrDie().empty());
}

TEST(CampaignStoreForeignTest, ForeignSchemaIsRefusedBeforeAnythingIsCreated) {
  // CampaignData as some other tool might declare it: campaignName INTEGER.
  db::Database db;
  ASSERT_TRUE(db.CreateTable(db::Schema("CampaignData",
                                        {{"campaignName", db::ValueType::kInt,
                                          true}},
                                        {"campaignName"}))
                  .ok());
  ASSERT_TRUE(db.Insert("CampaignData", {db::Value::Int(7)}).ok());
  CampaignStore store(&db);  // logs the refusal

  EXPECT_TRUE(RefusedFor(store.EnsureSchema(), "CampaignData"));
  EXPECT_FALSE(db.HasTable("TargetSystemData"));
  EXPECT_FALSE(db.HasTable("LoggedSystemState"));
  EXPECT_TRUE(RefusedFor(store.CampaignNames().status(), "CampaignData"));
  EXPECT_TRUE(RefusedFor(store.GetCampaign("7").status(), "CampaignData"));
}

}  // namespace
}  // namespace goofi::core
