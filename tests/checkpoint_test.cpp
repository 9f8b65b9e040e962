// Equivalence and semantics tests for the golden-run checkpoint engine.
//
// The headline property: a warm-started campaign — every experiment
// fast-forwarded from the nearest golden-run checkpoint before its injection
// time — leaves the database byte-identical to a cold run of the same
// campaign, with equal Stats, for every technique, fault model, workload
// class, checkpoint interval and worker count.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/goofi.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"

namespace goofi::core {
namespace {

CampaignData ThorScifiCampaign(const std::string& name) {
  CampaignData campaign;
  campaign.name = name;
  campaign.target_name = ThorRdTarget::kTargetName;
  campaign.technique = Technique::kScifi;
  campaign.num_experiments = 8;
  campaign.workload = "bubblesort";
  campaign.locations = {{"internal_regfile", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 1000;
  campaign.timeout_cycles = 100000;
  return campaign;
}

CampaignData ThorControlCampaign(const std::string& name) {
  CampaignData campaign = ThorScifiCampaign(name);
  campaign.workload = "pendulum_pd";
  campaign.num_experiments = 6;
  campaign.inject_max_instr = 2000;
  campaign.max_iterations = 40;
  return campaign;
}

CampaignData SwifiRuntimeCampaign(const std::string& name) {
  CampaignData campaign;
  campaign.name = name;
  campaign.target_name = SwifiSimTarget::kTargetName;
  campaign.technique = Technique::kSwifiRuntime;
  campaign.num_experiments = 8;
  campaign.workload = "fibonacci";
  campaign.locations = {{"memory.text", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 500;
  campaign.timeout_cycles = 100000;
  return campaign;
}

CampaignData SwifiControlCampaign(const std::string& name) {
  CampaignData campaign = SwifiRuntimeCampaign(name);
  campaign.workload = "cruise_pi";
  campaign.locations = {{"memory.data", ""}};
  campaign.num_experiments = 6;
  campaign.inject_max_instr = 2000;
  campaign.max_iterations = 40;
  return campaign;
}

/// Everything a run leaves behind that equivalence is asserted over.
struct RunResult {
  util::Status status;
  std::vector<CampaignStore::ExperimentRow> rows;  ///< insertion order
  FaultInjectionAlgorithms::Stats stats;
  int warm_starts = 0;
  std::string db_bytes;  ///< the Save() file, CRC trailer and all
};

/// One self-contained session: fresh database + store + registered target.
struct Session {
  db::Database db;
  CampaignStore store;

  explicit Session(const CampaignData& campaign) : store(&db) {
    if (campaign.target_name == ThorRdTarget::kTargetName) {
      testcard::SimTestCard card;
      EXPECT_TRUE(store
                      .PutTargetSystem(ThorRdTarget::DescribeTarget(
                          card, ThorRdTarget::kTargetName))
                      .ok());
    } else {
      EXPECT_TRUE(store.PutTargetSystem(SwifiSimTarget::Describe()).ok());
    }
    EXPECT_TRUE(store.PutCampaign(campaign).ok());
  }

  RunResult Snapshot(util::Status status,
                     const FaultInjectionAlgorithms::Stats& stats,
                     int warm_starts, const std::string& campaign_name) {
    RunResult result;
    result.status = std::move(status);
    result.stats = stats;
    result.warm_starts = warm_starts;
    auto rows = store.ExperimentsOf(campaign_name);
    if (rows.ok()) result.rows = std::move(rows).value();
    const std::string path =
        testing::TempDir() + "goofi_checkpoint_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".db";
    EXPECT_TRUE(db.Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    result.db_bytes = buf.str();
    std::remove(path.c_str());
    return result;
  }
};

/// Serial run with checkpointing configured explicitly. `interval` 0 is the
/// cold baseline; `force` engages warm-start regardless of the injection
/// window.
RunResult RunSerial(const CampaignData& campaign, uint64_t interval,
                    bool force) {
  Session session(campaign);
  auto drive = [&](FaultInjectionAlgorithms& target) {
    target.SetCheckpointInterval(interval);
    target.SetForceWarmStart(force);
    // Sequence the run before reading the counters (argument evaluation
    // order is unspecified).
    util::Status status = target.RunCampaign(campaign.name);
    return session.Snapshot(std::move(status), target.stats(),
                            target.warm_starts(), campaign.name);
  };
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    testcard::SimTestCard card;
    ThorRdTarget target(&session.store, &card);
    return drive(target);
  }
  SwifiSimTarget target(&session.store);
  return drive(target);
}

RunResult RunCold(const CampaignData& campaign) {
  return RunSerial(campaign, /*interval=*/0, /*force=*/false);
}

RunResult RunWarm(const CampaignData& campaign, uint64_t interval) {
  return RunSerial(campaign, interval, /*force=*/true);
}

RunResult RunParallelWarm(const CampaignData& campaign, int workers,
                          uint64_t interval) {
  Session session(campaign);
  const auto factory = campaign.target_name == ThorRdTarget::kTargetName
                           ? MakeSimThorFactory(&session.store)
                           : MakeSwifiSimFactory(&session.store);
  ParallelCampaignRunner runner(&session.store, factory, workers);
  runner.SetCheckpointInterval(interval);
  runner.SetForceWarmStart(true);
  util::Status status = runner.Run(campaign.name);
  return session.Snapshot(std::move(status), runner.stats(),
                          runner.warm_starts(), campaign.name);
}

void ExpectIdentical(const RunResult& cold, const RunResult& warm) {
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ASSERT_EQ(cold.rows.size(), warm.rows.size());
  for (size_t i = 0; i < cold.rows.size(); ++i) {
    EXPECT_EQ(cold.rows[i].experiment_name, warm.rows[i].experiment_name)
        << "row " << i << " out of order";
    EXPECT_EQ(cold.rows[i].experiment_data, warm.rows[i].experiment_data)
        << "row " << i;
    EXPECT_EQ(cold.rows[i].state.Serialize(), warm.rows[i].state.Serialize())
        << "row " << i;
  }
  EXPECT_EQ(cold.stats, warm.stats) << "warm Stats must equal cold Stats";
  EXPECT_EQ(cold.db_bytes, warm.db_bytes)
      << "database files must be byte-identical";
}

TEST(CheckpointTest, ScifiBatchWorkloadWarmMatchesColdAtEveryInterval) {
  for (uint64_t seed : {0x600F1ull, 0xBADF00Dull}) {
    CampaignData campaign = ThorScifiCampaign("cp_scifi");
    campaign.seed = seed;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunResult cold = RunCold(campaign);
    EXPECT_EQ(cold.warm_starts, 0);
    for (uint64_t interval : {1ull, 64ull, 4096ull}) {
      SCOPED_TRACE("interval=" + std::to_string(interval));
      const RunResult warm = RunWarm(campaign, interval);
      EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
      ExpectIdentical(cold, warm);
    }
  }
}

TEST(CheckpointTest, ScifiControlWorkloadWarmMatchesCold) {
  // Environment-in-the-loop workload: checkpoints must carry the plant
  // state, the iteration count and the actuator CRC accumulator.
  const CampaignData campaign = ThorControlCampaign("cp_scifi_env");
  const RunResult cold = RunCold(campaign);
  for (uint64_t interval : {64ull, 4096ull}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    const RunResult warm = RunWarm(campaign, interval);
    EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
    ExpectIdentical(cold, warm);
  }
}

TEST(CheckpointTest, RuntimeSwifiWarmMatchesColdAtEveryInterval) {
  for (uint64_t seed : {0x600F1ull, 0x5EEDull}) {
    CampaignData campaign = SwifiRuntimeCampaign("cp_swifi");
    campaign.seed = seed;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunResult cold = RunCold(campaign);
    for (uint64_t interval : {1ull, 64ull, 4096ull}) {
      SCOPED_TRACE("interval=" + std::to_string(interval));
      const RunResult warm = RunWarm(campaign, interval);
      EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
      ExpectIdentical(cold, warm);
    }
  }
}

TEST(CheckpointTest, RuntimeSwifiControlWorkloadWarmMatchesCold) {
  const CampaignData campaign = SwifiControlCampaign("cp_swifi_env");
  const RunResult cold = RunCold(campaign);
  const RunResult warm = RunWarm(campaign, 64);
  EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
  ExpectIdentical(cold, warm);
}

TEST(CheckpointTest, PermanentAndIntermittentModelsWarmMatchCold) {
  // Non-transient models re-activate faults after injection via the
  // reactivation trigger; the restored debug unit must replay that exactly.
  for (FaultModelKind model : {FaultModelKind::kPermanentStuckAt,
                               FaultModelKind::kIntermittentBitFlip}) {
    CampaignData campaign = ThorScifiCampaign("cp_model");
    campaign.fault_model = model;
    SCOPED_TRACE(FaultModelName(model));
    const RunResult cold = RunCold(campaign);
    ExpectIdentical(cold, RunWarm(campaign, 64));
  }
}

TEST(CheckpointTest, DetailModeWarmMatchesCold) {
  CampaignData campaign = ThorScifiCampaign("cp_detail");
  campaign.log_mode = LogMode::kDetail;
  campaign.num_experiments = 3;
  campaign.inject_max_instr = 200;
  const RunResult cold = RunCold(campaign);
  ASSERT_GT(cold.rows.size(), 4u) << "expected detail rows";
  ExpectIdentical(cold, RunWarm(campaign, 64));
}

TEST(CheckpointTest, ParallelWarmSharesCacheAndMatchesCold) {
  const CampaignData campaign = ThorScifiCampaign("cp_par");
  const RunResult cold = RunCold(campaign);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunResult warm = RunParallelWarm(campaign, workers, 64);
    EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
    ExpectIdentical(cold, warm);
  }
}

TEST(CheckpointTest, ParallelWarmSwifiMatchesCold) {
  const CampaignData campaign = SwifiRuntimeCampaign("cp_par_swifi");
  const RunResult cold = RunCold(campaign);
  const RunResult warm = RunParallelWarm(campaign, 4, 64);
  EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
  ExpectIdentical(cold, warm);
}

TEST(CheckpointTest, WarmStartEngagesByDefaultForLateInjections) {
  // All faults inject at or after the first interval, so the run builds the
  // cache without SetForceWarmStart.
  CampaignData campaign = ThorScifiCampaign("cp_auto");
  campaign.inject_min_instr = 600;
  const RunResult cold = RunCold(campaign);
  const RunResult warm =
      RunSerial(campaign, /*interval=*/64, /*force=*/false);
  EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
  ExpectIdentical(cold, warm);
}

TEST(CheckpointTest, PrepareCampaignBuildsNoGoldenProducts) {
  // The same late-injecting campaign, prepared but not run: the golden
  // products belong to a run, so experiments executed on a prepared target
  // start cold.
  CampaignData campaign = ThorScifiCampaign("cp_prepared");
  campaign.inject_min_instr = 600;
  Session session(campaign);
  testcard::SimTestCard card;
  ThorRdTarget target(&session.store, &card);
  target.SetCheckpointInterval(64);
  ASSERT_TRUE(target.PrepareCampaign(campaign).ok());
  for (int i = 0; i < campaign.num_experiments; ++i) {
    ASSERT_TRUE(target.ExecuteExperiment(i).ok());
  }
  EXPECT_EQ(target.warm_starts(), 0);
}

TEST(CheckpointTest, DefaultStaysColdForEarlyInjections) {
  // inject_min_instr < interval: building a cache could not serve every
  // experiment, so the default configuration stays entirely cold.
  const CampaignData campaign = ThorScifiCampaign("cp_early");
  const RunResult run = RunSerial(
      campaign, FaultInjectionAlgorithms::kDefaultCheckpointInterval,
      /*force=*/false);
  ASSERT_TRUE(run.status.ok());
  EXPECT_EQ(run.warm_starts, 0);
}

TEST(CheckpointTest, FindBeforeIsStrictlyBelow) {
  struct DummyPayload final : CheckpointPayload {
    size_t MemoryBytes() const override { return sizeof(DummyPayload); }
  };
  CheckpointCache cache(100);
  for (uint64_t instret : {0ull, 100ull, 200ull}) {
    Checkpoint cp;
    cp.instret = instret;
    cp.payload = std::make_shared<DummyPayload>();
    cache.Add(std::move(cp));
  }
  EXPECT_EQ(cache.FindBefore(0), nullptr);
  ASSERT_NE(cache.FindBefore(1), nullptr);
  EXPECT_EQ(cache.FindBefore(1)->instret, 0u);
  // A checkpoint AT the injection instruction must not be used: the debug
  // unit evaluates triggers after stepping, so restoring there would fire
  // the breakpoint one instruction late.
  ASSERT_NE(cache.FindBefore(100), nullptr);
  EXPECT_EQ(cache.FindBefore(100)->instret, 0u);
  EXPECT_EQ(cache.FindBefore(101)->instret, 100u);
  EXPECT_EQ(cache.FindBefore(5000)->instret, 200u);
}

TEST(CheckpointTest, CacheMemoryIsBoundedByPageDeltas) {
  // A full TRD32 memory image is 1 MiB; dirty-page deltas must keep each
  // snapshot far below that.
  db::Database db;
  CampaignStore store(&db);
  testcard::SimTestCard card;
  ASSERT_TRUE(store
                  .PutTargetSystem(ThorRdTarget::DescribeTarget(
                      card, ThorRdTarget::kTargetName))
                  .ok());
  CampaignData campaign = ThorScifiCampaign("cp_mem");
  campaign.inject_max_instr = 20000;
  ASSERT_TRUE(store.PutCampaign(campaign).ok());
  ThorRdTarget target(&store, &card);
  ASSERT_TRUE(target.PrepareCampaign(campaign).ok());
  CheckpointCache cache(256);
  ASSERT_TRUE(target.BuildGoldenRun(256, &cache, nullptr).ok());
  ASSERT_GT(cache.size(), 4u);
  EXPECT_EQ(cache.interval(), 256u);
  EXPECT_LT(cache.MemoryBytes(), cache.size() * 256 * 1024)
      << "snapshots must store page deltas, not full memory images";
}

}  // namespace
}  // namespace goofi::core
