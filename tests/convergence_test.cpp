// Property and semantics tests for golden-trace convergence pruning (PR 4).
//
// The headline property: a pruned campaign — experiments terminated early
// once their state digest rejoins the golden trace (or a memoized faulty
// suffix) at a checkpoint boundary — leaves the database byte-identical to
// an unpruned run of the same campaign, with equal Stats, for every
// technique, fault model, workload class, log mode, interval and worker
// count. Pruning may only ever change *how fast* a result is produced,
// never the result.
#include "core/convergence.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/goofi.hpp"
#include "cpu/memory.hpp"
#include "cpu/state_hash.hpp"
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

/// Pipeline latches are refreshed every instruction, so most flips there are
/// architecturally masked within a few instructions: the canonical campaign
/// for *guaranteed* convergence traffic.
CampaignData ThorPipelineCampaign(const std::string& name) {
  CampaignData campaign = ThorScifiCampaign(name);
  campaign.locations = {{"boundary", "pipeline"}};
  campaign.inject_max_instr = 500;
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

CampaignData SwifiPreRuntimeCampaign(const std::string& name) {
  CampaignData campaign = SwifiRuntimeCampaign(name);
  campaign.technique = Technique::kSwifiPreRuntime;
  campaign.workload = "cruise_pi";
  campaign.locations = {{"memory.data", ""}};
  campaign.num_experiments = 6;
  campaign.max_iterations = 40;
  return campaign;
}

/// Everything a run leaves behind that equivalence is asserted over.
struct RunResult {
  util::Status status;
  std::vector<CampaignStore::ExperimentRow> rows;  ///< insertion order
  FaultInjectionAlgorithms::Stats stats;
  ConvergenceStats prune;
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
                     const ConvergenceStats& prune,
                     const std::string& campaign_name) {
    RunResult result;
    result.status = std::move(status);
    result.stats = stats;
    result.prune = prune;
    auto rows = store.ExperimentsOf(campaign_name);
    if (rows.ok()) result.rows = std::move(rows).value();
    const std::string path =
        testing::TempDir() + "goofi_convergence_" +
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

/// Unpruned serial baseline (no checkpointing either).
RunResult RunCold(const CampaignData& campaign) {
  Session session(campaign);
  auto drive = [&](FaultInjectionAlgorithms& target) {
    util::Status status = target.RunCampaign(campaign.name);
    return session.Snapshot(std::move(status), target.stats(),
                            target.prune_stats(), campaign.name);
  };
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    testcard::SimTestCard card;
    ThorRdTarget target(&session.store, &card);
    return drive(target);
  }
  SwifiSimTarget target(&session.store);
  return drive(target);
}

/// Serial run with pruning enabled. `force` additionally engages warm-start
/// fast-forward (the run-pruned shell command always forces it); `fast`
/// lets the superblock fast path be switched off on either target, to test
/// the stepped reference loops' boundary stops and checkpoint captures.
RunResult RunPrunedSerial(const CampaignData& campaign, uint64_t interval,
                          bool force = true, bool fast = true) {
  Session session(campaign);
  auto drive = [&](FaultInjectionAlgorithms& target) {
    target.SetCheckpointInterval(interval);
    target.SetForceWarmStart(force);
    target.SetConvergencePruning(true);
    util::Status status = target.RunCampaign(campaign.name);
    return session.Snapshot(std::move(status), target.stats(),
                            target.prune_stats(), campaign.name);
  };
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    testcard::SimTestCard card;
    card.set_use_fast_run(fast);
    ThorRdTarget target(&session.store, &card);
    return drive(target);
  }
  SwifiSimTarget target(&session.store);
  target.set_use_fast_run(fast);
  return drive(target);
}

RunResult RunPrunedParallel(const CampaignData& campaign, int workers,
                            uint64_t interval) {
  Session session(campaign);
  const auto factory = campaign.target_name == ThorRdTarget::kTargetName
                           ? MakeSimThorFactory(&session.store)
                           : MakeSwifiSimFactory(&session.store);
  ParallelCampaignRunner runner(&session.store, factory, workers);
  runner.SetCheckpointInterval(interval);
  runner.SetForceWarmStart(true);
  runner.SetConvergencePruning(true);
  util::Status status = runner.Run(campaign.name);
  return session.Snapshot(std::move(status), runner.stats(),
                          runner.prune_stats(), campaign.name);
}

void ExpectIdentical(const RunResult& cold, const RunResult& pruned) {
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_TRUE(pruned.status.ok()) << pruned.status.ToString();
  ASSERT_EQ(cold.rows.size(), pruned.rows.size());
  for (size_t i = 0; i < cold.rows.size(); ++i) {
    EXPECT_EQ(cold.rows[i].experiment_name, pruned.rows[i].experiment_name)
        << "row " << i << " out of order";
    EXPECT_EQ(cold.rows[i].experiment_data, pruned.rows[i].experiment_data)
        << "row " << i;
    EXPECT_EQ(cold.rows[i].state.Serialize(), pruned.rows[i].state.Serialize())
        << "row " << i;
  }
  EXPECT_EQ(cold.stats, pruned.stats) << "pruned Stats must equal cold Stats";
  EXPECT_EQ(cold.db_bytes, pruned.db_bytes)
      << "database files must be byte-identical";
}

// ---------------------------------------------------------------------------
// Data-structure semantics.
// ---------------------------------------------------------------------------

TEST(ConvergenceTest, FindBoundaryIsExactMatchOnly) {
  GoldenTrace trace;
  for (uint64_t instret : {0ull, 64ull, 128ull}) {
    GoldenBoundary boundary;
    boundary.instret = instret;
    boundary.hash = instret + 1;
    trace.AddBoundary(std::move(boundary));
  }
  ASSERT_NE(trace.FindBoundary(0), nullptr);
  EXPECT_EQ(trace.FindBoundary(0)->hash, 1u);
  ASSERT_NE(trace.FindBoundary(64), nullptr);
  EXPECT_EQ(trace.FindBoundary(64)->hash, 65u);
  // Strictly exact: a faulty run stopped mid-interval must never be compared
  // against the nearest boundary.
  EXPECT_EQ(trace.FindBoundary(63), nullptr);
  EXPECT_EQ(trace.FindBoundary(65), nullptr);
  EXPECT_EQ(trace.FindBoundary(129), nullptr);
}

TEST(ConvergenceTest, ConvergenceMatchRejectsHashCollisions) {
  GoldenBoundary boundary;
  boundary.instret = 64;
  boundary.hash = 42;
  boundary.blob = {1, 2, 3};
  EXPECT_TRUE(ConvergenceMatch(boundary, 42, {1, 2, 3}));
  // Same 64-bit hash, different full state: the adversarial collision case.
  // The blob compare must turn it into a miss, never a false convergence.
  EXPECT_FALSE(ConvergenceMatch(boundary, 42, {1, 2, 4}));
  EXPECT_FALSE(ConvergenceMatch(boundary, 43, {1, 2, 3}));
  EXPECT_FALSE(ConvergenceMatch(boundary, 42, {}));
}

TEST(ConvergenceTest, MemoLookupVerifiesBlobBeforeHit) {
  ConvergenceMemo memo;
  LoggedState final_state;
  final_state.cycles = 7;
  EXPECT_TRUE(memo.Insert(100, 42, {1, 2}, final_state));
  LoggedState out;
  // Hash collision with a different faulty state: must miss.
  EXPECT_FALSE(memo.Lookup(100, 42, {9, 9}, &out));
  // Same hash at a different instret: distinct key, must miss.
  EXPECT_FALSE(memo.Lookup(200, 42, {1, 2}, &out));
  ASSERT_TRUE(memo.Lookup(100, 42, {1, 2}, &out));
  EXPECT_EQ(out.cycles, 7u);
}

TEST(ConvergenceTest, MemoIsBoundedAndFirstWriterWins) {
  ConvergenceMemo memo;
  LoggedState first;
  first.cycles = 1;
  ASSERT_TRUE(memo.Insert(0, 0, {0}, first));
  LoggedState second;
  second.cycles = 2;
  EXPECT_FALSE(memo.Insert(0, 0, {0}, second)) << "duplicate key";
  LoggedState out;
  ASSERT_TRUE(memo.Lookup(0, 0, {0}, &out));
  EXPECT_EQ(out.cycles, 1u) << "first writer must win";
  for (uint64_t i = 1; i < ConvergenceMemo::kMaxEntries + 16; ++i) {
    memo.Insert(i, i, {static_cast<uint8_t>(i)}, first);
  }
  EXPECT_EQ(memo.size(), ConvergenceMemo::kMaxEntries)
      << "adversarial campaigns must not grow the memo unboundedly";
}

TEST(ConvergenceTest, MemoConcurrentHammerStaysConsistent) {
  // Shared across ParallelCampaignRunner workers: concurrent inserts and
  // lookups on overlapping keys must be race-free (run under TSan by
  // scripts/tier1.sh). Every writer of key k stores cycles == k, so any hit
  // must observe exactly that.
  ConvergenceMemo memo;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&memo, t] {
      for (int i = 0; i < 500; ++i) {
        const uint64_t key = static_cast<uint64_t>((i * 7 + t) % 64);
        const std::vector<uint8_t> blob = {static_cast<uint8_t>(key)};
        LoggedState state;
        state.cycles = key;
        memo.Insert(key, key, blob, state);
        LoggedState out;
        if (memo.Lookup(key, key, blob, &out)) {
          EXPECT_EQ(out.cycles, key);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(memo.size(), 64u);
}

// ---------------------------------------------------------------------------
// Golden trace construction.
// ---------------------------------------------------------------------------

TEST(ConvergenceTest, GoldenTraceBuildIsDeterministic) {
  db::Database db;
  CampaignStore store(&db);
  testcard::SimTestCard card;
  ASSERT_TRUE(store
                  .PutTargetSystem(ThorRdTarget::DescribeTarget(
                      card, ThorRdTarget::kTargetName))
                  .ok());
  const CampaignData campaign = ThorScifiCampaign("cv_trace");
  ASSERT_TRUE(store.PutCampaign(campaign).ok());
  ThorRdTarget target(&store, &card);
  ASSERT_TRUE(target.PrepareCampaign(campaign).ok());
  GoldenTrace first;
  ASSERT_TRUE(target.BuildGoldenRun(64, nullptr, &first).ok());
  EXPECT_EQ(first.interval(), 64u);
  EXPECT_EQ(first.campaign_name(), campaign.name);
  ASSERT_TRUE(first.has_final_state());
  EXPECT_TRUE(first.final_state().halted);
  ASSERT_GT(first.boundaries().size(), 2u);
  uint64_t previous = 0;
  for (size_t i = 0; i < first.boundaries().size(); ++i) {
    const GoldenBoundary& boundary = first.boundaries()[i];
    EXPECT_EQ(boundary.instret % 64, 0u) << "boundary " << i;
    if (i > 0) {
      EXPECT_GT(boundary.instret, previous) << "boundary " << i;
    }
    previous = boundary.instret;
    EXPECT_FALSE(boundary.blob.empty()) << "collision guard requires the blob";
  }
  EXPECT_EQ(first.boundaries().front().instret, 0u)
      << "capture must start at the experiment program point, instret 0";
  GoldenTrace second;
  ASSERT_TRUE(target.BuildGoldenRun(64, nullptr, &second).ok());
  ASSERT_EQ(first.boundaries().size(), second.boundaries().size());
  for (size_t i = 0; i < first.boundaries().size(); ++i) {
    EXPECT_EQ(first.boundaries()[i].instret, second.boundaries()[i].instret);
    EXPECT_EQ(first.boundaries()[i].hash, second.boundaries()[i].hash);
    EXPECT_EQ(first.boundaries()[i].blob, second.boundaries()[i].blob);
  }
  EXPECT_EQ(first.final_state().Serialize(), second.final_state().Serialize());
}

TEST(ConvergenceTest, BuildGoldenRunRejectsDegenerateArguments) {
  db::Database db;
  CampaignStore store(&db);
  ASSERT_TRUE(store.PutTargetSystem(SwifiSimTarget::Describe()).ok());
  const CampaignData campaign = SwifiRuntimeCampaign("cv_args");
  ASSERT_TRUE(store.PutCampaign(campaign).ok());
  SwifiSimTarget target(&store);
  ASSERT_TRUE(target.PrepareCampaign(campaign).ok());
  GoldenTrace trace;
  EXPECT_FALSE(target.BuildGoldenRun(0, nullptr, &trace).ok());
  EXPECT_FALSE(target.BuildGoldenRun(64, nullptr, nullptr).ok());
  EXPECT_TRUE(target.BuildGoldenRun(64, nullptr, &trace).ok());
  EXPECT_TRUE(trace.has_final_state());
}

// ---------------------------------------------------------------------------
// Pruned == unpruned, end to end.
// ---------------------------------------------------------------------------

TEST(ConvergenceTest, ScifiRegfilePrunedMatchesColdAtEveryInterval) {
  const CampaignData campaign = ThorScifiCampaign("cv_scifi");
  const RunResult cold = RunCold(campaign);
  EXPECT_EQ(cold.prune.boundary_checks, 0);
  for (uint64_t interval : {64ull, 4096ull}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    ExpectIdentical(cold, RunPrunedSerial(campaign, interval));
  }
  // Fast path off: the debug unit's stepped loop drives the checkpoint
  // pass, the trace pass and the experiments.
  SCOPED_TRACE("stepped");
  ExpectIdentical(cold, RunPrunedSerial(campaign, 64, /*force=*/true,
                                        /*fast=*/false));
}

TEST(ConvergenceTest, ScifiPipelineCampaignActuallyPrunes) {
  // Pipeline latches are overwritten every instruction, so several of the
  // eight transient flips must be masked and converge with golden. This is
  // the test that proves the machinery *fires*, not merely stays inert.
  const CampaignData campaign = ThorPipelineCampaign("cv_pipe");
  const RunResult cold = RunCold(campaign);
  const RunResult pruned = RunPrunedSerial(campaign, 64);
  EXPECT_GT(pruned.prune.boundary_checks, 0);
  EXPECT_GT(pruned.prune.pruned_golden, 0)
      << "masked pipeline flips must converge with the golden trace";
  ExpectIdentical(cold, pruned);
}

TEST(ConvergenceTest, ControlWorkloadPrunedMatchesCold) {
  // Environment-in-the-loop workload: the hash must cover the plant state,
  // the iteration count and the actuator CRC, or a pruned run would miss
  // faults that only perturb the environment.
  const CampaignData campaign = ThorControlCampaign("cv_env");
  const RunResult cold = RunCold(campaign);
  for (uint64_t interval : {64ull, 4096ull}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    ExpectIdentical(cold, RunPrunedSerial(campaign, interval));
  }
  SCOPED_TRACE("stepped");
  ExpectIdentical(cold, RunPrunedSerial(campaign, 64, /*force=*/true,
                                        /*fast=*/false));
}

TEST(ConvergenceTest, TimeoutAtBoundaryPrunedMatchesCold) {
  // A campaign timeout shorter than the golden run, with a boundary at every
  // instruction: each run times out on a step that also reaches a boundary.
  // Boundary stops (checkpoint captures, digests, comparisons) must not move
  // where a run times out.
  CampaignData campaign = ThorScifiCampaign("cv_timeout");
  campaign.timeout_cycles = 2000;
  campaign.inject_max_instr = 500;
  const RunResult cold = RunCold(campaign);
  ASSERT_FALSE(cold.rows.empty());
  EXPECT_TRUE(cold.rows.front().state.timed_out)
      << "the reference run must hit the timeout";
  for (bool fast : {true, false}) {
    SCOPED_TRACE(fast ? "fast" : "stepped");
    ExpectIdentical(cold, RunPrunedSerial(campaign, 1, /*force=*/true, fast));
  }
}

TEST(ConvergenceTest, DetailModePrunedSynthesizesGoldenSuffixRows) {
  // Detail mode logs one row per instruction: a pruned experiment must
  // splice the golden detail suffix after its convergence point so the
  // detail table stays byte-identical to a full run.
  CampaignData campaign = ThorPipelineCampaign("cv_detail");
  campaign.log_mode = LogMode::kDetail;
  campaign.num_experiments = 3;
  campaign.inject_max_instr = 200;
  const RunResult cold = RunCold(campaign);
  ASSERT_GT(cold.rows.size(), 4u) << "expected detail rows";
  const RunResult pruned = RunPrunedSerial(campaign, 64);
  EXPECT_GT(pruned.prune.pruned_golden, 0)
      << "detail-mode convergence must still prune";
  ExpectIdentical(cold, pruned);
}

TEST(ConvergenceTest, DetailModeRegfilePrunedMatchesCold) {
  CampaignData campaign = ThorScifiCampaign("cv_detail_rf");
  campaign.log_mode = LogMode::kDetail;
  campaign.num_experiments = 3;
  campaign.inject_max_instr = 200;
  ExpectIdentical(RunCold(campaign), RunPrunedSerial(campaign, 64));
}

TEST(ConvergenceTest, RuntimeSwifiPrunedMatchesColdAtEveryInterval) {
  const CampaignData campaign = SwifiRuntimeCampaign("cv_swifi");
  const RunResult cold = RunCold(campaign);
  for (uint64_t interval : {64ull, 4096ull}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    const RunResult pruned = RunPrunedSerial(campaign, interval);
    if (interval == 64) {
      // The fibonacci suffix is long enough to cross 64-instruction
      // boundaries after injection; at 4096 the run may end first.
      EXPECT_GT(pruned.prune.boundary_checks, 0);
    }
    ExpectIdentical(cold, pruned);
  }
}

TEST(ConvergenceTest, RuntimeSwifiSlowPathPrunedMatchesCold) {
  // Fast path off: boundary stops run through the reference Step() loop.
  const CampaignData campaign = SwifiRuntimeCampaign("cv_swifi_slow");
  ExpectIdentical(RunCold(campaign),
                  RunPrunedSerial(campaign, 64, /*force=*/true,
                                  /*fast=*/false));
}

TEST(ConvergenceTest, PreRuntimeSwifiPrunedMatchesCold) {
  const CampaignData campaign = SwifiPreRuntimeCampaign("cv_swifi_pre");
  const RunResult cold = RunCold(campaign);
  const RunResult pruned = RunPrunedSerial(campaign, 64);
  EXPECT_GT(pruned.prune.boundary_checks, 0)
      << "pre-runtime faults are injected before instret 0: every boundary "
         "is a comparison opportunity";
  ExpectIdentical(cold, pruned);
}

TEST(ConvergenceTest, PermanentStuckAtPreRuntimeSwifiPrunedMatchesCold) {
  // This target applies each fault exactly once (no reactivation machinery),
  // so permanent stuck-at is prunable here — a stuck-at writing the value
  // already present converges at the first boundary.
  CampaignData campaign = SwifiPreRuntimeCampaign("cv_swifi_perm");
  campaign.fault_model = FaultModelKind::kPermanentStuckAt;
  ExpectIdentical(RunCold(campaign), RunPrunedSerial(campaign, 64));
}

TEST(ConvergenceTest, IntermittentModelReactivationPrunedMatchesCold) {
  // Adversarial case: an intermittent fault re-activates *after* a boundary
  // where the faulty state happened to equal golden. The burst gate must
  // keep such experiments unpruned until the last activation has fired.
  CampaignData campaign = ThorPipelineCampaign("cv_intermittent");
  campaign.fault_model = FaultModelKind::kIntermittentBitFlip;
  const RunResult cold = RunCold(campaign);
  ExpectIdentical(cold, RunPrunedSerial(campaign, 64));
}

TEST(ConvergenceTest, PermanentModelNeverPrunesOnThor) {
  // A permanent stuck-at on the scan-chain target re-applies at every
  // reactivation for the rest of the run: the faulty future is NOT the
  // golden future even when the state momentarily matches. Pruning must
  // stay entirely disabled, and the results still identical.
  CampaignData campaign = ThorScifiCampaign("cv_perm");
  campaign.fault_model = FaultModelKind::kPermanentStuckAt;
  const RunResult cold = RunCold(campaign);
  const RunResult pruned = RunPrunedSerial(campaign, 64);
  EXPECT_EQ(pruned.prune.boundary_checks, 0);
  EXPECT_EQ(pruned.prune.pruned_total(), 0);
  ExpectIdentical(cold, pruned);
}

TEST(ConvergenceTest, ParallelPrunedSharesTraceAndMatchesCold) {
  const CampaignData campaign = ThorPipelineCampaign("cv_par");
  const RunResult cold = RunCold(campaign);
  for (int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunResult pruned = RunPrunedParallel(campaign, workers, 64);
    EXPECT_GT(pruned.prune.pruned_total(), 0);
    ExpectIdentical(cold, pruned);
  }
}

TEST(ConvergenceTest, ParallelPrunedSwifiMatchesCold) {
  const CampaignData campaign = SwifiRuntimeCampaign("cv_par_swifi");
  const RunResult cold = RunCold(campaign);
  const RunResult pruned = RunPrunedParallel(campaign, 8, 64);
  ExpectIdentical(cold, pruned);
}

TEST(ConvergenceTest, PrunedWithoutForcedWarmStartMatchesCold) {
  // Pruning is orthogonal to warm-start: with force off and early
  // injections the cache stays cold, yet the trace still prunes.
  const CampaignData campaign = ThorPipelineCampaign("cv_noforce");
  ExpectIdentical(RunCold(campaign),
                  RunPrunedSerial(campaign, 64, /*force=*/false));
}

// ---------------------------------------------------------------------------
// Fuzz tests (run under ASan by scripts/tier1.sh --gtest_filter=*Fuzz*).
// ---------------------------------------------------------------------------

struct Xorshift {
  uint64_t state;
  explicit Xorshift(uint64_t seed) : state(seed | 1) {}
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(ConvergenceFuzzTest, StateHasherFuzzBlobReproducesHash) {
  // The blob must be exactly the digested byte stream: replaying it through
  // a fresh hasher reproduces the hash regardless of how the original
  // stream was chunked into Append calls, and capture mode must not change
  // the digest.
  for (uint64_t seed : {1ull, 0x600F1ull, 0xDEADBEEFull}) {
    Xorshift rng(seed);
    cpu::StateHasher plain(false);
    cpu::StateHasher capturing(true);
    const int ops = 200 + static_cast<int>(rng.Next() % 200);
    for (int i = 0; i < ops; ++i) {
      const uint64_t value = rng.Next();
      switch (rng.Next() % 7) {
        case 0:
          plain.U8(static_cast<uint8_t>(value));
          capturing.U8(static_cast<uint8_t>(value));
          break;
        case 1:
          plain.U32(static_cast<uint32_t>(value));
          capturing.U32(static_cast<uint32_t>(value));
          break;
        case 2:
          plain.U64(value);
          capturing.U64(value);
          break;
        case 3:
          plain.I32(static_cast<int32_t>(value));
          capturing.I32(static_cast<int32_t>(value));
          break;
        case 4:
          plain.Bool(value & 1);
          capturing.Bool(value & 1);
          break;
        case 5: {
          const double d = static_cast<double>(value) * 1e-3;
          plain.Double(d);
          capturing.Double(d);
          break;
        }
        default: {
          const std::string s(value % 32, static_cast<char>('a' + value % 26));
          plain.Str(s);
          capturing.Str(s);
          break;
        }
      }
    }
    EXPECT_EQ(plain.hash(), capturing.hash())
        << "capture mode must not perturb the digest";
    EXPECT_TRUE(plain.blob().empty());
    const std::vector<uint8_t> blob = capturing.blob();
    ASSERT_FALSE(blob.empty());
    cpu::StateHasher replay(false);
    replay.Bytes(blob.data(), blob.size());
    EXPECT_EQ(replay.hash(), capturing.hash())
        << "blob is not the exact digested stream";
    // Perturb one byte: the digest must move (FNV-1a mixes every byte).
    std::vector<uint8_t> corrupted = blob;
    corrupted[rng.Next() % corrupted.size()] ^= 0x40;
    cpu::StateHasher other(false);
    other.Bytes(corrupted.data(), corrupted.size());
    EXPECT_NE(other.hash(), capturing.hash());
  }
}

TEST(ConvergenceFuzzTest, MemoryCanonicalHashFuzzIsContentOnly) {
  // The canonical memory digest must be a function of contents alone:
  // invariant under dirty-bit scrubbing, under checkpoint save/restore, and
  // under writing a word away from and back to its current value.
  for (uint64_t seed : {3ull, 0xBADF00Dull}) {
    Xorshift rng(seed);
    cpu::Memory memory(32 * 1024);
    for (int i = 0; i < 512; ++i) {
      ASSERT_TRUE(memory
                      .HostWrite(static_cast<uint32_t>((rng.Next() % 8192) * 4),
                                 static_cast<uint32_t>(rng.Next()))
                      .ok());
    }
    memory.MarkCleanBaseline();
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(memory
                      .HostWrite(static_cast<uint32_t>((rng.Next() % 8192) * 4),
                                 static_cast<uint32_t>(rng.Next()))
                      .ok());
    }
    cpu::StateHasher reference(true);
    memory.HashCanonicalState(&reference, /*scrub_clean_pages=*/false);

    cpu::StateHasher scrubbing(false);
    memory.HashCanonicalState(&scrubbing, /*scrub_clean_pages=*/true);
    EXPECT_EQ(scrubbing.hash(), reference.hash());
    cpu::StateHasher after_scrub(true);
    memory.HashCanonicalState(&after_scrub, /*scrub_clean_pages=*/false);
    EXPECT_EQ(after_scrub.hash(), reference.hash());
    EXPECT_EQ(after_scrub.blob(), reference.blob());

    // Round-trip through a checkpoint delta.
    const cpu::Memory::Delta delta = memory.CaptureDelta();
    for (int i = 0; i < 128; ++i) {
      ASSERT_TRUE(memory
                      .HostWrite(static_cast<uint32_t>((rng.Next() % 8192) * 4),
                                 static_cast<uint32_t>(rng.Next()))
                      .ok());
    }
    memory.RestoreDelta(delta);
    cpu::StateHasher restored(true);
    memory.HashCanonicalState(&restored, /*scrub_clean_pages=*/false);
    EXPECT_EQ(restored.hash(), reference.hash());
    EXPECT_EQ(restored.blob(), reference.blob());

    // Dirty a word without changing it (write away, write back): the hash
    // must not see the excursion.
    const uint32_t address = static_cast<uint32_t>((rng.Next() % 8192) * 4);
    const uint32_t original = memory.HostRead(address).ValueOrDie();
    ASSERT_TRUE(memory.HostWrite(address, ~original).ok());
    ASSERT_TRUE(memory.HostWrite(address, original).ok());
    cpu::StateHasher excursion(true);
    memory.HashCanonicalState(&excursion, /*scrub_clean_pages=*/false);
    EXPECT_EQ(excursion.hash(), reference.hash());
    EXPECT_EQ(excursion.blob(), reference.blob());
  }
}

}  // namespace
}  // namespace goofi::core
