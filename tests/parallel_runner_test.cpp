// Determinism and semantics tests for core::ParallelCampaignRunner.
//
// The headline property: a parallel campaign run leaves the database
// byte-identical to a serial FaultInjectionAlgorithms::RunCampaign of the
// same campaign — same LoggedSystemState rows (names, experimentData,
// stateVector), same insertion order, same Stats — at any worker count.
// The identity matrix at the end runs every shell run command through the
// one campaign loop, inline and threaded, against a cold serial run.
#include "core/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <list>
#include <sstream>
#include <stdexcept>

#include "core/goofi.hpp"
#include "core/static_analysis.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"
#include "tool/shell.hpp"

namespace goofi::core {
namespace {

CampaignData ScifiCampaign() {
  CampaignData campaign;
  campaign.name = "par_scifi";
  campaign.target_name = ThorRdTarget::kTargetName;
  campaign.technique = Technique::kScifi;
  campaign.num_experiments = 12;
  campaign.workload = "bubblesort";
  campaign.locations = {{"internal_regfile", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 1000;
  campaign.timeout_cycles = 100000;
  return campaign;
}

CampaignData SwifiCampaign() {
  CampaignData campaign;
  campaign.name = "par_swifi";
  campaign.target_name = SwifiSimTarget::kTargetName;
  campaign.technique = Technique::kSwifiPreRuntime;
  campaign.num_experiments = 12;
  campaign.workload = "fibonacci";
  campaign.locations = {{"memory.text", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 500;
  campaign.timeout_cycles = 100000;
  return campaign;
}

/// Everything a run leaves behind that determinism is asserted over.
struct RunResult {
  util::Status status;
  std::vector<CampaignStore::ExperimentRow> rows;  ///< insertion order
  FaultInjectionAlgorithms::Stats stats;
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
                     const std::string& campaign_name) {
    RunResult result;
    result.status = std::move(status);
    result.stats = stats;
    auto rows = store.ExperimentsOf(campaign_name);
    if (rows.ok()) result.rows = std::move(rows).value();
    const std::string path =
        testing::TempDir() + "goofi_parallel_" +
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

ParallelCampaignRunner::TargetFactory FactoryFor(const CampaignData& campaign,
                                                 CampaignStore* store) {
  return campaign.target_name == ThorRdTarget::kTargetName
             ? MakeSimThorFactory(store)
             : MakeSwifiSimFactory(store);
}

RunResult RunSerial(const CampaignData& campaign,
                    ProgressMonitor* monitor = nullptr) {
  Session session(campaign);
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    testcard::SimTestCard card;
    ThorRdTarget target(&session.store, &card);
    target.SetProgressMonitor(monitor);
    return session.Snapshot(target.RunCampaign(campaign.name), target.stats(),
                            campaign.name);
  }
  SwifiSimTarget target(&session.store);
  target.SetProgressMonitor(monitor);
  return session.Snapshot(target.RunCampaign(campaign.name), target.stats(),
                          campaign.name);
}

RunResult RunParallel(const CampaignData& campaign, int workers,
                      ProgressMonitor* monitor = nullptr) {
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store,
                                FactoryFor(campaign, &session.store), workers);
  runner.SetProgressMonitor(monitor);
  return session.Snapshot(runner.Run(campaign.name), runner.stats(),
                          campaign.name);
}

/// Rows and database bytes only: a shell command reports no Stats.
void ExpectSameRows(const RunResult& serial, const RunResult& parallel) {
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].experiment_name, parallel.rows[i].experiment_name)
        << "row " << i << " out of order";
    EXPECT_EQ(serial.rows[i].parent_experiment,
              parallel.rows[i].parent_experiment);
    EXPECT_EQ(serial.rows[i].experiment_data, parallel.rows[i].experiment_data);
    EXPECT_EQ(serial.rows[i].state.Serialize(),
              parallel.rows[i].state.Serialize());
  }
  EXPECT_EQ(serial.db_bytes, parallel.db_bytes)
      << "database files must be byte-identical";
}

void ExpectIdentical(const RunResult& serial, const RunResult& parallel) {
  ExpectSameRows(serial, parallel);
  EXPECT_EQ(serial.stats, parallel.stats);
}

TEST(ParallelRunnerTest, ScifiMatchesSerialAtEveryWorkerCount) {
  const CampaignData campaign = ScifiCampaign();
  const RunResult serial = RunSerial(campaign);
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectIdentical(serial, RunParallel(campaign, workers));
  }
}

TEST(ParallelRunnerTest, SwifiPreRuntimeMatchesSerialAtEveryWorkerCount) {
  const CampaignData campaign = SwifiCampaign();
  const RunResult serial = RunSerial(campaign);
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectIdentical(serial, RunParallel(campaign, workers));
  }
}

TEST(ParallelRunnerTest, CommitBatchSizeDoesNotAffectContents) {
  // One worker runs inline and commits every experiment on its own; more
  // workers commit 64-row batches, and 70 experiments span two of them.
  CampaignData campaign = ScifiCampaign();
  campaign.num_experiments = 70;
  const RunResult serial = RunSerial(campaign);
  ExpectIdentical(serial, RunParallel(campaign, 1));
  ExpectIdentical(serial, RunParallel(campaign, 4));
}

TEST(ParallelRunnerTest, DetailModeRowsCommitInOrder) {
  CampaignData campaign = ScifiCampaign();
  campaign.name = "par_detail";
  campaign.log_mode = LogMode::kDetail;
  campaign.num_experiments = 3;
  campaign.inject_max_instr = 200;
  const RunResult serial = RunSerial(campaign);
  // Detail rows reference their main row via parentExperiment — the batched
  // insert path must resolve those intra-batch foreign keys.
  ASSERT_GT(serial.rows.size(), 4u) << "expected detail rows";
  ExpectIdentical(serial, RunParallel(campaign, 2));
}

TEST(ParallelRunnerTest, ResumeSkipsLoggedExperimentsAndCompletesCampaign) {
  const CampaignData campaign = ScifiCampaign();

  // A full serial run is the reference picture.
  const RunResult full = RunSerial(campaign);

  // Serially run the first 5 experiments, then let the parallel runner
  // resume the rest in the same session.
  Session session(campaign);
  testcard::SimTestCard card;
  ThorRdTarget target(&session.store, &card);
  CountingMonitor stopper(/*limit=*/5);
  target.SetProgressMonitor(&stopper);
  ASSERT_TRUE(target.RunCampaign(campaign.name).ok());
  ASSERT_EQ(target.stats().experiments_run, 5);

  ParallelCampaignRunner runner(&session.store,
                                MakeSimThorFactory(&session.store), 3);
  const RunResult resumed =
      session.Snapshot(runner.Run(campaign.name), runner.stats(), campaign.name);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.stats.experiments_resumed, 5);
  EXPECT_EQ(resumed.stats.experiments_run, campaign.num_experiments - 5);
  EXPECT_EQ(full.db_bytes, resumed.db_bytes);
}

TEST(ParallelRunnerTest, EarlyStopMatchesSeriallyStoppedRun) {
  const CampaignData campaign = ScifiCampaign();
  CountingMonitor serial_stopper(/*limit=*/4);
  const RunResult serial = RunSerial(campaign, &serial_stopper);
  CountingMonitor parallel_stopper(/*limit=*/4);
  const RunResult parallel =
      RunParallel(campaign, 4, &parallel_stopper);
  EXPECT_EQ(parallel_stopper.calls(), 4);
  ExpectIdentical(serial, parallel);
  EXPECT_EQ(parallel.stats.experiments_run, 4);
}

TEST(ParallelRunnerTest, ProgressCallbacksArriveInExperimentOrder) {
  class OrderMonitor final : public ProgressMonitor {
   public:
    bool OnExperiment(int done, int, const LoggedState&) override {
      ordered_ = ordered_ && done == last_ + 1;
      last_ = done;
      return true;
    }
    bool ordered() const { return ordered_; }
    int last() const { return last_; }

   private:
    bool ordered_ = true;
    int last_ = 0;
  };
  OrderMonitor monitor;
  const CampaignData campaign = ScifiCampaign();
  const RunResult result =
      RunParallel(campaign, 8, &monitor);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(monitor.ordered());
  EXPECT_EQ(monitor.last(), campaign.num_experiments);
}

TEST(ParallelRunnerTest, DefaultWorkersIsPositive) {
  EXPECT_GE(ParallelCampaignRunner::DefaultWorkers(), 1);
}

TEST(ParallelRunnerTest, UnknownCampaignFails) {
  CampaignData campaign = ScifiCampaign();
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store,
                                MakeSimThorFactory(&session.store), 2);
  EXPECT_FALSE(runner.Run("ghost").ok());
}

TEST(ParallelRunnerTest, BadLocationSelectorFailsBeforeDispatch) {
  CampaignData campaign = ScifiCampaign();
  campaign.name = "par_bad";
  campaign.locations = {{"no_such_chain", ""}};
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store,
                                MakeSimThorFactory(&session.store), 2);
  EXPECT_FALSE(runner.Run(campaign.name).ok());
}

TEST(ParallelRunnerTest, LivenessFilterStatsMatchSerial) {
  const CampaignData campaign = ScifiCampaign();
  auto analyzer =
      LivenessAnalyzer::Build(campaign.workload, cpu::CpuConfig()).ValueOrDie();

  Session serial_session(campaign);
  testcard::SimTestCard card;
  ThorRdTarget target(&serial_session.store, &card);
  target.SetLivenessFilter(analyzer->MakeFilter());
  const RunResult serial = serial_session.Snapshot(
      target.RunCampaign(campaign.name), target.stats(), campaign.name);

  Session parallel_session(campaign);
  ParallelCampaignRunner runner(
      &parallel_session.store, MakeSimThorFactory(&parallel_session.store), 4);
  runner.SetLivenessFilter(analyzer->MakeFilter());
  const RunResult parallel = parallel_session.Snapshot(
      runner.Run(campaign.name), runner.stats(), campaign.name);

  ASSERT_TRUE(serial.stats.injections_skipped_dead > 0);
  ExpectIdentical(serial, parallel);
}

/// A Thor stack that throws — as a user-written target, or one that runs out
/// of memory, might — when it runs the experiment whose experimentData is
/// `poison`. With `ran` set it also records the experimentData of every run
/// it completes.
class ThrowingThorStack final : public ThorRdTarget {
 public:
  ThrowingThorStack(CampaignStore* store,
                    std::unique_ptr<testcard::SimTestCard> card,
                    std::string poison, std::vector<std::string>* ran = nullptr)
      : ThorRdTarget(store, card.get()),
        card_(std::move(card)),
        poison_(std::move(poison)),
        ran_(ran) {}

 protected:
  util::Result<LoggedState> CollectState() override {
    const std::string data = ExperimentData(campaign_.technique, faults_);
    if (data == poison_) throw std::runtime_error("target lost");
    if (ran_ != nullptr) ran_->push_back(data);
    return ThorRdTarget::CollectState();
  }

 private:
  std::unique_ptr<testcard::SimTestCard> card_;
  std::string poison_;
  std::vector<std::string>* ran_;
};

/// A runner over `session` whose targets are ThrowingThorStacks poisoned
/// with `poison`.
ParallelCampaignRunner ThrowingRunner(Session* session,
                                      const std::string& poison, int workers) {
  CampaignStore* store = &session->store;
  return ParallelCampaignRunner(
      store,
      [store, poison]() -> std::unique_ptr<FaultInjectionAlgorithms> {
        return std::make_unique<ThrowingThorStack>(
            store, std::make_unique<testcard::SimTestCard>(), poison);
      },
      workers);
}

TEST(ParallelRunnerTest,
     ThrowingTargetEndsTheRunWithAnErrorAtEveryWorkerCount) {
  const CampaignData campaign = ScifiCampaign();
  constexpr int kPoisoned = 5;
  const std::string poisoned_name =
      CampaignStore::ExperimentName(campaign.name, kPoisoned);
  std::string poison;
  for (const CampaignStore::ExperimentRow& row : RunSerial(campaign).rows) {
    if (row.experiment_name == poisoned_name) poison = row.experiment_data;
  }
  ASSERT_NE(poison, "");
  // The picture to match: a serial run stopped right before the poisoned
  // experiment.
  CountingMonitor stopper(/*limit=*/kPoisoned);
  const RunResult stopped = RunSerial(campaign, &stopper);
  ASSERT_TRUE(stopped.status.ok()) << stopped.status.ToString();
  for (const CampaignStore::ExperimentRow& row : stopped.rows) {
    ASSERT_NE(row.experiment_data, poison) << "the fault list must be unique";
  }

  for (int workers : {1, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Session session(campaign);
    ParallelCampaignRunner runner = ThrowingRunner(&session, poison, workers);
    const RunResult result = session.Snapshot(runner.Run(campaign.name),
                                              runner.stats(), campaign.name);
    EXPECT_EQ(result.status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(result.status.message(),
              "experiment " + poisoned_name + " threw: target lost");
    EXPECT_EQ(result.stats, stopped.stats);
    EXPECT_EQ(result.db_bytes, stopped.db_bytes)
        << "the experiments before the throw must be committed, in order";
  }
}

// The committer's own target calls — the reference run, fault-list planning
// under classing and the live re-execution of a capped class's members (at
// the end of the spot-check section) — end the run with the same kind of
// status as a worker's.

TEST(ParallelRunnerTest,
     ThrowingReferenceRunEndsTheRunWithAnErrorAtEveryWorkerCount) {
  const CampaignData campaign = ScifiCampaign();
  const std::string reference = CampaignStore::ReferenceName(campaign.name);
  std::string poison;
  for (const CampaignStore::ExperimentRow& row : RunSerial(campaign).rows) {
    if (row.experiment_name == reference) poison = row.experiment_data;
  }
  ASSERT_NE(poison, "");
  // A serial run that fails at the reference run logs nothing.
  const RunResult nothing = Session(campaign).Snapshot(
      util::Status::Ok(), FaultInjectionAlgorithms::Stats{}, campaign.name);

  for (int workers : {1, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Session session(campaign);
    ParallelCampaignRunner runner = ThrowingRunner(&session, poison, workers);
    const RunResult result = session.Snapshot(runner.Run(campaign.name),
                                              runner.stats(), campaign.name);
    EXPECT_EQ(result.status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(result.status.message(),
              "experiment " + reference + " threw: target lost");
    EXPECT_EQ(result.stats, nothing.stats);
    EXPECT_EQ(result.db_bytes, nothing.db_bytes);
  }
}

TEST(ParallelRunnerTest,
     ThrowingFaultPlanningEndsTheRunWithAnErrorAtEveryWorkerCount) {
  const CampaignData campaign = ScifiCampaign();
  constexpr int kPoisoned = 5;
  const RunResult serial = RunSerial(campaign);
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  // Each experiment draws one fault; the liveness filter sees every draw.
  auto fault_of = [&](int i) {
    const std::string name = CampaignStore::ExperimentName(campaign.name, i);
    for (const CampaignStore::ExperimentRow& row : serial.rows) {
      if (row.experiment_name != name) continue;
      const std::string& data = row.experiment_data;
      return FaultInstance::Parse(data.substr(data.find("faults=") + 7))
          .ValueOrDie();
    }
    ADD_FAILURE() << "no row " << name;
    return FaultInstance();
  };
  const FaultInstance poison = fault_of(kPoisoned);
  auto is_poison = [poison](const std::string& cell, uint32_t chain_bit,
                            uint64_t inject_instr) {
    return cell == poison.cell_name && chain_bit == poison.chain_bit &&
           inject_instr == poison.inject_instr;
  };
  for (int i = 0; i < campaign.num_experiments; ++i) {
    if (i == kPoisoned) continue;
    const FaultInstance f = fault_of(i);
    ASSERT_FALSE(is_poison(f.cell_name, f.chain_bit, f.inject_instr))
        << "the poisoned draw must be unique";
  }
  // Planning runs before the first experiment, so a failed plan logs the
  // reference run only, as a plan that fails with an error status does.
  Session expected(campaign);
  ASSERT_TRUE(expected.store.PutExperiments({serial.rows.front()}).ok());
  const RunResult reference_only = expected.Snapshot(
      util::Status::Ok(), FaultInjectionAlgorithms::Stats{}, campaign.name);
  ASSERT_EQ(reference_only.rows.size(), 1u);
  ASSERT_EQ(reference_only.rows[0].experiment_name,
            CampaignStore::ReferenceName(campaign.name));

  for (int workers : {1, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Session session(campaign);
    ParallelCampaignRunner runner(&session.store,
                                  MakeSimThorFactory(&session.store), workers);
    runner.SetEquivalenceClassing(true);
    runner.SetLivenessFilter(
        [is_poison](const FaultCandidate& candidate, uint64_t inject_instr) {
          if (is_poison(candidate.cell_name, candidate.chain_bit,
                        inject_instr)) {
            throw std::runtime_error("fault space lost");
          }
          return true;
        });
    const RunResult result = session.Snapshot(runner.Run(campaign.name),
                                              runner.stats(), campaign.name);
    EXPECT_EQ(result.status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(result.status.message(),
              "experiment " +
                  CampaignStore::ExperimentName(campaign.name, kPoisoned) +
                  " threw: fault space lost");
    EXPECT_EQ(result.stats, reference_only.stats);
    EXPECT_EQ(result.db_bytes, reference_only.db_bytes);
  }
}

// --- spot checks on the worker targets -----------------------------------------
//
// Spot checks re-execute one synthesized member of every n-th multi-member
// class: inline on the one target after the last commit, threaded on the
// worker targets once the classes are dispatched. Either way the same members
// are checked, in class order, with the same verdict.

CampaignData SpotCheckCampaign() {
  CampaignData campaign = ScifiCampaign();
  campaign.name = "spot_scifi";
  // Many flips into one register collide in (bit, access window) classes.
  campaign.locations = {{"internal_regfile", "regfile.r2"}};
  campaign.num_experiments = 40;
  campaign.inject_max_instr = 400;
  return campaign;
}

/// A Thor stack whose logged cycle count is skewed by the fault's injection
/// time. Its rows are still a function of the experiment alone, whichever
/// target runs it, but a synthesized member carries its representative's
/// skew and so differs from its own live re-execution.
class SkewedThorStack final : public ThorRdTarget {
 public:
  SkewedThorStack(CampaignStore* store,
                  std::unique_ptr<testcard::SimTestCard> card)
      : ThorRdTarget(store, card.get()), card_(std::move(card)) {}

 protected:
  util::Result<LoggedState> CollectState() override {
    auto state = ThorRdTarget::CollectState();
    if (state.ok() && !faults_.empty()) {
      state.value().cycles += faults_.front().inject_instr;
    }
    return state;
  }

 private:
  std::unique_ptr<testcard::SimTestCard> card_;
};

struct SpotCheckRun {
  RunResult result;
  EquivalenceStats dedup;
};

/// Builds a run's target factory over that run's own store.
using FactoryMaker =
    std::function<ParallelCampaignRunner::TargetFactory(CampaignStore*)>;

ParallelCampaignRunner::TargetFactory SkewedFactory(CampaignStore* store) {
  return [store]() -> std::unique_ptr<FaultInjectionAlgorithms> {
    return std::make_unique<SkewedThorStack>(
        store, std::make_unique<testcard::SimTestCard>());
  };
}

SpotCheckRun RunClassed(const CampaignData& campaign, int workers,
                        const FactoryMaker& make_factory,
                        int spot_check_every,
                        ProgressMonitor* monitor = nullptr) {
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store, make_factory(&session.store),
                                workers);
  runner.SetProgressMonitor(monitor);
  runner.SetEquivalenceClassing(true);
  runner.SetSpotCheckEvery(spot_check_every);
  runner.SetEquivalenceTimeline(
      LivenessAnalyzer::Build(campaign.workload, cpu::CpuConfig()).ValueOrDie());
  util::Status status = runner.Run(campaign.name);
  SpotCheckRun run;
  run.dedup = runner.dedup_stats();
  run.result =
      session.Snapshot(std::move(status), runner.stats(), campaign.name);
  return run;
}

TEST(SpotCheckTest, MismatchFailsTheRunAtEveryWorkerCount) {
  const CampaignData campaign = SpotCheckCampaign();
  const SpotCheckRun inline_run =
      RunClassed(campaign, 1, SkewedFactory, /*spot_check_every=*/1);
  const util::Status& failed = inline_run.result.status;
  ASSERT_EQ(failed.code(), util::StatusCode::kInternal) << failed.ToString();
  EXPECT_NE(failed.message().find("equivalence spot check failed"),
            std::string::npos)
      << failed.ToString();
  ASSERT_GT(inline_run.dedup.classes_formed, 0);
  EXPECT_EQ(inline_run.dedup.spot_checks_passed + 1,
            inline_run.dedup.spot_checks_run)
      << "the run stops at the first mismatch";
  // Every experiment committed before the verdict, as the serial path does.
  EXPECT_EQ(inline_run.result.rows.size(),
            static_cast<size_t>(campaign.num_experiments + 1));

  for (int workers : {2, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const SpotCheckRun threaded =
        RunClassed(campaign, workers, SkewedFactory, /*spot_check_every=*/1);
    EXPECT_EQ(threaded.result.status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(threaded.result.status.message(), failed.message())
        << "the same member must fail first";
    EXPECT_EQ(threaded.dedup, inline_run.dedup);
    EXPECT_EQ(threaded.result.stats, inline_run.result.stats);
    EXPECT_EQ(threaded.result.db_bytes, inline_run.result.db_bytes)
        << "the committed prefix must equal the serial path's";
  }
}

TEST(SpotCheckTest, EarlyStopSkipsTheChecksAtEveryWorkerCount) {
  // Stopped after 30 of 40 experiments, several classes have come up and
  // been selected, and threaded workers may be re-executing them; the stop
  // must still end the run cleanly, with the serial path's rows and no
  // verdict (the skewed target would fail any check that ran to a compare).
  const CampaignData campaign = SpotCheckCampaign();
  CountingMonitor inline_stopper(/*limit=*/30);
  const SpotCheckRun inline_run = RunClassed(
      campaign, 1, SkewedFactory, /*spot_check_every=*/1, &inline_stopper);
  ASSERT_TRUE(inline_run.result.status.ok())
      << inline_run.result.status.ToString();
  EXPECT_EQ(inline_run.result.stats.experiments_run, 30);
  EXPECT_EQ(inline_run.dedup.spot_checks_run, 0);
  for (int workers : {2, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CountingMonitor stopper(/*limit=*/30);
    const SpotCheckRun threaded = RunClassed(
        campaign, workers, SkewedFactory, /*spot_check_every=*/1, &stopper);
    ASSERT_TRUE(threaded.result.status.ok())
        << threaded.result.status.ToString();
    EXPECT_EQ(stopper.calls(), 30);
    EXPECT_EQ(threaded.dedup.spot_checks_run, 0);
    EXPECT_EQ(threaded.result.stats, inline_run.result.stats);
    EXPECT_EQ(threaded.result.db_bytes, inline_run.result.db_bytes);
  }
}

TEST(SpotCheckTest, SameChecksAtEveryWorkerCount) {
  const CampaignData campaign = SpotCheckCampaign();
  const FactoryMaker plain = [](CampaignStore* store) {
    return MakeSimThorFactory(store);
  };
  const SpotCheckRun inline_run =
      RunClassed(campaign, 1, plain, /*spot_check_every=*/2);
  ASSERT_TRUE(inline_run.result.status.ok())
      << inline_run.result.status.ToString();
  ASSERT_GT(inline_run.dedup.spot_checks_run, 1);
  EXPECT_EQ(inline_run.dedup.spot_checks_passed,
            inline_run.dedup.spot_checks_run);
  for (int workers : {2, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const SpotCheckRun threaded =
        RunClassed(campaign, workers, plain, /*spot_check_every=*/2);
    ASSERT_TRUE(threaded.result.status.ok())
        << threaded.result.status.ToString();
    EXPECT_EQ(threaded.dedup.classes_formed, inline_run.dedup.classes_formed);
    EXPECT_EQ(threaded.dedup.spot_checks_run,
              inline_run.dedup.spot_checks_run);
    EXPECT_EQ(threaded.dedup.spot_checks_passed,
              inline_run.dedup.spot_checks_passed);
    EXPECT_EQ(threaded.result.db_bytes, inline_run.result.db_bytes);
  }
}

/// A detail-mode campaign whose detail logs all hit the row cap: the
/// pendulum runs far more than kMaxDetailRows instructions past every
/// injection. Flips into one bit of r7, which the pendulum never accesses,
/// are equivalent at any time; at this seed e0000 and a later injection in
/// e0001 flip the same bit, so e0001 is a member of e0000's capped class. No
/// chain is observed, so the rows stay small.
CampaignData CappedCampaign() {
  CampaignData campaign = SpotCheckCampaign();
  campaign.name = "capped";
  campaign.workload = "pendulum_pd";
  campaign.locations = {{"internal_regfile", "regfile.r7"}};
  campaign.max_iterations = 1600;
  campaign.log_mode = LogMode::kDetail;
  campaign.observe_chains = {};
  campaign.num_experiments = 3;
  campaign.inject_max_instr = 60;
  campaign.timeout_cycles = 10'000'000;
  campaign.seed = 62;
  return campaign;
}

TEST(SpotCheckTest, ThrowingLiveRunOfACappedMemberEndsTheRunWithAnError) {
  const CampaignData campaign = CappedCampaign();
  const std::shared_ptr<const LivenessAnalyzer> timeline =
      LivenessAnalyzer::Build(campaign.workload, cpu::CpuConfig(), 200000,
                              campaign.max_iterations)
          .ValueOrDie();
  // Runs the campaign classed over ThrowingThorStacks poisoned with
  // `poison`; each target built records the runs it completes in `ran`.
  auto run = [&](const std::string& poison, int workers,
                 std::list<std::vector<std::string>>* ran) {
    Session session(campaign);
    CampaignStore* store = &session.store;
    ParallelCampaignRunner runner(
        store,
        [store, &poison, ran]() -> std::unique_ptr<FaultInjectionAlgorithms> {
          return std::make_unique<ThrowingThorStack>(
              store, std::make_unique<testcard::SimTestCard>(), poison,
              &ran->emplace_back());
        },
        workers);
    runner.SetEquivalenceClassing(true);
    runner.SetEquivalenceTimeline(timeline);
    util::Status status = runner.Run(campaign.name);
    return session.Snapshot(std::move(status), runner.stats(), campaign.name);
  };
  constexpr int kPoisoned = 1;
  const std::string member =
      CampaignStore::ExperimentName(campaign.name, kPoisoned);
  std::string poison;
  {
    // Threaded, the committer has a target of its own, built last; under
    // classing it runs nothing but the members of capped classes.
    std::list<std::vector<std::string>> ran;
    const RunResult clean = run("", 3, &ran);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    for (const CampaignStore::ExperimentRow& row : clean.rows) {
      if (row.experiment_name == member) poison = row.experiment_data;
    }
    ASSERT_EQ(ran.size(), 4u) << "three workers and the committer";
    ASSERT_EQ(ran.back(), std::vector<std::string>{poison})
        << member << " is the one member run live";
  }
  CountingMonitor stopper(/*limit=*/kPoisoned);
  const RunResult stopped = RunSerial(campaign, &stopper);
  ASSERT_TRUE(stopped.status.ok()) << stopped.status.ToString();

  for (int workers : {1, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::list<std::vector<std::string>> unused;
    const RunResult result = run(poison, workers, &unused);
    EXPECT_EQ(result.status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(result.status.message(),
              "experiment " + member + " threw: target lost");
    EXPECT_EQ(result.stats, stopped.stats);
    EXPECT_EQ(result.db_bytes, stopped.db_bytes)
        << "the experiments before the throw must be committed, in order";
  }
}

// --- one loop, every run command --------------------------------------------
//
// Every shell run command and perfbench's every-reducer plan, each with one
// worker (inline) and three (threaded), must leave the rows of a cold serial
// run: one Thor SCIFI campaign on a control workload (iteration boundaries
// in the injection window), one runtime and one pre-runtime SWIFI campaign.
// Windows reach past the golden run's end so that some classes form.

CampaignData MatrixCampaign(Technique technique) {
  CampaignData campaign;
  campaign.technique = technique;
  campaign.num_experiments = 24;
  campaign.inject_min_instr = 1;
  if (technique == Technique::kScifi) {
    campaign.name = "mx_scifi";
    campaign.target_name = ThorRdTarget::kTargetName;
    campaign.workload = "pendulum_pd";
    campaign.locations = {{"internal_regfile", ""}, {"internal_core", ""}};
    campaign.max_iterations = 300;
    campaign.inject_max_instr = 5000;
    campaign.timeout_cycles = 20000;
  } else if (technique == Technique::kSwifiRuntime) {
    campaign.name = "mx_swifi_rt";
    campaign.target_name = SwifiSimTarget::kTargetName;
    campaign.workload = "bubblesort";
    campaign.locations = {{"memory.text", ""}, {"memory.data", ""}};
    campaign.inject_max_instr = 3000;
    campaign.timeout_cycles = 40000;
  } else {
    // Pre-runtime flips class by (address, bit) alone: a small data area
    // and more experiments make repeats likely.
    campaign.name = "mx_swifi_pre";
    campaign.target_name = SwifiSimTarget::kTargetName;
    campaign.workload = "bubblesort";
    campaign.locations = {{"memory.data", ""}};
    campaign.num_experiments = 64;
    campaign.timeout_cycles = 40000;
  }
  return campaign;
}

/// The cold serial reference: no checkpoints, no reducers.
RunResult RunCold(const CampaignData& campaign) {
  Session session(campaign);
  std::unique_ptr<FaultInjectionAlgorithms> target =
      FactoryFor(campaign, &session.store)();
  target->SetCheckpointInterval(0);
  util::Status status = target->RunCampaign(campaign.name);
  return session.Snapshot(std::move(status), target->stats(), campaign.name);
}

/// One shell command on a fresh session.
RunResult RunCommand(const CampaignData& campaign, const std::string& line) {
  Session session(campaign);
  std::unique_ptr<testcard::SimTestCard> card;
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    card = std::make_unique<testcard::SimTestCard>();
  }
  tool::Shell shell(&session.db, &session.store);
  shell.AddTarget(campaign.target_name, card.get(),
                  FactoryFor(campaign, &session.store));
  auto output = shell.Execute(line);
  return session.Snapshot(output.ok() ? util::Status::Ok() : output.status(),
                          {}, campaign.name);
}

/// perfbench's scifi-control plan: every exact reducer at once.
RunResult RunEveryReducer(const CampaignData& campaign, int workers,
                          int64_t* synthesized) {
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store,
                                FactoryFor(campaign, &session.store), workers);
  runner.SetForceWarmStart(true);
  runner.SetConvergencePruning(true);
  runner.SetEquivalenceClassing(true);
  runner.SetEquivalenceTimeline(
      LivenessAnalyzer::Build(campaign.workload, cpu::CpuConfig(),
                              std::max<uint64_t>(200000, campaign.timeout_cycles),
                              campaign.max_iterations)
          .ValueOrDie());
  runner.SetStaticAnalysis(StaticAnalysis::Build(campaign.workload).ValueOrDie());
  util::Status status = runner.Run(campaign.name);
  *synthesized = runner.dedup_stats().experiments_synthesized;
  return session.Snapshot(std::move(status), runner.stats(), campaign.name);
}

void ExpectEveryRunCommandMatchesColdSerialRun(const CampaignData& campaign) {
  const RunResult cold = RunCold(campaign);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  for (const char* command :
       {"run", "run-warm", "run-pruned", "run-dedup", "run-static"}) {
    for (const char* workers : {"1", "3"}) {
      std::string line = std::string(command) + " " + campaign.name + " " +
                         workers;
      // A short interval puts several checkpoint boundaries in the run.
      if (line.starts_with("run-warm") || line.starts_with("run-pruned")) {
        line += " 256";
      }
      SCOPED_TRACE(line);
      ExpectSameRows(cold, RunCommand(campaign, line));
    }
  }
  for (int workers : {1, 3}) {
    SCOPED_TRACE("every reducer, workers=" + std::to_string(workers));
    int64_t synthesized = 0;
    ExpectIdentical(cold, RunEveryReducer(campaign, workers, &synthesized));
    EXPECT_GT(synthesized, 0) << "the matrix must exercise row synthesis";
  }
}

TEST(OneLoopMatrixTest, ThorScifiOnControlWorkload) {
  ExpectEveryRunCommandMatchesColdSerialRun(MatrixCampaign(Technique::kScifi));
}

TEST(OneLoopMatrixTest, RuntimeSwifi) {
  ExpectEveryRunCommandMatchesColdSerialRun(
      MatrixCampaign(Technique::kSwifiRuntime));
}

TEST(OneLoopMatrixTest, PreRuntimeSwifi) {
  ExpectEveryRunCommandMatchesColdSerialRun(
      MatrixCampaign(Technique::kSwifiPreRuntime));
}

}  // namespace
}  // namespace goofi::core
