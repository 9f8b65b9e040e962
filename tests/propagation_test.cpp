// Tests for the error-propagation analysis over detail traces (§3.3) and
// for the campaign-resume behaviour (Fig. 7 "restart").
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <thread>
#include <tuple>

#include "analysis_reference.hpp"
#include "core/goofi.hpp"
#include "db/database.hpp"
#include "util/strings.hpp"
#include "testcard/testcard.hpp"

namespace goofi::core {
namespace {

class PropagationTest : public ::testing::Test {
 protected:
  PropagationTest() : store_(&db_), target_(&store_, &card_) {
    EXPECT_TRUE(store_
                    .PutTargetSystem(ThorRdTarget::DescribeTarget(
                        card_, ThorRdTarget::kTargetName))
                    .ok());
    CampaignData campaign;
    campaign.name = "prop";
    campaign.target_name = ThorRdTarget::kTargetName;
    campaign.workload = "fibonacci";
    campaign.locations = {{"internal_regfile", ""}};
    campaign.num_experiments = 12;
    campaign.inject_min_instr = 1;
    campaign.inject_max_instr = 80;
    campaign.timeout_cycles = 50000;
    EXPECT_TRUE(store_.PutCampaign(campaign).ok());
    EXPECT_TRUE(target_.FaultInjectorScifi("prop").ok());
    EXPECT_TRUE(target_.RerunDetailed(CampaignStore::ReferenceName("prop")).ok());
  }

  db::Database db_;
  CampaignStore store_;
  testcard::SimTestCard card_;
  ThorRdTarget target_;
};

TEST_F(PropagationTest, RequiresBothDetailTraces) {
  // Experiment trace missing.
  EXPECT_FALSE(AnalyzeErrorPropagation(store_, "prop/e0000").ok());
  ASSERT_TRUE(target_.RerunDetailed("prop/e0000").ok());
  EXPECT_TRUE(AnalyzeErrorPropagation(store_, "prop/e0000").ok());
}

TEST_F(PropagationTest, UnknownExperimentFails) {
  EXPECT_FALSE(AnalyzeErrorPropagation(store_, "prop/ghost").ok());
}

TEST_F(PropagationTest, EveryExperimentProducesConsistentReport) {
  for (int i = 0; i < 12; ++i) {
    const std::string name = util::Format("prop/e%04d", i);
    ASSERT_TRUE(target_.RerunDetailed(name).ok());
    const auto report = AnalyzeErrorPropagation(store_, name).ValueOrDie();
    EXPECT_GT(report.steps_compared, 0) << name;
    EXPECT_LE(report.diverged_steps, report.steps_compared) << name;
    if (report.first_divergence_step > 0) {
      EXPECT_LE(report.first_divergence_step, report.steps_compared) << name;
      EXPECT_GE(report.diverged_steps, 1) << name;
    } else {
      EXPECT_EQ(report.diverged_steps, 0) << name;
    }
    if (report.detection_step > 0 && report.first_divergence_step > 0) {
      EXPECT_GE(report.detection_latency_steps, 0) << name;
    }
    // The human-readable rendering never crashes and mentions the step count.
    EXPECT_NE(report.ToString().find("steps compared"), std::string::npos);
  }
}

TEST_F(PropagationTest, RegisterFaultDivergesVisiblyWhenEffective) {
  // Find an escaped experiment (wrong outputs): its trace must diverge.
  const auto reference = store_.GetExperiment("prop/ref").ValueOrDie();
  auto rows = store_.ExperimentsOf("prop").ValueOrDie();
  for (const auto& row : rows) {
    if (!row.parent_experiment.empty() ||
        row.experiment_name == reference.experiment_name) {
      continue;
    }
    const auto cls = Classify(reference.state, row.state);
    if (cls.outcome != Outcome::kEscaped) continue;
    ASSERT_TRUE(target_.RerunDetailed(row.experiment_name).ok());
    const auto report =
        AnalyzeErrorPropagation(store_, row.experiment_name).ValueOrDie();
    EXPECT_GT(report.first_divergence_step, 0) << row.experiment_name;
    return;
  }
  GTEST_SKIP() << "no escaped experiment in this campaign";
}

// --- the store's reference-trace memo ----------------------------------------

// Propagation as computed before the store memoized the reference trace:
// both traces loaded through DetailRowsOf on every call.
util::Result<std::map<uint64_t, LoggedState>> UnmemoizedTrace(
    const CampaignStore& store, const std::string& rerun_name) {
  auto rows = store.DetailRowsOf(rerun_name);
  if (!rows.ok()) return rows.status();
  std::map<uint64_t, LoggedState> trace;
  for (auto& row : rows.value()) {
    trace.emplace(row.state.instret, std::move(row.state));
  }
  if (trace.empty()) {
    return util::FailedPrecondition(
        "no detail trace under " + rerun_name +
        "; run RerunDetailed first (for the experiment and for the campaign "
        "reference)");
  }
  return trace;
}

util::Result<PropagationReport> UnmemoizedPropagation(
    const CampaignStore& store, const std::string& experiment_name) {
  auto experiment = store.GetExperiment(experiment_name);
  if (!experiment.ok()) return experiment.status();
  const std::string reference_name =
      CampaignStore::ReferenceName(experiment.value().campaign_name);
  auto faulty = UnmemoizedTrace(store, experiment_name + "/detail");
  if (!faulty.ok()) return faulty.status();
  auto golden = UnmemoizedTrace(store, reference_name + "/detail");
  if (!golden.ok()) return golden.status();

  PropagationReport report;
  int step = 0;
  for (const auto& [instret, state] : faulty.value()) {
    const auto ref = golden.value().find(instret);
    if (ref == golden.value().end()) {
      report.length_mismatch = true;
      break;
    }
    ++step;
    ++report.steps_compared;
    if (state.scan_images != ref->second.scan_images) {
      ++report.diverged_steps;
      if (report.first_divergence_step == 0) {
        report.first_divergence_step = step;
        report.first_divergence_instr = instret;
      }
    }
    if (state.detected && report.detection_step == 0) {
      report.detection_step = step;
      if (report.first_divergence_step != 0) {
        report.detection_latency_steps = step - report.first_divergence_step;
      }
    }
  }
  if (faulty.value().size() != golden.value().size()) {
    report.length_mismatch = true;
  }
  return report;
}

auto Fields(const PropagationReport& r) {
  return std::make_tuple(r.steps_compared, r.first_divergence_step,
                         r.first_divergence_instr, r.diverged_steps,
                         r.detection_step, r.detection_latency_steps,
                         r.length_mismatch);
}

class PropagationMemoTest : public PropagationTest {
 protected:
  static constexpr int kExperiments = 12;

  static std::string Name(int i) { return util::Format("prop/e%04d", i); }

  void RerunAll() {
    for (int i = 0; i < kExperiments; ++i) {
      ASSERT_TRUE(target_.RerunDetailed(Name(i)).ok()) << Name(i);
    }
  }

  /// The memoized report for `name`, checked against the unmemoized one.
  PropagationReport Checked(const std::string& name) {
    const auto memoized = AnalyzeErrorPropagation(store_, name);
    const auto fresh = UnmemoizedPropagation(store_, name);
    EXPECT_TRUE(memoized.ok()) << name << ": " << memoized.status().ToString();
    EXPECT_TRUE(fresh.ok()) << name << ": " << fresh.status().ToString();
    if (!memoized.ok() || !fresh.ok()) return {};
    EXPECT_EQ(Fields(memoized.value()), Fields(fresh.value())) << name;
    return memoized.value();
  }

  util::Status Sql(const std::string& sql, const std::vector<db::Value>& params) {
    return store_.statement_cache().Execute(db_, sql, params).status();
  }

  /// Rewrites the reference detail row at the instret of e0000's first
  /// traced step so that step's comparison flips: equal images become
  /// different and different ones equal.
  void FlipReferenceStep() {
    const auto faulty = store_.DetailRowsOf("prop/e0000/detail").ValueOrDie();
    ASSERT_FALSE(faulty.empty());
    const LoggedState& step = faulty.front().state;
    for (const auto& row : store_.DetailRowsOf("prop/ref/detail").ValueOrDie()) {
      if (row.state.instret != step.instret) continue;
      LoggedState changed = row.state;
      changed.scan_images = changed.scan_images == step.scan_images
                                ? std::map<std::string, std::string>{{"x", "1"}}
                                : step.scan_images;
      ASSERT_TRUE(Sql("UPDATE LoggedSystemState SET stateVector = ? "
                      "WHERE experimentName = ?",
                      {db::Value::Text(changed.Serialize()),
                       db::Value::Text(row.experiment_name)})
                      .ok());
      return;
    }
    FAIL() << "no reference step at instret " << step.instret;
  }
};

TEST_F(PropagationMemoTest, MemoizedReportsMatchUnmemoizedAlgorithm) {
  RerunAll();
  // Twice over: the first pass fills the memo, the second reuses it.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kExperiments; ++i) Checked(Name(i));
  }
}

TEST_F(PropagationMemoTest, FailuresAreNotMemoized) {
  CampaignData late = store_.GetCampaign("prop").ValueOrDie();
  late.name = "late";
  ASSERT_TRUE(store_.PutCampaign(late).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("late").ok());
  ASSERT_TRUE(target_.RerunDetailed("late/e0000").ok());
  ASSERT_TRUE(target_.RerunDetailed("prop/e0000").ok());
  Checked("prop/e0000");  // the memo now holds prop's trace

  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto missing = AnalyzeErrorPropagation(store_, "late/e0000");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), util::StatusCode::kFailedPrecondition);
  }
  ASSERT_TRUE(target_.RerunDetailed("late/ref").ok());
  Checked("late/e0000");
  Checked("prop/e0000");
}

TEST_F(PropagationMemoTest, SqlUpdateOfReferenceRowInvalidates) {
  ASSERT_TRUE(target_.RerunDetailed("prop/e0000").ok());
  const PropagationReport before = Checked("prop/e0000");
  FlipReferenceStep();
  const PropagationReport after = Checked("prop/e0000");
  EXPECT_NE(after.diverged_steps, before.diverged_steps);
}

TEST_F(PropagationMemoTest, DeletedReferenceTraceFailsPrecondition) {
  ASSERT_TRUE(target_.RerunDetailed("prop/e0000").ok());
  Checked("prop/e0000");
  ASSERT_TRUE(Sql("DELETE FROM LoggedSystemState WHERE parentExperiment = ?",
                  {db::Value::Text("prop/ref/detail")})
                  .ok());
  const auto report = AnalyzeErrorPropagation(store_, "prop/e0000");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(PropagationMemoTest, LoadOfEarlierSaveInvalidates) {
  ASSERT_TRUE(target_.RerunDetailed("prop/e0000").ok());
  const PropagationReport saved = Checked("prop/e0000");
  const std::string path = testing::TempDir() + "propagation_memo.db";
  ASSERT_TRUE(db_.Save(path).ok());
  FlipReferenceStep();
  const PropagationReport changed = Checked("prop/e0000");
  ASSERT_NE(changed.diverged_steps, saved.diverged_steps);
  const uint64_t memo_version = db_.GetTable("LoggedSystemState")->version();

  ASSERT_TRUE(db_.Load(path).ok());
  std::remove(path.c_str());
  ASSERT_TRUE(store_.EnsureSchema().ok());
  // Load rebuilds the table row by row, so one more insert brings its
  // version() back to the memo's: only the schema version differs now.
  ASSERT_TRUE(store_.PutExperiment("prop/extra", "", "prop", "", LoggedState()).ok());
  ASSERT_EQ(db_.GetTable("LoggedSystemState")->version(), memo_version);
  const PropagationReport loaded = Checked("prop/e0000");
  EXPECT_EQ(Fields(loaded), Fields(saved));
}

TEST_F(PropagationMemoTest, ConcurrentCallsOnOneConstStoreMatchSerial) {
  RerunAll();
  std::vector<PropagationReport> serial;
  for (int i = 0; i < kExperiments; ++i) serial.push_back(Checked(Name(i)));

  // A second store over the same database starts with an empty memo, so the
  // threads race to fill it.
  const CampaignStore shared(&db_);
  constexpr int kThreads = 4;
  std::vector<util::Result<PropagationReport>> results(
      kExperiments, util::Internal("not run"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &results, t] {
      for (int i = t; i < kExperiments; i += kThreads) {
        results[i] = AnalyzeErrorPropagation(shared, Name(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kExperiments; ++i) {
    ASSERT_TRUE(results[i].ok()) << Name(i) << ": "
                                 << results[i].status().ToString();
    EXPECT_EQ(Fields(results[i].value()), Fields(serial[i])) << Name(i);
  }
}

// --- in-place analysis against the copy-based one ----------------------------
//
// AnalyzeErrorPropagation walks the faulty trace in place;
// UnmemoizedPropagation above is the copy-based walk it replaced. Statuses,
// messages and reports must match, on real campaigns of every technique and
// on rows written by hand.

/// AnalyzeErrorPropagation(name) equals the copy-based walk, status included.
void ExpectPropagationMatches(const CampaignStore& store,
                              const std::string& name) {
  SCOPED_TRACE(name);
  testing_reference::ExpectSameResult(
      AnalyzeErrorPropagation(store, name), UnmemoizedPropagation(store, name),
      [](const PropagationReport& got, const PropagationReport& want) {
        EXPECT_EQ(Fields(got), Fields(want));
      });
}

TEST(InPlaceAnalysisTest, EveryTechniqueWithDetailReRunsMatchesCopyBased) {
  db::Database db;
  CampaignStore store(&db);
  testcard::SimTestCard card;
  ThorRdTarget thor(&store, &card);
  SwifiSimTarget swifi(&store);
  ASSERT_TRUE(store
                  .PutTargetSystem(ThorRdTarget::DescribeTarget(
                      card, ThorRdTarget::kTargetName))
                  .ok());
  ASSERT_TRUE(store.PutTargetSystem(SwifiSimTarget::Describe()).ok());
  struct Case {
    const char* name;
    Technique technique;
    const char* workload;
    std::vector<FaultLocationSelector> locations;
    FaultInjectionAlgorithms* target;
  };
  const Case cases[] = {
      {"scifi", Technique::kScifi, "fibonacci",
       {{"internal_regfile", ""}, {"internal_core", ""}}, &thor},
      {"preruntime", Technique::kSwifiPreRuntime, "fibonacci",
       {{"memory.text", ""}}, &swifi},
      {"runtime", Technique::kSwifiRuntime, "bubblesort",
       {{"memory.text", ""}, {"memory.data", ""}}, &swifi},
  };
  constexpr int kExperiments = 16;
  constexpr int kReRuns = 10;
  for (const Case& c : cases) {
    CampaignData campaign;
    campaign.name = c.name;
    campaign.target_name = c.target == &thor ? ThorRdTarget::kTargetName
                                             : SwifiSimTarget::kTargetName;
    campaign.technique = c.technique;
    campaign.workload = c.workload;
    campaign.locations = c.locations;
    campaign.num_experiments = kExperiments;
    campaign.inject_min_instr = 1;
    campaign.inject_max_instr = 300;
    campaign.timeout_cycles = 100000;
    ASSERT_TRUE(store.PutCampaign(campaign).ok());
    ASSERT_TRUE(c.target->RunCampaign(c.name).ok()) << c.name;
    ASSERT_TRUE(
        c.target->RerunDetailed(CampaignStore::ReferenceName(c.name)).ok());
    for (int i = 0; i < kReRuns; ++i) {
      ASSERT_TRUE(
          c.target->RerunDetailed(CampaignStore::ExperimentName(c.name, i))
              .ok());
    }
  }
  for (const Case& c : cases) {
    testing_reference::ExpectInPlaceAnalysisMatches(store, c.name);
    // Re-run experiments, experiments without a re-run, and names that are
    // not experiments.
    for (int i = 0; i < kExperiments; ++i) {
      ExpectPropagationMatches(store, CampaignStore::ExperimentName(c.name, i));
    }
    ExpectPropagationMatches(store, CampaignStore::ReferenceName(c.name));
    ExpectPropagationMatches(store, std::string(c.name) + "/ghost");
  }
  // SCIFI re-runs log traces to walk. The SWIFI targets log no detail rows,
  // so there both walks fail the same precondition.
  int walked = 0;
  for (int i = 0; i < kReRuns; ++i) {
    walked += AnalyzeErrorPropagation(
                  store, CampaignStore::ExperimentName("scifi", i))
                  .ok();
  }
  EXPECT_GT(walked, kReRuns / 2);
}

/// The reference trace of PropagationTest written back by hand as the trace
/// of prop/e0000, through SQL.
class HandWrittenTraceTest : public PropagationTest {
 protected:
  HandWrittenTraceTest()
      : steps_(store_.DetailRowsOf("prop/ref/detail").ValueOrDie()) {
    EXPECT_GT(steps_.size(), 20u);
    EXPECT_TRUE(Insert("prop/e0000/detail", "prop/e0000",
                       LoggedState().Serialize())
                    .ok());
  }

  util::Status Insert(const std::string& name, const std::string& parent,
                      const std::string& state_vector) {
    return store_.statement_cache()
        .Execute(db_, "INSERT INTO LoggedSystemState VALUES (?, ?, ?, ?, ?)",
                 {db::Value::Text(name), db::Value::Text(parent),
                  db::Value::Text("prop"), db::Value::Text("detail_step"),
                  db::Value::Text(state_vector)})
        .status();
  }

  /// Appends one detail row of prop/e0000's trace.
  void Step(const std::string& state_vector) {
    ASSERT_TRUE(Insert(util::Format("prop/e0000/detail/h%04d", rows_++),
                       "prop/e0000/detail", state_vector)
                    .ok());
  }

  std::vector<CampaignStore::ExperimentRow> steps_;  ///< the reference trace
  int rows_ = 0;
};

TEST_F(HandWrittenTraceTest, OutOfOrderAndRepeatedStepsMatchCopyBased) {
  // Every reference step, back to front, so the walk has to sort them. Step
  // 5 first shows a changed image and then the reference's: the first row
  // logged at an instret counts. Step 9 is detected; step 12's chains are
  // written out of order, so only the sort makes them compare equal.
  for (size_t i = steps_.size(); i-- > 0;) {
    LoggedState state = steps_[i].state;
    if (i == 5) {
      LoggedState changed = state;
      changed.scan_images["internal_core"] = "1";
      Step(changed.Serialize());
    }
    if (i == 9) {
      state.detected = true;
      state.edm = "illegal_opcode";
    }
    std::string text = state.Serialize();
    if (i == 12) {
      std::string scans;
      for (auto it = state.scan_images.rbegin(); it != state.scan_images.rend();
           ++it) {
        scans += "scan." + it->first + "=" + it->second + ";";
      }
      text = text.substr(0, text.find("scan.")) + scans;
    }
    Step(text);
  }
  ExpectPropagationMatches(store_, "prop/e0000");
  const PropagationReport report =
      AnalyzeErrorPropagation(store_, "prop/e0000").ValueOrDie();
  EXPECT_EQ(report.steps_compared, static_cast<int>(steps_.size()));
  EXPECT_EQ(report.diverged_steps, 1);
  EXPECT_EQ(report.detection_step, 10);
  EXPECT_FALSE(report.length_mismatch);
}

TEST_F(HandWrittenTraceTest, StepsPastTheReferenceMatchCopyBased) {
  // A step at an instret the reference never logged ends the walk there.
  for (size_t i = 0; i < 8; ++i) Step(steps_[i].state.Serialize());
  LoggedState beyond = steps_.back().state;
  beyond.instret += 1000;
  Step(beyond.Serialize());
  LoggedState before = steps_.front().state;
  before.instret = 0;
  before.scan_images.clear();
  Step(before.Serialize());
  ExpectPropagationMatches(store_, "prop/e0000");
  EXPECT_TRUE(AnalyzeErrorPropagation(store_, "prop/e0000")
                  .ValueOrDie()
                  .length_mismatch);
}

TEST_F(HandWrittenTraceTest, MalformedRowsKeepTheirStatus) {
  Step(steps_[0].state.Serialize());
  Step("halted=1;instret=zz");
  Step("wat");
  ExpectPropagationMatches(store_, "prop/e0000");
  EXPECT_EQ(AnalyzeErrorPropagation(store_, "prop/e0000").status().message(),
            "bad integer in LoggedState: instret=zz");
  // The experiment's own row is parsed first.
  ASSERT_TRUE(store_.statement_cache()
                  .Execute(db_,
                           "UPDATE LoggedSystemState SET stateVector = ? "
                           "WHERE experimentName = ?",
                           {db::Value::Text("outputs=g"),
                            db::Value::Text("prop/e0000")})
                  .ok());
  ExpectPropagationMatches(store_, "prop/e0000");
  EXPECT_EQ(AnalyzeErrorPropagation(store_, "prop/e0000").status().message(),
            "bad output word: g");
}

// --- campaign resume (Fig. 7: pause/restart) ---------------------------------

class ResumeTest : public ::testing::Test {
 protected:
  ResumeTest() : store_(&db_), target_(&store_, &card_) {
    EXPECT_TRUE(store_
                    .PutTargetSystem(ThorRdTarget::DescribeTarget(
                        card_, ThorRdTarget::kTargetName))
                    .ok());
    CampaignData campaign;
    campaign.name = "resume";
    campaign.target_name = ThorRdTarget::kTargetName;
    campaign.workload = "bubblesort";
    campaign.locations = {{"internal_regfile", ""}};
    campaign.num_experiments = 20;
    campaign.timeout_cycles = 100000;
    EXPECT_TRUE(store_.PutCampaign(campaign).ok());
  }

  db::Database db_;
  CampaignStore store_;
  testcard::SimTestCard card_;
  ThorRdTarget target_;
};

TEST_F(ResumeTest, RestartedCampaignSkipsLoggedExperiments) {
  CountingMonitor stopper(/*limit=*/8);
  target_.SetProgressMonitor(&stopper);
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  target_.SetProgressMonitor(nullptr);
  EXPECT_EQ(target_.stats().experiments_run, 8);

  // Restart: the first 8 (plus the reference) are kept, 12 more run.
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  EXPECT_EQ(target_.stats().experiments_resumed, 8);
  EXPECT_EQ(target_.stats().experiments_run, 12);

  const auto report = AnalyzeCampaign(store_, "resume").ValueOrDie();
  EXPECT_EQ(report.total, 20);
}

TEST_F(ResumeTest, ResumedExperimentsMatchUninterruptedRun) {
  // Run interrupted + resumed, then compare against a one-shot campaign with
  // the same seed: the logged fault lists must be identical.
  CountingMonitor stopper(5);
  target_.SetProgressMonitor(&stopper);
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  target_.SetProgressMonitor(nullptr);
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());

  CampaignData oneshot = store_.GetCampaign("resume").ValueOrDie();
  oneshot.name = "oneshot";
  ASSERT_TRUE(store_.PutCampaign(oneshot).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("oneshot").ok());

  for (int i = 0; i < 20; ++i) {
    const auto a =
        store_.GetExperiment(util::Format("resume/e%04d", i)).ValueOrDie();
    const auto b =
        store_.GetExperiment(util::Format("oneshot/e%04d", i)).ValueOrDie();
    EXPECT_EQ(a.experiment_data, b.experiment_data) << i;
    EXPECT_EQ(a.state.Serialize(), b.state.Serialize()) << i;
  }
}

TEST_F(ResumeTest, CompletedCampaignRerunIsANoOp) {
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  EXPECT_EQ(target_.stats().experiments_run, 0);
  EXPECT_EQ(target_.stats().experiments_resumed, 20);
}

}  // namespace
}  // namespace goofi::core
