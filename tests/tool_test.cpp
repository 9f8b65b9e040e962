// Tests for the GOOFI command shell (the GUI-equivalent front end).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "core/goofi.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"
#include "tool/shell.hpp"
#include "util/strings.hpp"

namespace goofi::tool {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  ShellTest() : store_(&db_), shell_(&db_, &store_) {
    shell_.AddTarget(core::ThorRdTarget::kTargetName, &card_,
                     core::MakeSimThorFactory(&store_));
    EXPECT_TRUE(
        Run(std::string("target describe ") + core::ThorRdTarget::kTargetName)
            .ok());
  }

  util::Result<std::string> Run(const std::string& line) {
    return shell_.Execute(line);
  }

  std::string MustRun(const std::string& line) {
    auto result = Run(line);
    EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
    return result.ok() ? result.value() : "";
  }

  db::Database db_;
  core::CampaignStore store_;
  testcard::SimTestCard card_;
  Shell shell_;
};

TEST_F(ShellTest, HelpListsCommands) {
  const std::string help = MustRun("help");
  for (const char* cmd :
       {"campaign set", "run", "run-dedup", "analyze", "sql", "propagation"}) {
    EXPECT_NE(help.find(cmd), std::string::npos) << cmd;
  }
}

TEST_F(ShellTest, BlankLinesAndCommentsAreNoOps) {
  EXPECT_EQ(MustRun(""), "");
  EXPECT_EQ(MustRun("   "), "");
  EXPECT_EQ(MustRun("# a comment"), "");
}

TEST_F(ShellTest, UnknownCommandErrors) {
  EXPECT_FALSE(Run("frobnicate").ok());
}

TEST_F(ShellTest, ListTargetsWorkloadsChains) {
  EXPECT_NE(MustRun("list targets").find(core::ThorRdTarget::kTargetName),
            std::string::npos);
  EXPECT_NE(MustRun("list workloads").find("bubblesort"), std::string::npos);
  const std::string chains =
      MustRun(std::string("list chains ") + core::ThorRdTarget::kTargetName);
  EXPECT_NE(chains.find("internal_regfile"), std::string::npos);
  EXPECT_NE(chains.find("512 bits"), std::string::npos);
  EXPECT_FALSE(Run("list chains nope").ok());
  EXPECT_FALSE(Run("list nonsense").ok());
}

TEST_F(ShellTest, CampaignSetParsesAllKeys) {
  MustRun(
      "campaign set c1 workload=matmul technique=swifi_runtime "
      "model=permanent_stuckat experiments=42 faults=2 window=5:500 "
      "locations=memory.data,memory.text timeout=9999 iterations=77 seed=3 "
      "logmode=detail observe=boundary burst=5:111");
  const auto campaign = store_.GetCampaign("c1").ValueOrDie();
  EXPECT_EQ(campaign.workload, "matmul");
  EXPECT_EQ(campaign.technique, core::Technique::kSwifiRuntime);
  EXPECT_EQ(campaign.fault_model, core::FaultModelKind::kPermanentStuckAt);
  EXPECT_EQ(campaign.num_experiments, 42);
  EXPECT_EQ(campaign.faults_per_experiment, 2);
  EXPECT_EQ(campaign.inject_min_instr, 5u);
  EXPECT_EQ(campaign.inject_max_instr, 500u);
  EXPECT_EQ(campaign.locations.size(), 2u);
  EXPECT_EQ(campaign.timeout_cycles, 9999u);
  EXPECT_EQ(campaign.max_iterations, 77);
  EXPECT_EQ(campaign.seed, 3u);
  EXPECT_EQ(campaign.log_mode, core::LogMode::kDetail);
  EXPECT_EQ(campaign.observe_chains, std::vector<std::string>{"boundary"});
  EXPECT_EQ(campaign.burst_length, 5u);
  EXPECT_EQ(campaign.burst_spacing, 111u);
  // Default target auto-filled (single registered target).
  EXPECT_EQ(campaign.target_name, core::ThorRdTarget::kTargetName);
}

TEST_F(ShellTest, CampaignSetUpdatesExisting) {
  MustRun("campaign set c1 workload=matmul experiments=10");
  MustRun("campaign set c1 experiments=20");
  const auto campaign = store_.GetCampaign("c1").ValueOrDie();
  EXPECT_EQ(campaign.workload, "matmul") << "earlier keys preserved";
  EXPECT_EQ(campaign.num_experiments, 20);
}

TEST_F(ShellTest, CampaignSetRejectsBadInput) {
  EXPECT_FALSE(Run("campaign set c1 experiments=abc").ok());
  EXPECT_FALSE(Run("campaign set c1 nonsense=1").ok());
  EXPECT_FALSE(Run("campaign set c1 technique=warp").ok());
  EXPECT_FALSE(Run("campaign set c1 window=17").ok());
  EXPECT_FALSE(Run("campaign set c1 noequalsign").ok());
}

TEST_F(ShellTest, CampaignShowRendersStoredData) {
  MustRun("campaign set c1 workload=checksum experiments=5");
  const std::string shown = MustRun("campaign show c1");
  EXPECT_NE(shown.find("checksum"), std::string::npos);
  EXPECT_NE(shown.find("experiments: 5"), std::string::npos);
  EXPECT_FALSE(Run("campaign show ghost").ok());
}

TEST_F(ShellTest, RunAndAnalyzeEndToEnd) {
  MustRun(
      "campaign set mini workload=fibonacci locations=internal_regfile "
      "experiments=15 window=1:80 timeout=50000");
  const std::string run_output = MustRun("run mini");
  EXPECT_NE(run_output.find("15 experiments run on 1 workers"),
            std::string::npos)
      << run_output;
  const std::string analysis = MustRun("analyze mini");
  EXPECT_NE(analysis.find("error coverage"), std::string::npos);
  EXPECT_NE(analysis.find("15 experiments"), std::string::npos);
  EXPECT_FALSE(Run("run mini 0").ok());
  EXPECT_FALSE(Run("run mini x").ok());
  EXPECT_FALSE(Run("run mini 1 16").ok()) << "run takes no interval argument";
  EXPECT_FALSE(Run("run").ok());
}

TEST_F(ShellTest, RunWarmForcesCheckpointFastForward) {
  MustRun(
      "campaign set warm workload=fibonacci locations=internal_regfile "
      "experiments=6 window=1:80 timeout=50000");
  const std::string out = MustRun("run-warm warm 1 16");
  EXPECT_NE(out.find("6 experiments run"), std::string::npos);
  EXPECT_NE(out.find("6 warm starts"), std::string::npos);
  EXPECT_NE(out.find("interval 16"), std::string::npos);
  EXPECT_FALSE(Run("run-warm warm 0").ok());
  EXPECT_FALSE(Run("run-warm warm 1 0").ok());
  EXPECT_FALSE(Run("run-warm").ok());
}

TEST_F(ShellTest, RunPrunedEngagesConvergencePruning) {
  MustRun(
      "campaign set pruned workload=fibonacci locations=internal_core "
      "experiments=6 window=1:80 timeout=50000");
  const std::string out = MustRun("run-pruned pruned 1 16");
  EXPECT_NE(out.find("6 experiments run"), std::string::npos);
  EXPECT_NE(out.find("pruned"), std::string::npos);
  EXPECT_NE(out.find("interval 16"), std::string::npos);
  EXPECT_FALSE(Run("run-pruned pruned 0").ok());
  EXPECT_FALSE(Run("run-pruned pruned 1 0").ok());
  EXPECT_FALSE(Run("run-pruned").ok());
}

TEST_F(ShellTest, RunDedupEngagesEquivalenceClassing) {
  MustRun(
      "campaign set dedup workload=fibonacci locations=internal_regfile "
      "experiments=6 window=1:80 timeout=50000");
  const std::string out = MustRun("run-dedup dedup 1");
  EXPECT_NE(out.find("6 experiments run"), std::string::npos);
  EXPECT_NE(out.find("classes"), std::string::npos);
  EXPECT_NE(out.find("synthesized"), std::string::npos);
  EXPECT_FALSE(Run("run-dedup dedup 0").ok());
  EXPECT_FALSE(Run("run-dedup dedup x").ok());
  EXPECT_FALSE(Run("run-dedup").ok());
  EXPECT_FALSE(Run("run-dedup dedup 1 16").ok())
      << "run-dedup takes no interval argument";
  EXPECT_FALSE(Run("run-dedup ghost 1").ok());
}

TEST_F(ShellTest, RunDedupResultsMatchPlainRun) {
  MustRun(
      "campaign set eqcmp workload=fibonacci locations=internal_regfile "
      "experiments=8 window=1:80 timeout=50000");
  MustRun("run eqcmp");
  const std::string plain = MustRun("list experiments eqcmp");
  MustRun("sql DELETE FROM LoggedSystemState");
  MustRun("run-dedup eqcmp 2");
  EXPECT_EQ(MustRun("list experiments eqcmp"), plain)
      << "run-dedup must reproduce the plain run's rows exactly";
}

TEST_F(ShellTest, StatsFailsBeforeAnyRun) {
  const auto result = Run("stats");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ShellTest, StatsReportsLastRunCounters) {
  MustRun(
      "campaign set st workload=fibonacci locations=internal_core "
      "experiments=4 window=1:80 timeout=50000");
  MustRun("run-pruned st 1 16");
  const std::string stats = MustRun("stats");
  EXPECT_NE(stats.find("last run: st (run-pruned)"), std::string::npos);
  EXPECT_NE(stats.find("experiments run:"), std::string::npos);
  // The two early-exit populations must be reported separately.
  EXPECT_NE(stats.find("never injected (dead):"), std::string::npos);
  EXPECT_NE(stats.find("injected but converged:"), std::string::npos);
  EXPECT_NE(stats.find("boundary checks:"), std::string::npos);
  EXPECT_NE(stats.find("collision rejects:"), std::string::npos);
  // Equivalence-classing counters report alongside the prune counters (all
  // zero for a run-pruned command: classing was not engaged).
  EXPECT_NE(stats.find("equivalence classes:      0"), std::string::npos);
  EXPECT_NE(stats.find("experiments synthesized:  0"), std::string::npos);
  EXPECT_NE(stats.find("spot checks:"), std::string::npos);
  // A plain run resets the counters to its own (unpruned) numbers.
  MustRun("run st");
  const std::string plain = MustRun("stats");
  EXPECT_NE(plain.find("last run: st (run)"), std::string::npos);
  EXPECT_NE(plain.find("injected but converged:   0"), std::string::npos);
}

TEST_F(ShellTest, StatsReportsEquivalenceCountersAfterRunDedup) {
  MustRun(
      "campaign set eqst workload=fibonacci locations=internal_regfile "
      "experiments=12 window=1:40 timeout=50000");
  MustRun("run-dedup eqst 1");
  const std::string stats = MustRun("stats");
  EXPECT_NE(stats.find("last run: eqst (run-dedup)"), std::string::npos);
  EXPECT_NE(stats.find("experiments run:          12"), std::string::npos);
  EXPECT_NE(stats.find("equivalence classes:"), std::string::npos);
  EXPECT_NE(stats.find("experiments synthesized:"), std::string::npos);
  EXPECT_NE(stats.find("spot checks:"), std::string::npos);
}

TEST_F(ShellTest, StatsCountTheLastRunOnly) {
  // Two identical campaigns, one `run` each: the second `stats` reports the
  // second run's copy-on-write counters, not a sum over the session.
  for (const char* name : {"first", "second"}) {
    MustRun(std::string("campaign set ") + name +
            " workload=bubblesort locations=internal_regfile experiments=20 "
            "window=1:1000");
  }
  const auto cow_line = [](const std::string& stats) {
    for (const std::string& line : util::Split(stats, '\n')) {
      if (util::StartsWith(line, "  cow page copies:")) return line;
    }
    return std::string();
  };
  MustRun("run first");
  const std::string first = cow_line(MustRun("stats"));
  ASSERT_NE(first, "") << "stats must report copy-on-write counters";
  MustRun("run second");
  EXPECT_EQ(cow_line(MustRun("stats")), first)
      << "copies and golden adoptions of the second run alone";
}

/// Records the experiment count of every progress callback.
struct RecordingMonitor final : core::ProgressMonitor {
  bool OnExperiment(int experiments_done, int,
                    const core::LoggedState&) override {
    done.push_back(experiments_done);
    return true;
  }
  std::vector<int> done;
};

TEST_F(ShellTest, EveryRunCommandReportsToTheShellsMonitor) {
  MustRun(
      "campaign set mon workload=fibonacci locations=internal_regfile "
      "experiments=6 window=1:80 timeout=50000");
  RecordingMonitor monitor;
  shell_.SetProgressMonitor(&monitor);
  for (const char* command : {"run mon 3", "run-warm mon", "run-pruned mon",
                              "run-dedup mon", "run-static mon"}) {
    SCOPED_TRACE(command);
    MustRun("sql DELETE FROM LoggedSystemState");
    monitor.done.clear();
    MustRun(command);
    EXPECT_EQ(monitor.done, (std::vector<int>{1, 2, 3, 4, 5, 6}))
        << "once per experiment, in experiment order";
  }
}

TEST_F(ShellTest, RunUnknownCampaignOrTargetFails) {
  EXPECT_FALSE(Run("run ghost").ok());
  // A target that exists in the database but is not registered with the
  // shell: defining the campaign works (FK satisfied), running it fails.
  MustRun("sql INSERT INTO TargetSystemData VALUES ('unregistered', '', '')");
  MustRun("campaign set orphan workload=fibonacci target=unregistered");
  EXPECT_FALSE(Run("run orphan").ok());
}

TEST_F(ShellTest, SqlPassesThrough) {
  const std::string result =
      MustRun("sql SELECT COUNT(*) AS n FROM CampaignData");
  EXPECT_NE(result.find("n"), std::string::npos);
  EXPECT_FALSE(Run("sql SELEKT broken").ok());
}

TEST_F(ShellTest, SaveAndLoadRoundTrip) {
  MustRun("campaign set persisted workload=matmul experiments=3");
  const std::string path = testing::TempDir() + "shell_roundtrip.db";
  MustRun("save " + path);
  // New shell over a fresh database, load the file.
  db::Database db2;
  core::CampaignStore store2(&db2);
  Shell shell2(&db2, &store2);
  auto loaded = shell2.Execute("load " + path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(store2.GetCampaign("persisted").ok());
  // Persistence stores rows only; load must have re-created the standard
  // indexes so analysis queries stay on the fast path.
  const db::Table* lss = db2.GetTable("LoggedSystemState");
  ASSERT_NE(lss, nullptr);
  EXPECT_NE(lss->FindIndex("idx_lss_campaign"), nullptr);
  std::remove(path.c_str());
}

TEST_F(ShellTest, ExplainShowsAccessPath) {
  const std::string help = MustRun("help");
  EXPECT_NE(help.find("explain"), std::string::npos);
  const std::string probed = MustRun(
      "explain SELECT * FROM LoggedSystemState WHERE campaignName = 'c'");
  EXPECT_NE(probed.find("idx_lss_campaign"), std::string::npos) << probed;
  const std::string scanned = MustRun("explain SELECT * FROM CampaignData");
  EXPECT_NE(scanned.find("full scan"), std::string::npos) << scanned;
  EXPECT_FALSE(Run("explain SELEKT broken").ok());
}

TEST_F(ShellTest, RerunDetailAndPropagationWorkflow) {
  MustRun(
      "campaign set hunt workload=fibonacci locations=internal_regfile "
      "experiments=8 window=1:60 timeout=50000");
  MustRun("run hunt");
  MustRun("rerun-detail hunt/e0002");
  MustRun("rerun-detail hunt/ref");
  const std::string report = MustRun("propagation hunt/e0002");
  EXPECT_NE(report.find("steps compared"), std::string::npos);
}

TEST_F(ShellTest, ListExperimentsCountsDetailRowsAfterRerunDetail) {
  MustRun(
      "campaign set lx workload=fibonacci locations=internal_regfile "
      "experiments=3 window=1:60 timeout=50000");
  MustRun("run lx");
  MustRun("rerun-detail lx/e0001");
  // The re-run's own row plus one row per traced instruction under it.
  const size_t detail = 1 + store_.DetailRowsOf("lx/e0001/detail").ValueOrDie().size();
  const std::vector<std::string> lines =
      util::Split(MustRun("list experiments lx"), '\n');
  ASSERT_EQ(lines.size(), 6u);  // four rows, the count, and "" after the last \n
  const char* const top_level[] = {"lx/ref ", "lx/e0000 ", "lx/e0001 ", "lx/e0002 "};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(util::StartsWith(lines[i], top_level[i])) << lines[i];
  }
  EXPECT_EQ(lines[4], util::Format("(+ %zu detail rows)", detail));
}

TEST_F(ShellTest, PropagationWithoutTracesFailsCleanly) {
  MustRun(
      "campaign set p workload=fibonacci locations=internal_regfile "
      "experiments=2 window=1:60");
  MustRun("run p");
  const auto result = Run("propagation p/e0000");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ShellTest, ListExperimentsShowsLoggedRows) {
  MustRun(
      "campaign set le workload=checksum locations=internal_regfile "
      "experiments=4 window=1:100");
  MustRun("run le");
  const std::string listing = MustRun("list experiments le");
  EXPECT_NE(listing.find("le/e0000"), std::string::npos);
  EXPECT_NE(listing.find("le/ref"), std::string::npos);
  EXPECT_FALSE(Run("list experiments").ok());
}

TEST_F(ShellTest, ReportWritesAnalysisToFile) {
  MustRun(
      "campaign set rep workload=checksum locations=internal_regfile "
      "experiments=4 window=1:100");
  MustRun("run rep");
  const std::string path = testing::TempDir() + "shell_report.txt";
  MustRun("report rep " + path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("error coverage"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(Run("report ghost /tmp/x").ok());
}

TEST_F(ShellTest, EchoForScripts) {
  EXPECT_EQ(MustRun("echo phase one done"), "phase one done\n");
}

TEST_F(ShellTest, ScriptTranscriptAndErrorStop) {
  std::string transcript;
  const util::Status st = shell_.ExecuteScript(
      "# configure\n"
      "campaign set s workload=checksum experiments=2 window=1:50\n"
      "run s\n"
      "bogus command\n"
      "echo never reached\n",
      &transcript);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(transcript.find("goofi> run s"), std::string::npos);
  EXPECT_NE(transcript.find("error:"), std::string::npos);
  EXPECT_EQ(transcript.find("never reached"), std::string::npos);
}

TEST_F(ShellTest, ArchiveOpenStatsAndClose) {
  const std::string help = MustRun("help");
  EXPECT_NE(help.find("archive open"), std::string::npos);
  EXPECT_NE(help.find("archive checkpoint"), std::string::npos);

  // Subcommands other than open require an open archive.
  EXPECT_FALSE(Run("archive status").ok());
  EXPECT_FALSE(Run("archive checkpoint").ok());
  EXPECT_FALSE(Run("archive bogus").ok());

  const std::string path = testing::TempDir() + "shell_archive_basic.db";
  MustRun("archive open " + path);
  // With an archive open, `stats` reports its counters even before any run.
  const std::string stats = MustRun("stats");
  EXPECT_NE(stats.find("archive: " + path), std::string::npos);
  EXPECT_NE(stats.find("wal records replayed"), std::string::npos);
  EXPECT_EQ(MustRun("archive status"), stats);

  MustRun("campaign set arc workload=matmul experiments=3");
  const std::string checkpointed = MustRun("archive checkpoint");
  EXPECT_NE(checkpointed.find("epoch 1"), std::string::npos);
  MustRun("archive close");
  EXPECT_FALSE(Run("archive status").ok()) << "closed archive is detached";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST_F(ShellTest, ArchiveKillAndResumeAcrossSessions) {
  // More experiments than one 64-row commit batch, so a torn final WAL
  // record loses only the tail of the campaign.
  MustRun(
      "campaign set arc workload=fibonacci locations=internal_regfile "
      "experiments=70 window=1:80 timeout=50000");
  const std::string path = testing::TempDir() + "shell_archive_resume.db";
  MustRun("archive open " + path);
  MustRun("run arc 2");
  const std::string reference = MustRun("list experiments arc");
  // One more committed record after the run: a fold may have emptied the WAL
  // at the final batch commit, and tearing bytes must hit a real record, not
  // the file header.
  MustRun("campaign set arc seed=7");
  MustRun("archive close");

  // "Kill" the process mid-append: tear the last WAL record on disk.
  const std::string wal = path + ".wal";
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 3);

  // A second session recovers the valid prefix and resumes the campaign.
  db::Database db2;
  core::CampaignStore store2(&db2);
  Shell shell2(&db2, &store2);
  shell2.AddTarget(core::ThorRdTarget::kTargetName, &card_,
                   core::MakeSimThorFactory(&store2));
  auto opened = shell2.Execute("archive open " + path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_NE(opened.value().find("WAL records replayed"), std::string::npos);
  EXPECT_NE(opened.value().find("truncated torn WAL tail"), std::string::npos);
  auto stats = shell2.Execute("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("torn tail truncated"), std::string::npos);

  auto rerun = shell2.Execute("run arc 2");
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun.value().find(" 0 resumed"), std::string::npos)
      << "the recovered prefix must be resumed, not re-run: " << rerun.value();
  auto listing = shell2.Execute("list experiments arc");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.value(), reference);
  ASSERT_TRUE(shell2.Execute("archive close").ok());
  std::remove(path.c_str());
  std::remove(wal.c_str());
}

TEST_F(ShellTest, LoadClosesOpenArchiveFirst) {
  const std::string plain = testing::TempDir() + "shell_plain.db";
  const std::string arch = testing::TempDir() + "shell_arch.db";
  MustRun("campaign set keepme workload=matmul experiments=2");
  MustRun("save " + plain);
  MustRun("archive open " + arch);
  const std::string out = MustRun("load " + plain);
  EXPECT_NE(out.find("open archive closed"), std::string::npos);
  EXPECT_FALSE(Run("archive status").ok());
  EXPECT_TRUE(store_.GetCampaign("keepme").ok());
  std::remove(plain.c_str());
  std::remove(arch.c_str());
  std::remove((arch + ".wal").c_str());
}

TEST_F(ShellTest, LoadReplaysTheArchiveWal) {
  // Commits since an archive's last fold live in <path>.wal; `load` must
  // recover them the way `archive open` does, and write neither file.
  const std::string path = testing::TempDir() + "shell_load_wal.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  const auto file_bytes = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  MustRun("archive open " + path);
  MustRun("campaign set keepx workload=bubblesort experiments=2");
  MustRun("archive close");
  const std::string snapshot = file_bytes(path);
  const std::string wal = file_bytes(path + ".wal");
  ASSERT_GT(wal.size(), 13u) << "the campaign must sit in the WAL";

  MustRun("load " + path);
  EXPECT_EQ(MustRun("list campaigns"), "keepx\n");
  EXPECT_EQ(file_bytes(path), snapshot);
  EXPECT_EQ(file_bytes(path + ".wal"), wal);

  // A torn tail is dropped: the whole records before it still load.
  {
    std::ofstream out(path + ".wal", std::ios::binary | std::ios::app);
    out << "torn";
  }
  MustRun("load " + path);
  EXPECT_EQ(MustRun("list campaigns"), "keepx\n");
  EXPECT_EQ(file_bytes(path + ".wal"), wal + "torn");

  // A WAL of another epoch is already folded into some snapshot: ignored.
  std::string stale = wal;
  stale[5] = static_cast<char>(stale[5] ^ 1);  // epoch, after magic+version
  {
    std::ofstream out(path + ".wal", std::ios::binary | std::ios::trunc);
    out << stale;
  }
  MustRun("load " + path);
  EXPECT_EQ(MustRun("list campaigns"), "");
  EXPECT_EQ(file_bytes(path), snapshot);
  EXPECT_EQ(file_bytes(path + ".wal"), stale);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST_F(ShellTest, ForeignSnapshotIsRefused) {
  // A snapshot whose CampaignData is not the Fig. 4 table.
  const std::string path = testing::TempDir() + "shell_foreign.db";
  db::Database foreign;
  ASSERT_TRUE(foreign
                  .CreateTable(db::Schema(
                      "CampaignData",
                      {{"campaignName", db::ValueType::kInt, true}},
                      {"campaignName"}))
                  .ok());
  ASSERT_TRUE(foreign.Insert("CampaignData", {db::Value::Int(7)}).ok());
  ASSERT_TRUE(foreign.Save(path).ok());
  const auto file_bytes = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string snapshot = file_bytes();

  // A refused load keeps the session's database.
  MustRun("campaign set held workload=bubblesort experiments=2");
  const auto loaded = Run("load " + path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition)
      << loaded.status().ToString();
  EXPECT_EQ(MustRun("list campaigns"), "held\n");
  MustRun("campaign set c workload=bubblesort");

  // A refused archive open keeps the session's database, leaves the file
  // as it was and creates no WAL.
  db::Database db2;
  core::CampaignStore store2(&db2);
  Shell shell2(&db2, &store2);
  ASSERT_TRUE(store2.PutTargetSystem({"t2", "", ""}).ok());
  core::CampaignData held2;
  held2.name = "held2";
  held2.target_name = "t2";
  held2.workload = "bubblesort";
  ASSERT_TRUE(store2.PutCampaign(held2).ok());
  const auto opened = shell2.Execute("archive open " + path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kFailedPrecondition)
      << opened.status().ToString();
  EXPECT_FALSE(shell2.Execute("archive status").ok()) << "left open";
  EXPECT_EQ(file_bytes(), snapshot);
  EXPECT_FALSE(std::filesystem::exists(path + ".wal"));
  const auto listed = shell2.Execute("list campaigns");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(listed.value(), "held2\n");
  std::remove(path.c_str());
}

TEST_F(ShellTest, DroppedGoofiTablesGiveErrors) {
  MustRun("campaign set c workload=bubblesort experiments=2");
  MustRun("sql DROP TABLE LoggedSystemState");
  MustRun("sql DROP TABLE CampaignData");
  EXPECT_FALSE(Run("list campaigns").ok());
  EXPECT_FALSE(Run("campaign set c workload=bubblesort").ok());
  EXPECT_FALSE(Run("list experiments c").ok());
}

TEST_F(ShellTest, CampaignMergeViaShell) {
  MustRun("campaign set a workload=matmul experiments=5 locations=internal_core");
  MustRun("campaign set b workload=matmul experiments=7 locations=internal_regfile");
  MustRun("campaign merge ab a b");
  const auto merged = store_.GetCampaign("ab").ValueOrDie();
  EXPECT_EQ(merged.num_experiments, 12);
  EXPECT_EQ(merged.locations.size(), 2u);
}

}  // namespace
}  // namespace goofi::tool
