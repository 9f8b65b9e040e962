// The benchmark's single seam into GOOFI (see adapter.hpp). Every call into
// the program lives in this file.
#include "adapter.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>

#include "core/analysis.hpp"
#include "core/campaign_store.hpp"
#include "core/equivalence.hpp"
#include "core/parallel_runner.hpp"
#include "core/preinjection.hpp"
#include "core/propagation.hpp"
#include "core/static_analysis.hpp"
#include "core/swifi_target.hpp"
#include "core/thor_target.hpp"
#include "cpu/memory.hpp"
#include "db/archive.hpp"
#include "digest.hpp"
#include "testcard/testcard.hpp"

namespace perfbench {

namespace {

namespace core = goofi::core;
namespace cpu = goofi::cpu;
namespace db = goofi::db;
namespace testcard = goofi::testcard;
namespace util = goofi::util;

constexpr const char* kCampaign = "bench";
constexpr int kWorkers = 3;  // plus the committer: nproc = 4

// Golden (fault-free) runs of the workloads, measured on thor-rd-sim and
// trd32-sim-swifi with the default CPU configuration.
constexpr uint64_t kPendulumGoldenInstr = 56003;
constexpr uint64_t kPendulumGoldenCycles = 92075;
constexpr uint64_t kBubblesortGoldenInstr = 2339;
constexpr uint64_t kBubblesortGoldenCycles = 3953;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Plan {
  core::CampaignData campaign;
  bool thor = true;      ///< thor-rd-sim (scan + test card) vs scan-less sim
  bool parallel = false; ///< ParallelCampaignRunner with every exact reducer
  /// §2.3 detail re-runs of the reference and every experiment after the
  /// campaign: what AnalyzeErrorPropagation compares.
  bool detail_reruns = false;
  /// The fault-free run the injection window and timeout are sized on.
  uint64_t golden_instr = 0;
  uint64_t golden_cycles = 0;
};

Plan PlanFor(Workload workload, uint64_t seed, int experiments) {
  Plan plan;
  core::CampaignData& c = plan.campaign;
  c.name = kCampaign;
  c.seed = seed;
  c.num_experiments = experiments;
  c.fault_model = core::FaultModelKind::kTransientBitFlip;
  c.faults_per_experiment = 1;
  switch (workload) {
    case Workload::kScifiControl:
      c.target_name = core::ThorRdTarget::kTargetName;
      c.technique = core::Technique::kScifi;
      c.locations = {{"internal_regfile", ""}, {"internal_core", ""}};
      c.workload = "pendulum_pd";
      c.max_iterations = 4000;
      c.inject_min_instr = 1;
      c.inject_max_instr = kPendulumGoldenInstr;
      c.timeout_cycles = 2 * kPendulumGoldenCycles;
      plan.parallel = true;
      break;
    case Workload::kSwifiBatch:
      c.target_name = core::SwifiSimTarget::kTargetName;
      c.technique = core::Technique::kSwifiRuntime;
      c.locations = {{"memory.text", ""}, {"memory.data", ""}};
      c.workload = "bubblesort";
      c.inject_min_instr = 1;
      c.inject_max_instr = kBubblesortGoldenInstr;
      c.timeout_cycles = 10 * kBubblesortGoldenCycles;
      plan.thor = false;
      break;
    case Workload::kDetailArchive:
      // Injection in the last 240 instructions, a tight timeout and
      // register-file faults keep the detail rows per experiment close to
      // the rest of the run, so the campaign's size varies little from
      // seed to seed.
      c.target_name = core::ThorRdTarget::kTargetName;
      c.technique = core::Technique::kScifi;
      c.locations = {{"internal_regfile", ""}};
      c.workload = "bubblesort";
      c.inject_min_instr = 2100;
      c.inject_max_instr = 2200;
      c.timeout_cycles = kBubblesortGoldenCycles * 21 / 20;
      c.observe_chains = {"internal_regfile"};
      plan.detail_reruns = true;
      break;
  }
  if (workload == Workload::kScifiControl) {
    plan.golden_instr = kPendulumGoldenInstr;
    plan.golden_cycles = kPendulumGoldenCycles;
  } else {
    plan.golden_instr = kBubblesortGoldenInstr;
    plan.golden_cycles = kBubblesortGoldenCycles;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Tracing seams (traced sessions only)
// ---------------------------------------------------------------------------

/// Forwarding test card: times every call by layer on the calling thread's
/// lane and keeps per-card work counters. Targets hold it through the
/// abstract TestCard, exactly as they hold a SimTestCard.
class TracingCard final : public testcard::TestCard {
 public:
  TracingCard(const cpu::CpuConfig& config, Tracer* tracer)
      : inner_(config), tracer_(tracer) {}

  struct Counters {
    uint64_t instret = 0;
    uint64_t run_calls = 0;
    uint64_t step_calls = 0;
    uint64_t tck = 0;
    uint64_t words = 0;
    int64_t save_ns = 0;
    int64_t restore_ns = 0;
  };
  const Counters& counters() const { return counters_; }
  const cpu::Cpu& inner_cpu() const { return inner_.cpu(); }

  util::Status Init() override {
    return Timed(Layer::kTestcard, "Init", [&] { return inner_.Init(); });
  }
  util::Status LoadWorkload(const goofi::isa::AssembledProgram& program) override {
    return Timed(Layer::kTestcard, "LoadWorkload",
                 [&] { return inner_.LoadWorkload(program); });
  }
  util::Status ResetTarget() override {
    return Timed(Layer::kTestcard, "ResetTarget",
                 [&] { return inner_.ResetTarget(); });
  }
  util::Status WriteMemory(uint32_t address,
                           const std::vector<uint32_t>& words) override {
    counters_.words += words.size();
    return Timed(Layer::kTestcard, "WriteMemory",
                 [&] { return inner_.WriteMemory(address, words); });
  }
  util::Result<std::vector<uint32_t>> ReadMemory(uint32_t address,
                                                 uint32_t num_words) override {
    counters_.words += num_words;
    return Timed(Layer::kTestcard, "ReadMemory",
                 [&] { return inner_.ReadMemory(address, num_words); });
  }
  int AddTrigger(const goofi::scan::Trigger& trigger) override {
    return Timed(Layer::kTestcard, "AddTrigger",
                 [&] { return inner_.AddTrigger(trigger); });
  }
  void ClearTriggers() override {
    const int64_t start = Tracer::NowNs();
    inner_.ClearTriggers();
    tracer_->Call(Layer::kTestcard, "ClearTriggers", start, Tracer::NowNs());
  }
  goofi::scan::DebugRunResult Run(uint64_t max_cycles) override {
    const uint64_t before = inner_.cpu().instructions_retired();
    auto result = Timed(Layer::kCpu, "Run", [&] { return inner_.Run(max_cycles); });
    counters_.instret += inner_.cpu().instructions_retired() - before;
    ++counters_.run_calls;
    return result;
  }
  bool use_fast_run() const override { return inner_.use_fast_run(); }
  cpu::StepOutcome SingleStep() override {
    const uint64_t before = inner_.cpu().instructions_retired();
    auto outcome = Timed(Layer::kCpu, "SingleStep", [&] { return inner_.SingleStep(); });
    counters_.instret += inner_.cpu().instructions_retired() - before;
    ++counters_.step_calls;
    return outcome;
  }
  util::Result<util::BitVec> ReadScanChain(const std::string& chain,
                                           bool restore) override {
    return Scan("ReadScanChain",
                [&] { return inner_.ReadScanChain(chain, restore); });
  }
  util::Status WriteScanChain(const std::string& chain,
                              const util::BitVec& image) override {
    return Scan("WriteScanChain",
                [&] { return inner_.WriteScanChain(chain, image); });
  }
  util::Status ReadScanChainInto(const std::string& chain, bool restore,
                                 util::BitVec* out) override {
    return Scan("ReadScanChainInto",
                [&] { return inner_.ReadScanChainInto(chain, restore, out); });
  }
  util::Status MarkMemoryBaseline() override {
    return Timed(Layer::kCheckpoint, "MarkMemoryBaseline",
                 [&] { return inner_.MarkMemoryBaseline(); });
  }
  util::Result<testcard::CardSnapshot> SaveSnapshot() override {
    return Timed(Layer::kCheckpoint, "SaveSnapshot",
                 [&] { return inner_.SaveSnapshot(); }, &counters_.save_ns);
  }
  util::Status RestoreSnapshot(const testcard::CardSnapshot& snapshot) override {
    return Timed(Layer::kCheckpoint, "RestoreSnapshot",
                 [&] { return inner_.RestoreSnapshot(snapshot); },
                 &counters_.restore_ns);
  }
  bool SupportsStateHash() const override { return inner_.SupportsStateHash(); }
  util::Status HashTargetState(cpu::StateHasher* hasher) override {
    return Timed(Layer::kConvergence, "HashTargetState",
                 [&] { return inner_.HashTargetState(hasher); });
  }
  const goofi::scan::ScanChainSet& chains() const override {
    return inner_.chains();
  }
  const cpu::Cpu& cpu() const override { return inner_.cpu(); }
  cpu::Cpu& mutable_cpu() override { return inner_.mutable_cpu(); }
  double link_time_us() const override { return inner_.link_time_us(); }

 private:
  /// Runs `call`, records it on `layer` and adds its duration to `sum_ns`.
  template <typename F>
  auto Timed(Layer layer, const char* name, F&& call, int64_t* sum_ns = nullptr)
      -> decltype(call()) {
    const int64_t start = Tracer::NowNs();
    auto result = call();
    const int64_t end = Tracer::NowNs();
    tracer_->Call(layer, name, start, end);
    if (sum_ns != nullptr) *sum_ns += end - start;
    return result;
  }
  template <typename F>
  auto Scan(const char* name, F&& call) -> decltype(call()) {
    const uint64_t before = inner_.tck_count();
    auto result = Timed(Layer::kScan, name, std::forward<F>(call));
    counters_.tck += inner_.tck_count() - before;
    return result;
  }

  testcard::SimTestCard inner_;
  Tracer* tracer_;
  Counters counters_;
};

/// Forwarding WAL observer placed in front of the Archive: times every
/// callback and groups them into commits (one auto-committed row, or one
/// insert batch).
class TracingObserver final : public db::DatabaseObserver {
 public:
  TracingObserver(db::DatabaseObserver* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const std::vector<double>& commit_us() const { return commit_us_; }

  void OnInsert(const db::Table& table, const db::Row& row) override {
    Timed("wal.insert", [&] { inner_->OnInsert(table, row); });
  }
  void OnDelete(const db::Table& table,
                const std::vector<db::Row>& removed) override {
    Timed("wal.delete", [&] { inner_->OnDelete(table, removed); });
  }
  void OnUpdate(const db::Table& table,
                const std::vector<std::pair<db::Row, db::Row>>& changes) override {
    Timed("wal.update", [&] { inner_->OnUpdate(table, changes); });
  }
  void OnInsertBatchBegin(const db::Table& table) override {
    in_batch_ = true;
    Timed("wal.batch_begin", [&] { inner_->OnInsertBatchBegin(table); });
  }
  void OnInsertBatchEnd(const db::Table& table, bool committed) override {
    Timed("wal.batch_end", [&] { inner_->OnInsertBatchEnd(table, committed); });
    in_batch_ = false;
    EndCommit();
  }
  void OnCreateTable(const db::Schema& schema) override {
    Timed("wal.create_table", [&] { inner_->OnCreateTable(schema); });
  }
  void OnDropTable(const std::string& name) override {
    Timed("wal.drop_table", [&] { inner_->OnDropTable(name); });
  }
  void OnCreateIndex(const db::Table& table, const std::string& name,
                     const std::vector<std::string>& columns,
                     db::IndexKind kind) override {
    Timed("wal.create_index",
          [&] { inner_->OnCreateIndex(table, name, columns, kind); });
  }
  void OnDropIndex(const db::Table& table, const std::string& name) override {
    Timed("wal.drop_index", [&] { inner_->OnDropIndex(table, name); });
  }

 private:
  template <typename F>
  void Timed(const char* name, F&& call) {
    const int64_t start = Tracer::NowNs();
    call();
    const int64_t end = Tracer::NowNs();
    tracer_->Call(Layer::kDb, name, start, end);
    pending_ns_ += end - start;
    if (!in_batch_) EndCommit();
  }
  void EndCommit() {
    commit_us_.push_back(static_cast<double>(pending_ns_) / 1e3);
    pending_ns_ = 0;
  }

  db::DatabaseObserver* inner_;
  Tracer* tracer_;
  bool in_batch_ = false;
  int64_t pending_ns_ = 0;
  std::vector<double> commit_us_;
};

/// Commit timestamps, from the committer thread's progress callbacks.
class CommitClock final : public core::ProgressMonitor {
 public:
  bool OnExperiment(int, int, const core::LoggedState&) override {
    Stamp();
    return true;
  }
  void Stamp() { stamps_ns_.push_back(Tracer::NowNs()); }
  const std::vector<int64_t>& stamps_ns() const { return stamps_ns_; }

 private:
  std::vector<int64_t> stamps_ns_;
};

/// Everything a traced session adds around the program.
struct Seams {
  explicit Seams(Tracer* t) : tracer(t) {
    config.golden_registry = std::make_shared<cpu::GoldenRegistry>();
  }

  /// Builds one traced card; the seams own it so its counters outlive the
  /// targets the runner destroys at the end of Run.
  TracingCard* NewCard() {
    cards.push_back(std::make_unique<TracingCard>(config, tracer));
    return cards.back().get();
  }

  Tracer* tracer;
  cpu::CpuConfig config;  ///< one golden registry, like MakeSimThorFactory
  std::vector<std::unique_ptr<TracingCard>> cards;
  std::unique_ptr<TracingObserver> observer;
  CommitClock commits;
  int64_t target_build_ns = 0;
};

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

void AddCell(const db::Value& value, CellDigest* digest) {
  switch (value.type()) {
    case db::ValueType::kNull:
      digest->Null();
      break;
    case db::ValueType::kInt:
      digest->Int(value.as_int());
      break;
    case db::ValueType::kReal:
      digest->Real(value.as_real());
      break;
    case db::ValueType::kText:
      digest->Text(value.as_text());
      break;
  }
}

void AddRow(const db::Row& row, CellDigest* digest) {
  for (const db::Value& value : row) AddCell(value, digest);
  digest->EndRow();
}

util::Status DigestTables(core::CampaignStore& store, int experiments,
                          Digest* out) {
  const db::Database& database = store.database();
  std::map<std::string, int> owner;  // row name -> experiment (-1 = reference)
  owner[core::CampaignStore::ReferenceName(kCampaign)] = -1;
  for (int i = 0; i < experiments; ++i) {
    owner[core::CampaignStore::ExperimentName(kCampaign, i)] = i;
  }
  std::vector<CellDigest> per_experiment(static_cast<size_t>(experiments));
  CellDigest reference;
  CellDigest tables;
  for (const char* name : {"TargetSystemData", "CampaignData", "LoggedSystemState"}) {
    const db::Table* table = database.GetTable(name);
    if (table == nullptr) return util::NotFound(std::string("no table ") + name);
    tables.Text(name);
    const bool logged = std::string(name) == "LoggedSystemState";
    util::Status status = util::Status::Ok();
    table->ForEach([&](const db::Row& row) {
      AddRow(row, &tables);
      if (!logged || !status.ok()) return;
      const std::string& row_name = row[0].as_text();
      auto it = owner.find(row[1].is_null() ? row_name : row[1].as_text());
      if (it == owner.end()) {
        status = util::Internal("row " + row_name + " belongs to no experiment");
        return;
      }
      owner.emplace(row_name, it->second);
      AddRow(row, it->second < 0 ? &reference
                                 : &per_experiment[static_cast<size_t>(it->second)]);
    });
    if (!status.ok()) return status;
    if (logged) out->rows = static_cast<int64_t>(table->size());
  }
  out->tables = tables.value();
  out->reference = reference.value();
  out->experiments.clear();
  for (const CellDigest& digest : per_experiment) {
    out->experiments.push_back(digest.value());
  }
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Session phases
// ---------------------------------------------------------------------------

core::TargetSystemData DescribeTarget(const Plan& plan) {
  if (!plan.thor) return core::SwifiSimTarget::Describe();
  testcard::SimTestCard card;
  return core::ThorRdTarget::DescribeTarget(card, core::ThorRdTarget::kTargetName);
}

/// Counters a fault-injection phase leaves behind, for the traced metrics.
struct RunFacts {
  int warm_starts = 0;
  core::ConvergenceStats prune;
  core::EquivalenceStats dedup;
  cpu::MemoryUsageAggregator::Totals memory;
  cpu::DecodeCache::Stats decode;
  int64_t run_start_ns = 0;
  int64_t run_end_ns = 0;
};

/// The plan inputs the scifi-control runner takes, built exactly as the
/// runner's caller builds them (also timed standalone by TimePlanPhases).
util::Result<std::unique_ptr<core::StaticAnalysis>> BuildStaticAnalysis(
    const core::CampaignData& c) {
  return core::StaticAnalysis::Build(c.workload);
}

util::Result<std::unique_ptr<core::LivenessAnalyzer>> BuildTimeline(
    const core::CampaignData& c) {
  return core::LivenessAnalyzer::Build(
      c.workload, cpu::CpuConfig(),
      std::max<uint64_t>(200000, c.timeout_cycles), c.max_iterations);
}

void AddDecode(const cpu::Cpu& processor, cpu::DecodeCache::Stats* sum) {
  const cpu::DecodeCache::Stats& stats = processor.decode_cache().stats();
  sum->hits += stats.hits;
  sum->misses += stats.misses;
}

util::Status RunParallel(const Plan& plan, core::CampaignStore* store,
                         Seams* seams, RunFacts* facts) {
  const core::CampaignData& c = plan.campaign;
  std::shared_ptr<const core::StaticAnalysis> analysis;
  {
    Tracer::Scope scope(seams ? seams->tracer : nullptr, "static_analysis");
    auto built = BuildStaticAnalysis(c);
    if (!built.ok()) return built.status();
    analysis = std::move(built).value();
  }
  std::shared_ptr<const core::LivenessAnalyzer> timeline;
  {
    Tracer::Scope scope(seams ? seams->tracer : nullptr, "timeline");
    auto built = BuildTimeline(c);
    if (!built.ok()) return built.status();
    timeline = std::move(built).value();
  }
  core::ParallelCampaignRunner::TargetFactory factory;
  if (seams == nullptr) {
    factory = core::MakeSimThorFactory(store);
  } else {
    factory = [store, seams]() -> std::unique_ptr<core::FaultInjectionAlgorithms> {
      const int64_t start = Tracer::NowNs();
      auto target = std::make_unique<core::ThorRdTarget>(store, seams->NewCard());
      seams->target_build_ns += Tracer::NowNs() - start;
      return target;
    };
  }
  core::ParallelCampaignRunner runner(store, std::move(factory), kWorkers);
  runner.SetForceWarmStart(true);
  runner.SetConvergencePruning(true);
  runner.SetEquivalenceClassing(true);
  runner.SetEquivalenceTimeline(std::move(timeline));
  runner.SetStaticAnalysis(std::move(analysis));
  if (seams != nullptr) runner.SetProgressMonitor(&seams->commits);
  util::Status status;
  {
    Tracer::Scope scope(seams ? seams->tracer : nullptr, "ParallelCampaignRunner::Run");
    facts->run_start_ns = Tracer::NowNs();
    status = runner.Run(c.name);
    facts->run_end_ns = Tracer::NowNs();
  }
  facts->warm_starts = runner.warm_starts();
  facts->prune = runner.prune_stats();
  facts->dedup = runner.dedup_stats();
  facts->memory = runner.memory_usage();
  if (seams != nullptr) {
    for (const auto& card : seams->cards) AddDecode(card->inner_cpu(), &facts->decode);
  }
  return status;
}

util::Status RunSerial(const Plan& plan, core::CampaignStore* store,
                       Seams* seams, RunFacts* facts) {
  Tracer* tracer = seams ? seams->tracer : nullptr;
  const int64_t build_start = Tracer::NowNs();
  std::unique_ptr<testcard::SimTestCard> plain_card;
  std::unique_ptr<core::FaultInjectionAlgorithms> target;
  const cpu::Cpu* processor = nullptr;
  if (!plan.thor) {
    auto swifi = std::make_unique<core::SwifiSimTarget>(store);
    processor = &swifi->cpu();
    target = std::move(swifi);
  } else if (seams != nullptr) {
    TracingCard* card = seams->NewCard();
    processor = &card->inner_cpu();
    target = std::make_unique<core::ThorRdTarget>(store, card);
  } else {
    plain_card = std::make_unique<testcard::SimTestCard>();
    processor = &plain_card->cpu();
    target = std::make_unique<core::ThorRdTarget>(store, plain_card.get());
  }
  if (seams != nullptr) seams->target_build_ns += Tracer::NowNs() - build_start;
  target->SetCheckpointInterval(0);  // the cold path: no reducers
  if (seams != nullptr) target->SetProgressMonitor(&seams->commits);

  util::Status status;
  {
    Tracer::Scope scope(tracer, "RunCampaign");
    facts->run_start_ns = Tracer::NowNs();
    status = target->RunCampaign(plan.campaign.name);
  }
  if (status.ok() && plan.detail_reruns) {
    Tracer::Scope scope(tracer, "RerunDetailed");
    const int n = plan.campaign.num_experiments;
    for (int i = -1; i < n && status.ok(); ++i) {
      status = target->RerunDetailed(
          i < 0 ? core::CampaignStore::ReferenceName(plan.campaign.name)
                : core::CampaignStore::ExperimentName(plan.campaign.name, i));
      if (seams != nullptr) seams->commits.Stamp();
    }
  }
  facts->run_end_ns = Tracer::NowNs();
  facts->warm_starts = target->warm_starts();
  facts->prune = target->prune_stats();
  cpu::MemoryUsageAggregator memory;
  if (const cpu::Memory* m = target->TargetMemory()) memory.Add(*m);
  facts->memory = memory.totals();
  AddDecode(*processor, &facts->decode);
  return status;
}

util::Status RunFaultInjection(const Plan& plan, core::CampaignStore* store,
                               Seams* seams, RunFacts* facts) {
  return plan.parallel ? RunParallel(plan, store, seams, facts)
                       : RunSerial(plan, store, seams, facts);
}

/// §3.4 analysis (plus §3.3 propagation for detail re-runs). Fills the
/// outcome counts of `digest` and the analysis/propagation layer times.
util::Status Analyze(const Plan& plan, const core::CampaignStore& store,
                     Tracer* tracer, Digest* digest,
                     std::map<std::string, double>* layers) {
  const int64_t start = Tracer::NowNs();
  auto report = core::AnalyzeCampaign(store, plan.campaign.name);
  if (!report.ok()) return report.status();
  const int64_t campaign_end = Tracer::NowNs();
  auto groups = core::AnalyzeByLocationGroup(store, plan.campaign.name);
  if (!groups.ok()) return groups.status();
  const int64_t groups_end = Tracer::NowNs();
  if (plan.detail_reruns) {
    Tracer::Scope scope(tracer, "AnalyzeErrorPropagation");
    for (int i = 0; i < plan.campaign.num_experiments; ++i) {
      auto propagation = core::AnalyzeErrorPropagation(
          store, core::CampaignStore::ExperimentName(plan.campaign.name, i));
      if (!propagation.ok()) return propagation.status();
    }
  }
  const int64_t end = Tracer::NowNs();
  digest->outcomes.clear();
  for (const auto& [outcome, count] : report.value().by_outcome) {
    digest->outcomes[core::OutcomeName(outcome)] = count;
  }
  if (layers != nullptr) {
    (*layers)["analysis.campaign_s"] = Seconds(campaign_end - start);
    (*layers)["analysis.groups_s"] = Seconds(groups_end - campaign_end);
    (*layers)["propagation.s"] = Seconds(end - groups_end);
  }
  return util::Status::Ok();
}

/// Sums over the logged main rows (reference included): instret, loop
/// iterations.
void SumLoggedRows(const core::CampaignStore& store, const Plan& plan,
                   double* instret, double* iterations) {
  *instret = 0;
  *iterations = 0;
  for (int i = -1; i < plan.campaign.num_experiments; ++i) {
    auto row = store.GetExperiment(
        i < 0 ? core::CampaignStore::ReferenceName(plan.campaign.name)
              : core::CampaignStore::ExperimentName(plan.campaign.name, i));
    if (!row.ok()) continue;
    *instret += static_cast<double>(row.value().state.instret);
    *iterations += row.value().state.iterations;
  }
}

/// The per-layer metrics of one traced session (see README.md for each).
void SessionLayers(const Plan& plan, const Seams& seams, const RunFacts& facts,
                   const db::ArchiveStats& closed, const db::ArchiveStats& reopened,
                   double open_s, double stmt_hit_frac,
                   core::CampaignStore& store, const Digest& digest,
                   std::map<std::string, double>* out) {
  const Tracer& tracer = *seams.tracer;
  auto& m = *out;
  const double fi_s = Seconds(facts.run_end_ns - facts.run_start_ns);
  const int n = plan.campaign.num_experiments;

  // parallel_runner
  const std::vector<int64_t>& stamps = seams.commits.stamps_ns();
  std::vector<double> gaps_us;
  for (size_t i = 1; i < stamps.size(); ++i) {
    gaps_us.push_back(static_cast<double>(stamps[i] - stamps[i - 1]) / 1e3);
  }
  m["parallel_runner.first_result_s"] =
      stamps.empty() ? 0.0 : Seconds(stamps.front() - facts.run_start_ns);
  m["parallel_runner.target_build_s"] = Seconds(seams.target_build_ns);
  m["parallel_runner.commit_gap_p50_us"] = Percentile(gaps_us, 50);
  m["parallel_runner.commit_gap_p99_us"] = Percentile(gaps_us, 99);

  const double db_s = Seconds(tracer.Totals(Layer::kDb).ns);
  if (plan.parallel) {
    // Workers are busy from their first to their last card call; before
    // that the committer builds the golden run and plans, after it the
    // committer drains. Imbalance compares the card time of the workers.
    const Layer card_layers[] = {Layer::kCpu, Layer::kScan, Layer::kTestcard,
                                 Layer::kCheckpoint, Layer::kConvergence};
    double window_sum = 0;
    double work_sum = 0;
    double work_max = 0;
    const int workers = tracer.lanes() - 1;  // lane 0 is the committer
    for (int lane = 1; lane <= workers; ++lane) {
      const auto [first, last] = tracer.CallWindow(lane);
      window_sum += Seconds(last - first);
      int64_t ns = 0;
      for (Layer layer : card_layers) ns += tracer.Totals(layer, lane).ns;
      work_sum += Seconds(ns);
      work_max = std::max(work_max, Seconds(ns));
    }
    m["parallel_runner.worker_busy_frac"] =
        workers > 0 && fi_s > 0 ? window_sum / (workers * fi_s) : 0;
    m["parallel_runner.worker_imbalance"] =
        work_sum > 0 ? work_max / (work_sum / workers) : 1.0;
  } else {
    // Serial driver: the one thread works whenever it is not committing.
    m["parallel_runner.worker_busy_frac"] = fi_s > 0 ? (fi_s - db_s) / fi_s : 0;
    m["parallel_runner.worker_imbalance"] = 1.0;
  }

  // checkpoint, convergence
  TracingCard::Counters cards;
  for (const auto& card : seams.cards) {
    const TracingCard::Counters& c = card->counters();
    cards.instret += c.instret;
    cards.run_calls += c.run_calls;
    cards.step_calls += c.step_calls;
    cards.tck += c.tck;
    cards.words += c.words;
    cards.save_ns += c.save_ns;
    cards.restore_ns += c.restore_ns;
  }
  m["checkpoint.warm_starts"] = facts.warm_starts;
  m["checkpoint.save_s"] = Seconds(cards.save_ns);
  m["checkpoint.restore_s"] = Seconds(cards.restore_ns);
  m["convergence.boundary_checks"] = static_cast<double>(facts.prune.boundary_checks);
  m["convergence.pruned_golden"] = static_cast<double>(facts.prune.pruned_golden);
  m["convergence.pruned_memo"] = static_cast<double>(facts.prune.pruned_memo);
  m["convergence.prune_per_check"] =
      facts.prune.boundary_checks > 0
          ? static_cast<double>(facts.prune.pruned_total()) /
                static_cast<double>(facts.prune.boundary_checks)
          : 0.0;
  m["convergence.collision_rejects"] = static_cast<double>(facts.prune.collision_rejects);
  m["convergence.hash_s"] = Seconds(tracer.Totals(Layer::kConvergence).ns);

  // equivalence, static_analysis
  m["equivalence.classes"] = static_cast<double>(facts.dedup.classes_formed);
  m["equivalence.synthesized"] = static_cast<double>(facts.dedup.experiments_synthesized);
  m["equivalence.executed_frac"] =
      n > 0 ? 1.0 - static_cast<double>(facts.dedup.experiments_synthesized) / n : 1.0;
  m["equivalence.spot_checks"] = static_cast<double>(facts.dedup.spot_checks_run);
  m["static_analysis.synthesized"] = static_cast<double>(facts.dedup.static_synthesized);

  // cpu
  double logged_instret = 0;
  double logged_iterations = 0;
  SumLoggedRows(store, plan, &logged_instret, &logged_iterations);
  double run_s = Seconds(tracer.Totals(Layer::kCpu).ns);
  double instret = static_cast<double>(cards.instret);
  if (!plan.thor) {
    // No card seam: every experiment runs cold, so the logged instret is
    // what was simulated, and the commit intervals less the WAL time are
    // the experiments' host time.
    double gaps_s = 0;
    for (double gap : gaps_us) gaps_s += gap / 1e6;
    run_s = std::max(0.0, gaps_s - db_s);
    instret = logged_instret;
  }
  m["cpu.run_s"] = run_s;
  m["cpu.instret"] = instret;
  m["cpu.mips"] = run_s > 0 ? instret / run_s / 1e6 : 0;
  m["cpu.run_calls"] = static_cast<double>(cards.run_calls);
  m["cpu.step_calls"] = static_cast<double>(cards.step_calls);
  const double decodes = static_cast<double>(facts.decode.hits + facts.decode.misses);
  m["cpu.decode_hit_frac"] =
      decodes > 0 ? static_cast<double>(facts.decode.hits) / decodes : 0;
  m["cpu.cow_copies"] = static_cast<double>(facts.memory.cow_faults);
  m["cpu.resident_bytes_per_target"] =
      facts.memory.targets > 0
          ? static_cast<double>(facts.memory.resident_bytes) / facts.memory.targets
          : 0;

  // scan, testcard, env
  const LayerTotals scan = tracer.Totals(Layer::kScan);
  m["scan.s"] = Seconds(scan.ns);
  m["scan.calls"] = static_cast<double>(scan.calls);
  m["scan.tck"] = static_cast<double>(cards.tck);
  m["scan.ns_per_tck"] =
      cards.tck > 0 ? static_cast<double>(scan.ns) / static_cast<double>(cards.tck) : 0;
  const LayerTotals card = tracer.Totals(Layer::kTestcard);
  m["testcard.s"] = Seconds(card.ns);
  m["testcard.calls"] = static_cast<double>(card.calls);
  m["testcard.words"] = static_cast<double>(cards.words);
  m["env.iterations"] = logged_iterations;

  // db
  const double rows = static_cast<double>(digest.rows);
  m["db.commit_s"] = db_s;
  m["db.commit_p99_us"] = Percentile(seams.observer->commit_us(), 99);
  m["db.rows"] = rows;
  m["db.bytes_per_row"] =
      rows > 0 ? static_cast<double>(closed.snapshot_bytes + closed.wal_bytes) / rows : 0;
  m["db.wal_bytes"] = static_cast<double>(closed.wal_bytes);
  m["db.wal_commits"] = static_cast<double>(closed.wal_commits);
  m["db.wal_folds"] = static_cast<double>(closed.checkpoints_folded);
  m["db.snapshot_bytes"] = static_cast<double>(closed.snapshot_bytes);
  m["db.open_s"] = open_s;
  m["db.replayed_records"] = static_cast<double>(reopened.wal_records_replayed);
  m["db.stmt_cache_hit_frac"] = stmt_hit_frac;
}

void RemoveArchive(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".wal", ec);
}

/// A freshly set-up session: database, archive, store, target and campaign.
struct Setup {
  std::unique_ptr<db::Database> database;
  std::unique_ptr<db::Archive> archive;
  std::unique_ptr<core::CampaignStore> store;

  /// Releases in dependency order: the archive detaches from the database.
  void Reset() {
    store.reset();
    archive.reset();
    database.reset();
  }
};

util::Status SetUp(const Plan& plan, const std::string& path, Setup* out) {
  out->database = std::make_unique<db::Database>();
  auto archive = db::Archive::Open(out->database.get(), path);
  if (!archive.ok()) return archive.status();
  out->archive = std::move(archive).value();
  out->store = std::make_unique<core::CampaignStore>(out->database.get());
  out->store->AttachArchive(out->archive.get());
  GOOFI_RETURN_IF_ERROR(out->store->PutTargetSystem(DescribeTarget(plan)));
  return out->store->PutCampaign(plan.campaign);
}

/// The reference row must be the golden run the workload is sized on. If it
/// were not (say the workload grew), every experiment could time out and
/// still match the reference.
util::Status CheckGoldenRun(const Plan& plan, const core::CampaignStore& store) {
  auto row = store.GetExperiment(core::CampaignStore::ReferenceName(plan.campaign.name));
  if (!row.ok()) return row.status();
  const core::LoggedState& s = row.value().state;
  // Batch workloads end at HALT, control workloads after their iterations.
  const bool ended = s.halted || s.iterations == plan.campaign.max_iterations;
  if (ended && !s.detected && !s.timed_out && !s.env_failed &&
      s.instret == plan.golden_instr && s.cycles == plan.golden_cycles) {
    return util::Status::Ok();
  }
  return util::Internal(
      "reference run of " + plan.campaign.workload + " is not the golden run the "
      "workload is sized on: ended " + std::to_string(ended) + ", detected " +
      std::to_string(s.detected) + ", timed out " + std::to_string(s.timed_out) +
      ", " + std::to_string(s.instret) + " instructions and " +
      std::to_string(s.cycles) + " cycles, expected " +
      std::to_string(plan.golden_instr) + " and " + std::to_string(plan.golden_cycles));
}

SessionResult Fail(SessionResult result, const std::string& what,
                   const util::Status& status) {
  result.error = what + ": " + status.ToString();
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload workload : {Workload::kScifiControl, Workload::kSwifiBatch,
                            Workload::kDetailArchive}) {
    if (name == WorkloadName(workload)) {
      *out = workload;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kScifiControl:
      return "scifi-control";
    case Workload::kSwifiBatch:
      return "swifi-batch";
    case Workload::kDetailArchive:
      return "detail-archive";
  }
  return "?";
}

SessionResult RunSession(const SessionConfig& config) {
  SessionResult result;
  const Plan plan = PlanFor(config.workload, config.seed, config.experiments);
  result.experiments = plan.campaign.num_experiments;
  Tracer* tracer = config.tracer;
  std::unique_ptr<Seams> seams;
  if (tracer != nullptr) seams = std::make_unique<Seams>(tracer);

  // 1. Set-up, repeated; the last repeat's session carries on.
  Setup setup;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup.Reset();
    RemoveArchive(config.archive_path);
    Tracer::Scope scope(tracer, "setup");
    const int64_t start = Tracer::NowNs();
    const util::Status status = SetUp(plan, config.archive_path, &setup);
    setup_s.push_back(Seconds(Tracer::NowNs() - start));
    if (!status.ok()) return Fail(result, "set-up", status);
  }
  result.setup_s = Percentile(setup_s, 50);
  if (seams != nullptr) {
    seams->observer =
        std::make_unique<TracingObserver>(setup.archive.get(), tracer);
    setup.database->SetObserver(seams->observer.get());
  }

  // 2. Fault injection: first plan input .. last durable commit.
  RunFacts facts;
  {
    Tracer::Scope scope(tracer, "fault_injection");
    const int64_t start = Tracer::NowNs();
    const util::Status status =
        RunFaultInjection(plan, setup.store.get(), seams.get(), &facts);
    result.campaign_s = Seconds(Tracer::NowNs() - start);
    if (!status.ok()) return Fail(result, "fault injection", status);
  }

  // 3. Close.
  const db::ArchiveStats closed = setup.archive->stats();
  {
    Tracer::Scope scope(tracer, "close");
    const util::Status status = setup.archive->Close();
    if (!status.ok()) return Fail(result, "close", status);
  }
  uint64_t statement_hits = setup.store->statement_cache().hits();
  uint64_t statement_misses = setup.store->statement_cache().misses();
  setup.Reset();

  // 4. Recovery + analysis on the reopened archive.
  Setup reopened;
  double open_s = 0;
  {
    Tracer::Scope scope(tracer, "recovery");
    const int64_t start = Tracer::NowNs();
    reopened.database = std::make_unique<db::Database>();
    auto archive = db::Archive::Open(reopened.database.get(), config.archive_path);
    if (!archive.ok()) return Fail(result, "reopen", archive.status());
    reopened.archive = std::move(archive).value();
    const int64_t opened = Tracer::NowNs();
    reopened.store = std::make_unique<core::CampaignStore>(reopened.database.get());
    reopened.store->AttachArchive(reopened.archive.get());
    result.recovery_s = Seconds(Tracer::NowNs() - start);
    open_s = Seconds(opened - start);
  }
  {
    Tracer::Scope scope(tracer, "analysis");
    const int64_t start = Tracer::NowNs();
    const util::Status status = Analyze(plan, *reopened.store, tracer, &result.digest,
                                        tracer ? &result.layers : nullptr);
    result.analysis_s = Seconds(Tracer::NowNs() - start);
    if (!status.ok()) return Fail(result, "analysis", status);
  }

  const util::Status digested =
      DigestTables(*reopened.store, plan.campaign.num_experiments, &result.digest);
  if (!digested.ok()) return Fail(result, "digest", digested);
  if (seams != nullptr) {
    statement_hits += reopened.store->statement_cache().hits();
    statement_misses += reopened.store->statement_cache().misses();
    const double lookups = static_cast<double>(statement_hits + statement_misses);
    SessionLayers(plan, *seams, facts, closed, reopened.archive->stats(), open_s,
                  lookups > 0 ? static_cast<double>(statement_hits) / lookups : 0,
                  *reopened.store, result.digest, &result.layers);
  }
  const util::Status closed_again = reopened.archive->Close();
  if (!closed_again.ok()) return Fail(result, "final close", closed_again);
  reopened.Reset();
  RemoveArchive(config.archive_path);
  return result;
}

SessionResult RunColdReference(Workload workload, uint64_t seed, int experiments) {
  SessionResult result;
  Plan plan = PlanFor(workload, seed, experiments);
  plan.parallel = false;  // serial driver, every reducer off
  result.experiments = plan.campaign.num_experiments;
  db::Database database;
  core::CampaignStore store(&database);
  util::Status status = store.PutTargetSystem(DescribeTarget(plan));
  if (status.ok()) status = store.PutCampaign(plan.campaign);
  if (!status.ok()) return Fail(result, "set-up", status);
  RunFacts facts;
  const int64_t start = Tracer::NowNs();
  status = RunSerial(plan, &store, nullptr, &facts);
  result.campaign_s = Seconds(Tracer::NowNs() - start);
  if (!status.ok()) return Fail(result, "fault injection", status);
  status = CheckGoldenRun(plan, store);
  if (!status.ok()) return Fail(result, "golden run", status);
  status = Analyze(plan, store, nullptr, &result.digest, nullptr);
  if (!status.ok()) return Fail(result, "analysis", status);
  status = DigestTables(store, plan.campaign.num_experiments, &result.digest);
  if (!status.ok()) return Fail(result, "digest", status);
  return result;
}

std::string TimePlanPhases(Workload workload, uint64_t seed, int experiments,
                           Tracer* tracer, std::map<std::string, double>* layers) {
  Plan plan = PlanFor(workload, seed, experiments);
  if (plan.detail_reruns) plan.campaign.log_mode = core::LogMode::kDetail;
  const core::CampaignData& c = plan.campaign;
  auto& m = *layers;
  Tracer::Scope phases(tracer, "plan_phases");
  // Runs one phase under its own span and stores its duration as `metric`.
  auto timed = [&](const char* span, const char* metric, auto&& phase) {
    Tracer::Scope scope(tracer, span);
    const int64_t start = Tracer::NowNs();
    util::Status status = phase();
    m[metric] = Seconds(Tracer::NowNs() - start);
    return status.ok() ? std::string() : std::string(span) + ": " + status.ToString();
  };
  std::string error;

  std::unique_ptr<core::StaticAnalysis> analysis;
  error = timed("StaticAnalysis::Build", "static_analysis.build_s", [&] {
    auto built = BuildStaticAnalysis(c);
    if (built.ok()) analysis = std::move(built).value();
    return built.status();
  });
  if (!error.empty()) return error;

  std::unique_ptr<core::LivenessAnalyzer> timeline;
  error = timed("LivenessAnalyzer::Build", "preinjection.timeline_build_s", [&] {
    auto built = BuildTimeline(c);
    if (built.ok()) timeline = std::move(built).value();
    return built.status();
  });
  if (!error.empty()) return error;

  db::Database database;
  core::CampaignStore store(&database);
  testcard::SimTestCard card;
  std::unique_ptr<core::FaultInjectionAlgorithms> target;
  if (plan.thor) {
    target = std::make_unique<core::ThorRdTarget>(&store, &card);
  } else {
    target = std::make_unique<core::SwifiSimTarget>(&store);
  }
  target->SetCheckpointInterval(0);
  error = timed("PrepareCampaign", "algorithms.prepare_s",
                [&] { return target->PrepareCampaign(c); });
  if (!error.empty()) return error;

  const uint64_t interval = core::FaultInjectionAlgorithms::kDefaultCheckpointInterval;
  auto cache = std::make_shared<core::CheckpointCache>(interval);
  auto trace = std::make_shared<core::GoldenTrace>();
  error = timed("BuildGoldenRun", "checkpoint.golden_run_s", [&] {
    return target->BuildGoldenRun(interval, cache.get(),
                                  plan.parallel ? trace.get() : nullptr);
  });
  if (!error.empty()) return error;
  m["checkpoint.count"] = static_cast<double>(cache->size());
  m["checkpoint.bytes"] = static_cast<double>(cache->MemoryBytes());

  uint64_t golden_end = 0;
  error = timed("ExecuteExperiment(-1)", "algorithms.reference_run_s", [&] {
    auto rows = target->ExecuteExperiment(-1);
    if (rows.ok()) golden_end = rows.value().front().state.instret;
    return rows.status();
  });
  if (!error.empty()) return error;

  std::vector<std::vector<core::FaultInstance>> plans;
  error = timed("PlanFaults", "equivalence.plan_s", [&] {
    for (int i = 0; i < c.num_experiments; ++i) {
      auto faults = target->PlanFaults(i);
      if (!faults.ok()) return faults.status();
      plans.push_back(std::move(faults).value());
    }
    return util::Status::Ok();
  });
  if (!error.empty()) return error;

  timed("EquivalenceClasser", "equivalence.classify_s", [&] {
    core::EquivalenceClasser::Config config;
    config.technique = c.technique;
    config.fault_model = c.fault_model;
    config.faults_per_experiment = c.faults_per_experiment;
    config.has_golden_end = true;
    config.golden_end_instret = golden_end;
    config.static_analysis = analysis.get();
    core::EquivalenceClasser classer(timeline.get(), config);
    for (size_t i = 0; i < plans.size(); ++i) {
      classer.Add(static_cast<int>(i), plans[i]);
    }
    return util::Status::Ok();
  });

  // Single experiments for about a second, set up the way the workload's
  // plan runs them.
  if (plan.parallel) {
    target->SetCheckpointCache(cache);
    target->SetConvergencePruning(true);
    target->SetGoldenTrace(trace);
    target->SetConvergenceMemo(std::make_shared<core::ConvergenceMemo>());
    const util::Status status = target->PrepareGoldenBaseline();
    if (!status.ok()) return "golden baseline: " + status.ToString();
  }
  std::vector<double> experiment_us;
  Tracer::Scope scope(tracer, "ExecuteExperiment sample");
  const int64_t deadline = Tracer::NowNs() + 1'000'000'000;
  for (int i = 0; i < c.num_experiments && Tracer::NowNs() < deadline; ++i) {
    const int64_t start = Tracer::NowNs();
    auto rows = target->ExecuteExperiment(i);
    if (!rows.ok()) return "experiment: " + rows.status().ToString();
    experiment_us.push_back(static_cast<double>(Tracer::NowNs() - start) / 1e3);
  }
  m["algorithms.experiment_p50_us"] = Percentile(experiment_us, 50);
  m["algorithms.experiment_p99_us"] = Percentile(experiment_us, 99);
  m["algorithms.experiment_samples"] = static_cast<double>(experiment_us.size());
  return "";
}

}  // namespace perfbench
