#include "core/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <stop_token>
#include <thread>
#include <vector>

#include "core/swifi_target.hpp"
#include "core/thor_target.hpp"
#include "cpu/state_hash.hpp"
#include "db/archive.hpp"
#include "testcard/testcard.hpp"
#include "util/log.hpp"

namespace goofi::core {

namespace {

using Rows = std::vector<CampaignStore::ExperimentRow>;

/// Rows per ordered commit of a threaded run. An inline run commits every
/// experiment on its own.
constexpr size_t kBatchRows = 64;

/// One execution's outcome — a unit's representative or a spot-checked
/// member: its rows, filled by the thread that executed it and consumed by
/// the committer in experiment order (spot checks in class order).
struct Slot {
  bool done = false;
  util::Status status;
  Rows rows;
  int skipped_dead = 0;  ///< liveness-filter skips of the execution
};

/// The equivalence-classing inputs of a run.
struct Classing {
  const LivenessAnalyzer* timeline = nullptr;
  const StaticAnalysis* static_analysis = nullptr;
  int spot_check_every = 0;
};

/// Digest of a full result-row set for spot-check comparison: name, parent,
/// campaign, data and serialized state of every row, order-sensitive. The
/// capture blob makes equal hashes mean equal rows.
void HashRows(const Rows& rows, cpu::StateHasher* hasher) {
  hasher->U64(rows.size());
  for (const CampaignStore::ExperimentRow& row : rows) {
    hasher->Str(row.experiment_name);
    hasher->Str(row.parent_experiment);
    hasher->Str(row.campaign_name);
    hasher->Str(row.experiment_data);
    hasher->Str(row.state.Serialize());
  }
}

bool RowsIdentical(const Rows& a, const Rows& b) {
  cpu::StateHasher hash_a(/*capture=*/true);
  cpu::StateHasher hash_b(/*capture=*/true);
  HashRows(a, &hash_a);
  HashRows(b, &hash_b);
  return hash_a.hash() == hash_b.hash() && hash_a.blob() == hash_b.blob();
}

/// The dispatch-and-commit loop of one campaign run (see the header).
class CampaignLoop {
 public:
  /// Reads which experiments are already logged (Fig. 7 restart).
  CampaignLoop(CampaignStore* store, const CampaignData& campaign,
               ProgressMonitor* monitor)
      : store_(store), campaign_(campaign), monitor_(monitor) {
    need_reference_ =
        !store_->GetExperiment(CampaignStore::ReferenceName(campaign_.name))
             .ok();
    for (int i = 0; i < campaign_.num_experiments; ++i) {
      if (store_->GetExperiment(CampaignStore::ExperimentName(campaign_.name, i))
              .ok()) {
        ++stats_.experiments_resumed;
      } else {
        pending_.push_back(i);
      }
    }
  }

  size_t pending() const { return pending_.size(); }
  const FaultInjectionAlgorithms::Stats& stats() const { return stats_; }
  const EquivalenceStats& dedup_stats() const { return dedup_; }

  /// Runs the reference run (unless logged) and every pending experiment on
  /// the prepared `targets`: inline with one, one thread each with more.
  /// The spot checks run on the same targets: after the last commit with
  /// one, as extra work after the last class with more. `committer` plans
  /// fault lists and re-executes members of detail-capped classes; it is
  /// only used with `classing`.
  util::Status Run(std::span<FaultInjectionAlgorithms* const> targets,
                   FaultInjectionAlgorithms* committer,
                   const Classing* classing);

 private:
  util::Status Classify(const Classing& classing,
                        const LoggedState& reference_state);
  size_t UnitOf(size_t pos) const {
    return classer_ ? classer_->class_of(pos) : pos;
  }
  /// The pending position that executes for `unit`.
  size_t Representative(size_t unit) const {
    return classer_ ? static_cast<size_t>(
                          classer_->classes()[unit].representative)
                    : unit;
  }
  /// Runs `call`, a target call for experiment `index` (-1: the reference
  /// run), and turns a std::exception it throws (a user-written target's,
  /// or std::bad_alloc) into an error for that experiment. Every target call
  /// of the loop goes through here, on the workers' side and the
  /// committer's alike, so a throwing target ends an inline or threaded run
  /// with the same status after committing the same prefix.
  template <typename Call>
  auto Guarded(int index, Call&& call) const -> decltype(call()) {
    try {
      return call();
    } catch (const std::exception& e) {
      return util::Internal(
          "experiment " +
          (index < 0 ? CampaignStore::ReferenceName(campaign_.name)
                     : CampaignStore::ExperimentName(campaign_.name, index)) +
          " threw: " + e.what());
    }
  }
  /// Executes the experiment at pending position `pos`: its planned fault
  /// list under classing, a fresh draw otherwise.
  Slot Execute(FaultInjectionAlgorithms& target, size_t pos);
  /// A representative whose detail log hit the row cap has no usable suffix
  /// to synthesize members from.
  bool Capped(size_t unit) const {
    return classer_->classes()[unit].suffix_filtered &&
           slots_[unit].rows.size() - 1 >=
               FaultInjectionAlgorithms::kMaxDetailRows;
  }
  util::Result<Rows> RowsAt(size_t pos, size_t unit);
  /// The spot-check sample: every n-th multi-member class whose members were
  /// synthesized (a capped class ran its members live), counted in class
  /// order. Called once per class, in class order, once the class's rows
  /// have been taken for commit.
  bool SelectForSpotCheck(size_t unit);
  /// The member a spot check of `unit` re-executes: its first member that
  /// is not the representative.
  size_t SpotCheckMember(size_t unit) const {
    const EquivalenceClasser::Class& cls = classer_->classes()[unit];
    return static_cast<size_t>(cls.members[0] != cls.representative
                                   ? cls.members[0]
                                   : cls.members[1]);
  }
  /// The collision/logic backstop: the live re-execution `actual` of the
  /// spot-checked member of `unit` must equal its synthesized rows byte for
  /// byte.
  util::Status CheckSpot(size_t unit, const Slot& actual);

  CampaignStore* store_;
  const CampaignData& campaign_;
  ProgressMonitor* monitor_;
  bool need_reference_ = false;
  std::vector<int> pending_;
  FaultInjectionAlgorithms* committer_ = nullptr;
  /// Unset: the trivial partition, unit u is pending position u.
  std::optional<EquivalenceClasser> classer_;
  std::vector<std::vector<FaultInstance>> plans_;
  std::vector<int> plan_skips_;
  std::vector<Slot> slots_;  ///< one per unit
  int spot_check_every_ = 0;  ///< 0: no spot checks
  int64_t spot_eligible_ = 0;
  size_t units_met_ = 0;  ///< classes whose first member has come up
  std::vector<size_t> checks_;     ///< spot-checked units, in class order
  std::vector<Slot> check_slots_;  ///< one per possible spot check
  FaultInjectionAlgorithms::Stats stats_;
  EquivalenceStats dedup_;
};

util::Status CampaignLoop::Run(
    std::span<FaultInjectionAlgorithms* const> targets,
    FaultInjectionAlgorithms* committer, const Classing* classing) {
  committer_ = committer;
  // With a durable archive attached, WAL group commits follow our commits:
  // records buffer until each PutExperiments and flush once there.
  std::optional<db::Archive::GroupCommitScope> wal_group;
  if (store_->archive() != nullptr) wal_group.emplace(store_->archive());

  // The reference run commits before any experiment row, matching serial
  // insertion order. Its final state doubles as the golden endpoint for the
  // equivalence classer (injection past it provably never happens).
  LoggedState reference_state;
  if (need_reference_) {
    auto rows =
        Guarded(-1, [&]() { return targets[0]->ExecuteExperiment(-1); });
    if (!rows.ok()) return rows.status();
    if (classing != nullptr) reference_state = rows.value().front().state;
    GOOFI_RETURN_IF_ERROR(store_->PutExperiments(rows.value()));
  } else if (classing != nullptr) {
    auto reference =
        store_->GetExperiment(CampaignStore::ReferenceName(campaign_.name));
    if (!reference.ok()) return reference.status();
    reference_state = std::move(reference).value().state;
  }
  if (pending_.empty()) return util::Status::Ok();
  if (classing != nullptr) {
    GOOFI_RETURN_IF_ERROR(Classify(*classing, reference_state));
    if (classing->spot_check_every > 0) {
      spot_check_every_ = classing->spot_check_every;
      check_slots_.resize(static_cast<size_t>(
          (dedup_.classes_formed + spot_check_every_ - 1) / spot_check_every_));
    }
  }
  slots_.resize(classer_ ? classer_->classes().size() : pending_.size());

  // Dispatch: with more than one target, each worker thread pulls units off
  // a shared cursor and parks the results in per-unit slots. Once the units
  // run out it takes the spot checks the committer selects, until the
  // committer closes the list or stops the worker.
  const bool threaded = targets.size() > 1;
  std::atomic<size_t> cursor{0};
  std::mutex mutex;
  std::condition_variable slot_ready;       // a unit or spot check finished
  std::condition_variable_any check_ready;  // a check was selected, or closed
  size_t checks_taken = 0;
  bool checks_closed = spot_check_every_ == 0;
  // Declared after everything the workers use, so that a committer error
  // thrown past this frame still stops and joins them first.
  std::vector<std::jthread> workers;
  if (threaded) {
    workers.reserve(targets.size());
    for (FaultInjectionAlgorithms* target : targets) {
      workers.emplace_back([&, target](const std::stop_token& stop) {
        while (!stop.stop_requested()) {
          const size_t unit = cursor.fetch_add(1, std::memory_order_relaxed);
          if (unit >= slots_.size()) break;
          Slot slot = Execute(*target, Representative(unit));
          {
            std::lock_guard<std::mutex> lock(mutex);
            slots_[unit] = std::move(slot);
          }
          slot_ready.notify_one();
        }
        for (;;) {
          size_t check = 0;
          size_t unit = 0;
          {
            std::unique_lock<std::mutex> lock(mutex);
            check_ready.wait(lock, stop, [&]() {
              return checks_taken < checks_.size() || checks_closed;
            });
            if (stop.stop_requested() || checks_taken == checks_.size()) {
              return;
            }
            check = checks_taken++;
            unit = checks_[check];
          }
          Slot slot = Execute(*target, SpotCheckMember(unit));
          {
            std::lock_guard<std::mutex> lock(mutex);
            check_slots_[check] = std::move(slot);
          }
          slot_ready.notify_one();
        }
      });
    }
  }

  // Single-writer committer, strictly in experiment order; progress
  // callbacks (and early stop) ride this thread. Inline, each experiment is
  // its own commit before the monitor sees it; threaded, ~64 rows are.
  const size_t batch_rows = threaded ? kBatchRows : 1;
  Rows batch;
  util::Status error;
  bool stopped = false;
  auto flush = [&]() {
    if (batch.empty()) return util::Status::Ok();
    util::Status status = store_->PutExperiments(batch);
    batch.clear();
    return status;
  };
  for (size_t pos = 0; pos < pending_.size(); ++pos) {
    const size_t unit = UnitOf(pos);
    if (threaded) {
      std::unique_lock<std::mutex> lock(mutex);
      slot_ready.wait(lock, [&]() { return slots_[unit].done; });
    } else if (!slots_[unit].done) {
      slots_[unit] = Execute(*targets[0], Representative(unit));
    }
    // Past this point no worker touches the slot again.
    auto rows = RowsAt(pos, unit);
    if (!rows.ok()) {
      error = rows.status();
      break;
    }
    // Classes are numbered by their first member, so each class comes up
    // here first in class order: the order the spot-check sample counts in.
    if (unit == units_met_) {
      ++units_met_;
      if (SelectForSpotCheck(unit)) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          checks_.push_back(unit);
        }
        check_ready.notify_one();
      }
    }
    LoggedState last_state;
    if (monitor_ != nullptr) last_state = rows.value().front().state;
    for (CampaignStore::ExperimentRow& row : rows.value()) {
      batch.push_back(std::move(row));
    }
    ++stats_.experiments_run;
    stats_.injections_skipped_dead +=
        classer_ ? plan_skips_[pos] : slots_[unit].skipped_dead;
    if (batch.size() >= batch_rows) {
      error = flush();
      if (!error.ok()) break;
    }
    if (monitor_ != nullptr &&
        !monitor_->OnExperiment(pending_[pos] + 1, campaign_.num_experiments,
                                last_state)) {
      util::Log::Info("campaign " + campaign_.name + " ended by user after " +
                      std::to_string(pending_[pos] + 1) + " experiments");
      stopped = true;  // later experiments are cancelled and discarded
      break;
    }
  }

  // Spot checks, compared in class order. Skipped after an error or early
  // stop: classes past the stop never committed. Threaded, the workers
  // re-execute them; inline, the one target does, after the last commit.
  if (error.ok() && !stopped) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      checks_closed = true;
    }
    check_ready.notify_all();
    for (size_t k = 0; k < checks_.size() && error.ok(); ++k) {
      if (threaded) {
        std::unique_lock<std::mutex> lock(mutex);
        slot_ready.wait(lock, [&]() { return check_slots_[k].done; });
      } else {
        check_slots_[k] = Execute(*targets[0], SpotCheckMember(checks_[k]));
      }
      error = CheckSpot(checks_[k], check_slots_[k]);
    }
  }
  for (std::jthread& worker : workers) worker.request_stop();
  workers.clear();  // joins

  // Commit what completed in order before reporting any error — the same
  // prefix a serial run that failed at this experiment would have logged.
  const util::Status flushed = flush();
  return error.ok() ? flushed : error;
}

util::Status CampaignLoop::Classify(const Classing& classing,
                                    const LoggedState& reference_state) {
  // Plan every pending fault list on the committer's target: the same RNG
  // stream and liveness-filter retries as execution, so the lists are
  // exactly what a plain run would draw. Filter skips are recorded per
  // experiment and charged when it commits, keeping Stats equal to serial.
  plans_.resize(pending_.size());
  plan_skips_.resize(pending_.size());
  for (size_t pos = 0; pos < pending_.size(); ++pos) {
    const int dead_before = committer_->stats().injections_skipped_dead;
    auto faults = Guarded(pending_[pos], [&]() {
      return committer_->PlanFaults(pending_[pos]);
    });
    if (!faults.ok()) return faults.status();
    plan_skips_[pos] =
        committer_->stats().injections_skipped_dead - dead_before;
    plans_[pos] = std::move(faults).value();
  }

  EquivalenceClasser::Config config;
  config.technique = campaign_.technique;
  config.fault_model = campaign_.fault_model;
  config.faults_per_experiment = campaign_.faults_per_experiment;
  config.has_golden_end = true;
  config.golden_end_instret = reference_state.instret;
  config.static_analysis = classing.static_analysis;
  classer_.emplace(classing.timeline, config);
  for (size_t pos = 0; pos < pending_.size(); ++pos) {
    classer_->Add(static_cast<int>(pos), plans_[pos]);
  }
  dedup_.classes_formed = classer_->multi_member_classes();
  return util::Status::Ok();
}

Slot CampaignLoop::Execute(FaultInjectionAlgorithms& target, size_t pos) {
  const int dead_before = target.stats().injections_skipped_dead;
  Slot slot;
  slot.done = true;
  util::Result<Rows> rows = Guarded(pending_[pos], [&]() {
    return classer_ ? target.ExecutePlanned(pending_[pos], plans_[pos])
                    : target.ExecuteExperiment(pending_[pos]);
  });
  if (rows.ok()) {
    slot.rows = std::move(rows).value();
  } else {
    slot.status = rows.status();
  }
  slot.skipped_dead = target.stats().injections_skipped_dead - dead_before;
  return slot;
}

util::Result<Rows> CampaignLoop::RowsAt(size_t pos, size_t unit) {
  Slot& slot = slots_[unit];
  if (!slot.status.ok()) return slot.status;
  if (!classer_) return std::move(slot.rows);
  const EquivalenceClasser::Class& cls = classer_->classes()[unit];
  if (cls.members.size() == 1) return std::move(slot.rows);
  // The representative's rows are copied: later members synthesize from
  // them. Members of a capped class execute live on the committer's target.
  if (static_cast<int>(pos) == cls.representative) return slot.rows;
  if (Capped(unit)) {
    return Guarded(pending_[pos], [&]() {
      return committer_->ExecutePlanned(pending_[pos], plans_[pos]);
    });
  }
  ++dedup_.experiments_synthesized;
  if (cls.static_no_effect) ++dedup_.static_synthesized;
  return SynthesizeMemberRows(slot.rows, campaign_, pending_[pos], plans_[pos],
                              cls.suffix_filtered);
}

bool CampaignLoop::SelectForSpotCheck(size_t unit) {
  if (spot_check_every_ <= 0) return false;
  const EquivalenceClasser::Class& cls = classer_->classes()[unit];
  // Members of a capped class ran live; nothing was synthesized.
  if (cls.members.size() < 2 || Capped(unit)) return false;
  return (spot_eligible_++ % spot_check_every_) == 0;
}

util::Status CampaignLoop::CheckSpot(size_t unit, const Slot& actual) {
  ++dedup_.spot_checks_run;
  if (!actual.status.ok()) return actual.status;
  const size_t member = SpotCheckMember(unit);
  const Rows expected = SynthesizeMemberRows(
      slots_[unit].rows, campaign_, pending_[member], plans_[member],
      classer_->classes()[unit].suffix_filtered);
  if (!RowsIdentical(expected, actual.rows)) {
    return util::Internal(
        "equivalence spot check failed: synthesized rows for " +
        CampaignStore::ExperimentName(campaign_.name, pending_[member]) +
        " differ from a live re-execution");
  }
  ++dedup_.spot_checks_passed;
  return util::Status::Ok();
}

/// The golden-run products a run asks for (see RunOnTargets).
struct GoldenRequest {
  uint64_t interval = 0;  ///< retired instructions between snapshots; 0: none
  bool force_warm_start = false;
  bool convergence_pruning = false;
};

/// The rest of every campaign run, RunCampaign and the runner alike: prepares
/// `targets` for `campaign`; decides and builds the golden-run products once,
/// on the first target; installs them read-only on all targets; and runs
/// `loop` on the first `workers` of them (the last target plans fault lists
/// under `classing`).
util::Status RunOnTargets(CampaignLoop* loop, const CampaignData& campaign,
                          const std::vector<FaultInjectionAlgorithms*>& targets,
                          size_t workers, const GoldenRequest& golden,
                          const Classing* classing) {
  for (FaultInjectionAlgorithms* target : targets) {
    GOOFI_RETURN_IF_ERROR(target->PrepareCampaign(campaign));
  }
  // Warm start applies to the stop-inject-resume techniques, and by default
  // only when every fault injects at or after the first checkpoint interval,
  // so each experiment is guaranteed to skip at least one interval's worth
  // of re-simulation. Any technique can prune: even pre-runtime SWIFI data
  // faults can rejoin the golden trajectory.
  FaultInjectionAlgorithms& first = *targets.front();
  const bool can_build = golden.interval > 0 && first.SupportsCheckpoints();
  const bool want_cache =
      can_build &&
      (campaign.technique == Technique::kScifi ||
       campaign.technique == Technique::kSwifiRuntime) &&
      (golden.force_warm_start || campaign.inject_min_instr >= golden.interval);
  const bool want_trace = can_build && golden.convergence_pruning;
  if (want_cache || want_trace) {
    std::shared_ptr<CheckpointCache> cache;
    if (want_cache) cache = std::make_shared<CheckpointCache>(golden.interval);
    std::shared_ptr<GoldenTrace> trace;
    if (want_trace) trace = std::make_shared<GoldenTrace>();
    GOOFI_RETURN_IF_ERROR(
        first.BuildGoldenRun(golden.interval, cache.get(), trace.get()));
    // One memo for the whole run: a suffix outcome memoized by any worker
    // prunes matching experiments on every worker (single-writer inserts
    // under the memo's lock, shared lock-guarded lookups).
    auto memo =
        trace != nullptr ? std::make_shared<ConvergenceMemo>() : nullptr;
    for (FaultInjectionAlgorithms* target : targets) {
      if (cache != nullptr) target->SetCheckpointCache(cache);
      if (trace == nullptr) continue;
      target->SetConvergencePruning(true);
      target->SetGoldenTrace(trace);
      target->SetConvergenceMemo(memo);
      // Each target needs its own memory baseline for canonical hashing.
      GOOFI_RETURN_IF_ERROR(target->PrepareGoldenBaseline());
    }
  }
  return loop->Run(std::span(targets).first(workers), targets.back(),
                   classing);
}

}  // namespace

util::Status FaultInjectionAlgorithms::RunCampaign(
    const std::string& campaign_name) {
  // readCampaignData(campaignNr) — Fig. 2.
  auto campaign = store_->GetCampaign(campaign_name);
  if (!campaign.ok()) return campaign.status();
  // makeReferenceRun() and the experiment loop — Fig. 2. A campaign that was
  // paused or stopped can be restarted (the progress window of Fig. 7 offers
  // exactly that): rows already in LoggedSystemState are kept and their
  // experiments skipped.
  CampaignLoop loop(store_, campaign.value(), monitor_);
  const util::Status status = RunOnTargets(
      &loop, campaign.value(), {this}, 1,
      {checkpoint_interval_, force_warm_start_, convergence_pruning_}, nullptr);
  stats_ = loop.stats();
  return status;
}

int ParallelCampaignRunner::DefaultWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

ParallelCampaignRunner::ParallelCampaignRunner(CampaignStore* store,
                                               TargetFactory factory,
                                               int num_workers)
    : store_(store),
      factory_(std::move(factory)),
      num_workers_(num_workers > 0 ? num_workers : DefaultWorkers()) {}

util::Status ParallelCampaignRunner::Run(const std::string& campaign_name) {
  stats_ = FaultInjectionAlgorithms::Stats{};
  warm_starts_ = 0;
  prune_stats_ = ConvergenceStats{};
  dedup_stats_ = EquivalenceStats{};
  memory_usage_ = cpu::MemoryUsageAggregator::Totals{};
  auto campaign_or = store_->GetCampaign(campaign_name);
  if (!campaign_or.ok()) return campaign_or.status();
  const CampaignData campaign = std::move(campaign_or).value();
  CampaignLoop loop(store_, campaign, monitor_);

  // Build the target stacks up front; a factory or fault-space error
  // surfaces before any thread starts. A threaded run under classing gets
  // one more target for the committer thread.
  workers_used_ = static_cast<int>(std::clamp<size_t>(
      loop.pending(), 1, static_cast<size_t>(num_workers_)));
  const bool threaded = workers_used_ > 1;
  const int target_count =
      workers_used_ + (threaded && equivalence_classing_ ? 1 : 0);
  std::vector<std::unique_ptr<FaultInjectionAlgorithms>> owned;
  std::vector<FaultInjectionAlgorithms*> targets;
  for (int w = 0; w < target_count; ++w) {
    std::unique_ptr<FaultInjectionAlgorithms> target = factory_();
    if (target == nullptr) {
      return util::Internal("parallel runner: target factory returned null");
    }
    if (liveness_filter_) target->SetLivenessFilter(liveness_filter_);
    targets.push_back(target.get());
    owned.push_back(std::move(target));
  }
  const Classing classing{equivalence_timeline_.get(),
                          equivalence_static_.get(), spot_check_every_};
  const util::Status status = RunOnTargets(
      &loop, campaign, targets, static_cast<size_t>(workers_used_),
      {checkpoint_interval_, force_warm_start_, convergence_pruning_},
      equivalence_classing_ ? &classing : nullptr);
  stats_ = loop.stats();
  dedup_stats_ = loop.dedup_stats();
  cpu::MemoryUsageAggregator memory_usage;
  for (const FaultInjectionAlgorithms* target : targets) {
    warm_starts_ += target->warm_starts();
    prune_stats_ += target->prune_stats();
    if (const cpu::Memory* memory = target->TargetMemory()) {
      memory_usage.Add(*memory);
    }
  }
  memory_usage_ = memory_usage.totals();
  return status;
}

ParallelCampaignRunner::TargetFactory MakeSimThorFactory(
    CampaignStore* store, const cpu::CpuConfig& config) {
  // ThorRdTarget takes a non-owning TestCard*; workers need the whole stack
  // to live and die together, so bundle card ownership into the target.
  class OwnedThorStack final : public ThorRdTarget {
   public:
    OwnedThorStack(CampaignStore* store,
                   std::unique_ptr<testcard::SimTestCard> card)
        : ThorRdTarget(store, card.get()), card_(std::move(card)) {}

   private:
    std::unique_ptr<testcard::SimTestCard> card_;
  };
  // One golden-image registry per factory: every worker target built from
  // this factory interns its memory baseline in the same pool, so a
  // campaign's workload image is stored once, not once per worker.
  cpu::CpuConfig shared_config = config;
  if (shared_config.golden_registry == nullptr) {
    shared_config.golden_registry = std::make_shared<cpu::GoldenRegistry>();
  }
  return [store, shared_config]() -> std::unique_ptr<FaultInjectionAlgorithms> {
    return std::make_unique<OwnedThorStack>(
        store, std::make_unique<testcard::SimTestCard>(shared_config));
  };
}

ParallelCampaignRunner::TargetFactory MakeSwifiSimFactory(
    CampaignStore* store, const cpu::CpuConfig& config) {
  // Same golden-image sharing as MakeSimThorFactory.
  cpu::CpuConfig shared_config = config;
  if (shared_config.golden_registry == nullptr) {
    shared_config.golden_registry = std::make_shared<cpu::GoldenRegistry>();
  }
  return [store, shared_config]() -> std::unique_ptr<FaultInjectionAlgorithms> {
    return std::make_unique<SwifiSimTarget>(store, shared_config);
  };
}

}  // namespace goofi::core
