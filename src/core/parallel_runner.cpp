#include "core/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

#include "core/swifi_target.hpp"
#include "core/thor_target.hpp"
#include "cpu/state_hash.hpp"
#include "db/archive.hpp"
#include "testcard/testcard.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace goofi::core {

namespace {

/// One dispatched experiment's outcome, filled by a worker and consumed by
/// the committer in pending order.
struct Slot {
  bool done = false;
  util::Status status;
  std::vector<CampaignStore::ExperimentRow> rows;
  int skipped_dead = 0;  ///< liveness-filter skips charged to this experiment
};

}  // namespace

ParallelCampaignRunner::ParallelCampaignRunner(CampaignStore* store,
                                               TargetFactory factory,
                                               int num_workers)
    : store_(store),
      factory_(std::move(factory)),
      num_workers_(num_workers > 0 ? num_workers
                                   : util::ThreadPool::DefaultWorkers()) {}

void ParallelCampaignRunner::SetCommitBatchRows(int rows) {
  batch_rows_ = std::max(1, rows);
}

util::Status ParallelCampaignRunner::Run(const std::string& campaign_name) {
  stats_ = FaultInjectionAlgorithms::Stats{};
  warm_starts_ = 0;
  prune_stats_ = ConvergenceStats{};
  dedup_stats_ = EquivalenceStats{};
  memory_usage_ = cpu::MemoryUsageAggregator::Totals{};
  auto campaign_or = store_->GetCampaign(campaign_name);
  if (!campaign_or.ok()) return campaign_or.status();
  const CampaignData campaign = std::move(campaign_or).value();

  // With a durable archive attached, align its WAL group commits with our
  // ordered result batches: buffer records across each batch and flush once
  // per PutExperiments instead of once per row.
  std::optional<db::Archive::GroupCommitScope> wal_group;
  if (store_->archive() != nullptr) wal_group.emplace(store_->archive());

  // Resume semantics (Fig. 7 restart): experiments already in the database
  // are skipped before dispatch, exactly like the serial driver.
  const bool need_reference =
      !store_->GetExperiment(CampaignStore::ReferenceName(campaign.name)).ok();
  std::vector<int> pending;
  pending.reserve(static_cast<size_t>(std::max(0, campaign.num_experiments)));
  for (int i = 0; i < campaign.num_experiments; ++i) {
    if (store_->GetExperiment(CampaignStore::ExperimentName(campaign.name, i))
            .ok()) {
      ++stats_.experiments_resumed;
    } else {
      pending.push_back(i);
    }
  }

  const int workers = std::max(
      1, std::min(num_workers_, static_cast<int>(std::max<size_t>(
                                    1, pending.size()))));
  workers_used_ = workers;

  // Build the worker-owned target stacks up front; a factory or fault-space
  // error surfaces here before any thread starts. Dedup adds one extra
  // target for the committer thread (fault-list planning, detail-cap
  // fallback executions, spot checks).
  const int target_count = equivalence_classing_ ? workers + 1 : workers;
  std::vector<std::unique_ptr<FaultInjectionAlgorithms>> targets;
  targets.reserve(static_cast<size_t>(target_count));
  for (int w = 0; w < target_count; ++w) {
    std::unique_ptr<FaultInjectionAlgorithms> target = factory_();
    if (target == nullptr) {
      return util::Internal("parallel runner: target factory returned null");
    }
    if (liveness_filter_) target->SetLivenessFilter(liveness_filter_);
    // Suppress the per-target auto-build: a shared cache (below) replaces N
    // redundant golden runs with one.
    target->SetCheckpointInterval(0);
    GOOFI_RETURN_IF_ERROR(target->PrepareCampaign(campaign));
    targets.push_back(std::move(target));
  }

  // Build the golden run once, on the committer thread, and share its
  // products read-only across all workers; the same decision as the serial
  // driver's.
  std::shared_ptr<const CheckpointCache> cache;
  std::shared_ptr<const GoldenTrace> trace;
  GOOFI_RETURN_IF_ERROR(targets[0]->BuildGoldenProducts(
      checkpoint_interval_, force_warm_start_, convergence_pruning_, &cache,
      &trace));
  if (cache != nullptr) {
    for (auto& target : targets) target->SetCheckpointCache(cache);
  }
  if (trace != nullptr) {
    // One memo for the whole run: a suffix outcome memoized by any worker
    // prunes matching experiments on every worker (single-writer inserts
    // under the memo's lock, shared lock-guarded lookups).
    auto memo = std::make_shared<ConvergenceMemo>();
    for (auto& target : targets) {
      target->SetConvergencePruning(true);
      target->SetGoldenTrace(trace);
      target->SetConvergenceMemo(memo);
      // Each worker needs its own memory baseline for canonical hashing.
      GOOFI_RETURN_IF_ERROR(target->PrepareGoldenBaseline());
    }
  }

  // The reference run commits before any experiment row, matching serial
  // insertion order. Its final state doubles as the golden endpoint for the
  // equivalence classer (injection past it provably never happens).
  LoggedState reference_state;
  if (need_reference) {
    auto rows = targets[0]->ExecuteExperiment(-1);
    if (!rows.ok()) return rows.status();
    reference_state = rows.value().front().state;
    GOOFI_RETURN_IF_ERROR(store_->PutExperiments(rows.value()));
  } else if (equivalence_classing_) {
    auto reference =
        store_->GetExperiment(CampaignStore::ReferenceName(campaign.name));
    if (!reference.ok()) return reference.status();
    reference_state = std::move(reference).value().state;
  }
  if (pending.empty()) return util::Status::Ok();

  if (equivalence_classing_) {
    return RunDeduped(campaign, pending, targets, reference_state);
  }

  // Dispatch: workers pull pending positions off a shared cursor; results
  // land in per-position slots the committer drains in order.
  std::vector<Slot> slots(pending.size());
  std::atomic<size_t> cursor{0};
  std::atomic<bool> cancel{false};
  std::mutex mutex;
  std::condition_variable slot_ready;

  auto worker_main = [&](int w) {
    FaultInjectionAlgorithms& target = *targets[static_cast<size_t>(w)];
    for (;;) {
      if (cancel.load(std::memory_order_relaxed)) return;
      const size_t pos = cursor.fetch_add(1, std::memory_order_relaxed);
      if (pos >= pending.size()) return;
      const int dead_before = target.stats().injections_skipped_dead;
      auto rows = target.ExecuteExperiment(pending[pos]);
      Slot slot;
      slot.done = true;
      if (rows.ok()) {
        slot.rows = std::move(rows).value();
      } else {
        slot.status = rows.status();
      }
      slot.skipped_dead =
          target.stats().injections_skipped_dead - dead_before;
      {
        std::lock_guard<std::mutex> lock(mutex);
        slots[pos] = std::move(slot);
      }
      slot_ready.notify_one();
    }
  };

  util::ThreadPool pool(workers);
  for (int w = 0; w < workers; ++w) {
    pool.Submit([&worker_main, w]() { worker_main(w); });
  }

  // Single-writer committer: strictly ordered, batched commits; progress
  // callbacks (and early stop) ride this thread.
  std::vector<CampaignStore::ExperimentRow> batch;
  batch.reserve(static_cast<size_t>(batch_rows_));
  util::Status error = util::Status::Ok();
  auto flush = [&]() {
    if (batch.empty()) return util::Status::Ok();
    util::Status st = store_->PutExperiments(batch);
    batch.clear();
    return st;
  };
  for (size_t pos = 0; pos < pending.size() && error.ok(); ++pos) {
    Slot slot;
    {
      std::unique_lock<std::mutex> lock(mutex);
      slot_ready.wait(lock, [&]() { return slots[pos].done; });
      slot = std::move(slots[pos]);
    }
    if (!slot.status.ok()) {
      error = slot.status;
      break;
    }
    const LoggedState last_state = slot.rows.front().state;
    for (CampaignStore::ExperimentRow& row : slot.rows) {
      batch.push_back(std::move(row));
    }
    ++stats_.experiments_run;
    stats_.injections_skipped_dead += slot.skipped_dead;
    if (static_cast<int>(batch.size()) >= batch_rows_) {
      error = flush();
      if (!error.ok()) break;
    }
    if (monitor_ != nullptr &&
        !monitor_->OnExperiment(pending[pos] + 1, campaign.num_experiments,
                                last_state)) {
      util::Log::Info("campaign " + campaign_name + " ended by user after " +
                      std::to_string(pending[pos] + 1) + " experiments");
      break;  // early stop: later experiments are cancelled and discarded
    }
  }

  cancel.store(true, std::memory_order_relaxed);
  pool.Shutdown();

  cpu::MemoryUsageAggregator memory_usage;
  for (const auto& target : targets) {
    warm_starts_ += target->warm_starts();
    prune_stats_ += target->prune_stats();
    if (const cpu::Memory* memory = target->TargetMemory()) {
      memory_usage.Add(*memory);
    }
  }
  memory_usage_ = memory_usage.totals();

  // Commit what completed in order before reporting any error — the same
  // prefix a serial run that failed at this experiment would have logged.
  const util::Status flush_status = flush();
  if (!error.ok()) return error;
  return flush_status;
}

namespace {

/// Digest of a full result-row set for spot-check comparison: name, parent,
/// campaign, data and serialized state of every row, order-sensitive. The
/// capture blob makes equal hashes mean equal rows.
void HashRows(const std::vector<CampaignStore::ExperimentRow>& rows,
              cpu::StateHasher* hasher) {
  hasher->U64(rows.size());
  for (const CampaignStore::ExperimentRow& row : rows) {
    hasher->Str(row.experiment_name);
    hasher->Str(row.parent_experiment);
    hasher->Str(row.campaign_name);
    hasher->Str(row.experiment_data);
    hasher->Str(row.state.Serialize());
  }
}

bool RowsIdentical(const std::vector<CampaignStore::ExperimentRow>& a,
                   const std::vector<CampaignStore::ExperimentRow>& b) {
  cpu::StateHasher hash_a(/*capture=*/true);
  cpu::StateHasher hash_b(/*capture=*/true);
  HashRows(a, &hash_a);
  HashRows(b, &hash_b);
  return hash_a.hash() == hash_b.hash() && hash_a.blob() == hash_b.blob();
}

}  // namespace

util::Status ParallelCampaignRunner::RunDeduped(
    const CampaignData& campaign, const std::vector<int>& pending,
    std::vector<std::unique_ptr<FaultInjectionAlgorithms>>& targets,
    const LoggedState& reference_state) {
  const int workers = workers_used_;
  FaultInjectionAlgorithms& spare = *targets.back();

  // Plan every pending fault list on the committer's target: the same RNG
  // stream and liveness-filter retries as execution, so the lists are
  // exactly what a plain run would draw. Filter skips are recorded per
  // experiment and charged when it commits, keeping Stats equal to serial.
  std::vector<std::vector<FaultInstance>> plans(pending.size());
  std::vector<int> plan_skips(pending.size(), 0);
  for (size_t pos = 0; pos < pending.size(); ++pos) {
    const int dead_before = spare.stats().injections_skipped_dead;
    auto faults = spare.PlanFaults(pending[pos]);
    if (!faults.ok()) return faults.status();
    plan_skips[pos] = spare.stats().injections_skipped_dead - dead_before;
    plans[pos] = std::move(faults).value();
  }

  EquivalenceClasser::Config config;
  config.technique = campaign.technique;
  config.fault_model = campaign.fault_model;
  config.faults_per_experiment = campaign.faults_per_experiment;
  config.has_golden_end = true;
  config.golden_end_instret = reference_state.instret;
  config.static_analysis = equivalence_static_.get();
  EquivalenceClasser classer(equivalence_timeline_.get(), config);
  for (size_t pos = 0; pos < pending.size(); ++pos) {
    classer.Add(static_cast<int>(pos), plans[pos]);
  }
  const std::vector<EquivalenceClasser::Class>& classes = classer.classes();
  dedup_stats_.classes_formed = classer.multi_member_classes();

  // Dispatch: one slot per class; workers pull class ids off the cursor
  // (classes are ordered by first member, so the committer drains them
  // nearly in order) and execute only the representative.
  std::vector<Slot> slots(classes.size());
  std::atomic<size_t> cursor{0};
  std::atomic<bool> cancel{false};
  std::mutex mutex;
  std::condition_variable slot_ready;

  auto worker_main = [&](int w) {
    FaultInjectionAlgorithms& target = *targets[static_cast<size_t>(w)];
    for (;;) {
      if (cancel.load(std::memory_order_relaxed)) return;
      const size_t cid = cursor.fetch_add(1, std::memory_order_relaxed);
      if (cid >= classes.size()) return;
      const int rep = classes[cid].representative;
      auto rows = target.ExecutePlanned(pending[static_cast<size_t>(rep)],
                                        plans[static_cast<size_t>(rep)]);
      Slot slot;
      slot.done = true;
      if (rows.ok()) {
        slot.rows = std::move(rows).value();
      } else {
        slot.status = rows.status();
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        slots[cid] = std::move(slot);
      }
      slot_ready.notify_one();
    }
  };

  util::ThreadPool pool(workers);
  for (int w = 0; w < workers; ++w) {
    pool.Submit([&worker_main, w]() { worker_main(w); });
  }

  // Single-writer committer, strictly in pending order like the plain path.
  // Representatives commit their own rows (copied — later members still
  // synthesize from them); members commit rewritten rows. A representative
  // whose detail log hit the row cap has no usable suffix, so its members
  // fall back to live execution on the committer's target.
  std::vector<CampaignStore::ExperimentRow> batch;
  batch.reserve(static_cast<size_t>(batch_rows_));
  util::Status error = util::Status::Ok();
  bool early_stop = false;
  auto flush = [&]() {
    if (batch.empty()) return util::Status::Ok();
    util::Status st = store_->PutExperiments(batch);
    batch.clear();
    return st;
  };
  for (size_t pos = 0; pos < pending.size() && error.ok(); ++pos) {
    const size_t cid = classer.class_of(pos);
    {
      std::unique_lock<std::mutex> lock(mutex);
      slot_ready.wait(lock, [&]() { return slots[cid].done; });
    }
    // Past the wait, the worker is done with this slot: reads are safe
    // without the lock, and the rows stay put for later members.
    if (!slots[cid].status.ok()) {
      error = slots[cid].status;
      break;
    }
    const EquivalenceClasser::Class& cls = classes[cid];
    const bool rep_capped =
        cls.suffix_filtered &&
        slots[cid].rows.size() - 1 >= FaultInjectionAlgorithms::kMaxDetailRows;
    std::vector<CampaignStore::ExperimentRow> rows;
    if (static_cast<int>(pos) == cls.representative) {
      if (cls.members.size() == 1) {
        rows = std::move(slots[cid].rows);
      } else {
        rows = slots[cid].rows;
      }
    } else if (rep_capped) {
      auto executed = spare.ExecutePlanned(pending[pos], plans[pos]);
      if (!executed.ok()) {
        error = executed.status();
        break;
      }
      rows = std::move(executed).value();
    } else {
      rows = SynthesizeMemberRows(slots[cid].rows, campaign,
                                  pending[pos], plans[pos],
                                  cls.suffix_filtered);
      ++dedup_stats_.experiments_synthesized;
      if (cls.static_no_effect) ++dedup_stats_.static_synthesized;
    }
    const LoggedState last_state = rows.front().state;
    for (CampaignStore::ExperimentRow& row : rows) {
      batch.push_back(std::move(row));
    }
    ++stats_.experiments_run;
    stats_.injections_skipped_dead += plan_skips[pos];
    if (static_cast<int>(batch.size()) >= batch_rows_) {
      error = flush();
      if (!error.ok()) break;
    }
    if (monitor_ != nullptr &&
        !monitor_->OnExperiment(pending[pos] + 1, campaign.num_experiments,
                                last_state)) {
      util::Log::Info("campaign " + campaign.name + " ended by user after " +
                      std::to_string(pending[pos] + 1) + " experiments");
      early_stop = true;
      break;
    }
  }

  cancel.store(true, std::memory_order_relaxed);
  pool.Shutdown();

  // Spot checks (the collision/logic backstop): re-execute one synthesized
  // member of every n-th multi-member class and require its rows to be
  // byte-identical to the synthesis. Skipped after an error or early stop —
  // the classes past the stop never committed.
  if (error.ok() && !early_stop && spot_check_every_ > 0) {
    int64_t eligible = 0;
    for (size_t cid = 0; cid < classes.size() && error.ok(); ++cid) {
      const EquivalenceClasser::Class& cls = classes[cid];
      if (cls.members.size() < 2) continue;
      const bool rep_capped =
          cls.suffix_filtered &&
          slots[cid].rows.size() - 1 >=
              FaultInjectionAlgorithms::kMaxDetailRows;
      if (rep_capped) continue;  // members ran live; nothing synthesized
      if ((eligible++ % spot_check_every_) != 0) continue;
      int member = -1;
      for (int m : cls.members) {
        if (m != cls.representative) {
          member = m;
          break;
        }
      }
      if (member < 0) continue;
      ++dedup_stats_.spot_checks_run;
      auto actual = spare.ExecutePlanned(pending[static_cast<size_t>(member)],
                                         plans[static_cast<size_t>(member)]);
      if (!actual.ok()) {
        error = actual.status();
        break;
      }
      const std::vector<CampaignStore::ExperimentRow> expected =
          SynthesizeMemberRows(slots[cid].rows, campaign,
                               pending[static_cast<size_t>(member)],
                               plans[static_cast<size_t>(member)],
                               cls.suffix_filtered);
      if (!RowsIdentical(expected, actual.value())) {
        error = util::Internal(
            "equivalence spot check failed: synthesized rows for " +
            CampaignStore::ExperimentName(
                campaign.name, pending[static_cast<size_t>(member)]) +
            " differ from a live re-execution");
        break;
      }
      ++dedup_stats_.spot_checks_passed;
    }
  }

  cpu::MemoryUsageAggregator memory_usage;
  for (const auto& target : targets) {
    warm_starts_ += target->warm_starts();
    prune_stats_ += target->prune_stats();
    if (const cpu::Memory* memory = target->TargetMemory()) {
      memory_usage.Add(*memory);
    }
  }
  memory_usage_ = memory_usage.totals();

  const util::Status flush_status = flush();
  if (!error.ok()) return error;
  return flush_status;
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
