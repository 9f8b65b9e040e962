// E13 — checkpoint fast-forward: experiments/sec for cold campaigns vs
// warm-started ones (golden-run checkpoint cache, core/checkpoint), swept
// over checkpoint interval x injection-time distribution x worker count,
// plus the cache's memory footprint per interval.
//
// The mechanism pays off when experiments inject late: a cold experiment
// re-simulates the whole fault-free prefix from reset, a warm one restores
// the nearest snapshot below its injection time and re-simulates only the
// remainder (at most one interval). Early injections bound the benefit; the
// early distribution rows quantify that.
//
// `--json <path>` additionally writes the headline metrics as a flat JSON
// object (see scripts/bench.sh).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace goofi::bench {
namespace {

constexpr int kExperiments = 40;
// ~14 retired instructions per control iteration: 4000 iterations give a
// ~56k-instruction golden run, long enough that simulation time dominates
// the per-experiment fixed costs (scan reads, state logging).
constexpr int kIterations = 4000;

core::CampaignData Campaign(const std::string& name, uint64_t inject_min,
                            uint64_t inject_max) {
  core::CampaignData campaign = BaseCampaign(name, "pendulum_pd");
  campaign.num_experiments = kExperiments;
  campaign.max_iterations = kIterations;
  campaign.inject_min_instr = inject_min;
  campaign.inject_max_instr = inject_max;
  campaign.timeout_cycles = 100000000;
  return campaign;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Retired instructions of the fault-free run — the golden-run length the
/// injection windows are placed against.
uint64_t ProbeGoldenLength() {
  Session session;
  core::CampaignData campaign = Campaign("cp_probe", 1, 1000);
  if (!session.store.PutCampaign(campaign).ok()) std::abort();
  if (!session.target.PrepareCampaign(campaign).ok()) std::abort();
  auto rows = session.target.ExecuteExperiment(-1);
  if (!rows.ok()) {
    std::fprintf(stderr, "reference run: %s\n",
                 rows.status().ToString().c_str());
    std::abort();
  }
  return rows.value().front().state.instret;
}

/// One timed campaign through the parallel runner. `interval` 0 = cold.
double RunOnce(const core::CampaignData& campaign, uint64_t interval,
               int workers, int* warm_starts) {
  db::Database db;
  core::CampaignStore store(&db);
  testcard::SimTestCard card;
  if (!store
           .PutTargetSystem(core::ThorRdTarget::DescribeTarget(
               card, core::ThorRdTarget::kTargetName))
           .ok()) {
    std::abort();
  }
  if (!store.PutCampaign(campaign).ok()) std::abort();
  core::ParallelCampaignRunner runner(&store, core::MakeSimThorFactory(&store),
                                      workers);
  runner.SetCheckpointInterval(interval);
  runner.SetForceWarmStart(interval > 0);
  const auto start = std::chrono::steady_clock::now();
  if (auto st = runner.Run(campaign.name); !st.ok()) {
    std::fprintf(stderr, "run %s: %s\n", campaign.name.c_str(),
                 st.ToString().c_str());
    std::abort();
  }
  const double elapsed = SecondsSince(start);
  if (warm_starts != nullptr) *warm_starts = runner.warm_starts();
  return elapsed;
}

void Main(int argc, char** argv) {
  JsonReport json;
  const uint64_t golden = ProbeGoldenLength();
  std::printf(
      "Checkpoint fast-forward (E13): %d SCIFI experiments, pendulum_pd "
      "control workload, golden run = %llu instructions\n\n",
      kExperiments, static_cast<unsigned long long>(golden));
  json.Add("golden_instret", golden);
  json.Add("experiments", kExperiments);

  struct Distribution {
    const char* name;
    uint64_t inject_min;
    uint64_t inject_max;
  };
  // Late = last quartile of the golden run (the fast-forward sweet spot);
  // early = first quartile (bounds the worst case).
  const std::vector<Distribution> distributions = {
      {"late", golden * 3 / 4, golden - 1},
      {"early", 1, golden / 4},
  };
  const std::vector<uint64_t> intervals = {1024, 4096, 16384};
  const std::vector<int> worker_counts = {1, 2};

  std::printf("%-8s %-9s %8s %10s %16s %9s %6s\n", "inject", "interval",
              "workers", "time [s]", "experiments/sec", "speedup", "warm");
  for (const Distribution& dist : distributions) {
    core::CampaignData campaign =
        Campaign(std::string("cp_ff_") + dist.name, dist.inject_min,
                 dist.inject_max);
    // Cold baselines, one per worker count, so each warm row compares
    // against the identical engine configuration.
    std::vector<double> cold_s(worker_counts.size());
    for (size_t w = 0; w < worker_counts.size(); ++w) {
      campaign.name = std::string("cp_ff_") + dist.name + "_cold_w" +
                      std::to_string(worker_counts[w]);
      cold_s[w] = RunOnce(campaign, 0, worker_counts[w], nullptr);
      std::printf("%-8s %-9s %8d %10.3f %16.1f %9s %6s\n", dist.name, "cold",
                  worker_counts[w], cold_s[w], kExperiments / cold_s[w],
                  "1.00x", "-");
      json.Add(std::string("cold_eps_") + dist.name + "_w" +
                   std::to_string(worker_counts[w]),
               kExperiments / cold_s[w]);
    }
    for (uint64_t interval : intervals) {
      for (size_t w = 0; w < worker_counts.size(); ++w) {
        campaign.name = std::string("cp_ff_") + dist.name + "_i" +
                        std::to_string(interval) + "_w" +
                        std::to_string(worker_counts[w]);
        int warm_starts = 0;
        const double elapsed =
            RunOnce(campaign, interval, worker_counts[w], &warm_starts);
        const double speedup = cold_s[w] / elapsed;
        std::printf("%-8s %-9llu %8d %10.3f %16.1f %8.2fx %6d\n", dist.name,
                    static_cast<unsigned long long>(interval),
                    worker_counts[w], elapsed, kExperiments / elapsed, speedup,
                    warm_starts);
        const std::string suffix = std::string("_") + dist.name + "_i" +
                                   std::to_string(interval) + "_w" +
                                   std::to_string(worker_counts[w]);
        json.Add("warm_eps" + suffix, kExperiments / elapsed);
        json.Add("speedup" + suffix, speedup);
      }
    }
  }

  // Memory footprint: page-delta snapshots keep each checkpoint far below
  // the 1 MiB a full memory image would cost.
  std::printf("\n%-9s %12s %16s %18s\n", "interval", "checkpoints",
              "cache bytes", "bytes/checkpoint");
  Session session;
  core::CampaignData campaign = Campaign("cp_ff_mem", 1, golden - 1);
  if (!session.store.PutCampaign(campaign).ok()) std::abort();
  if (!session.target.PrepareCampaign(campaign).ok()) std::abort();
  for (uint64_t interval : intervals) {
    core::CheckpointCache cache(interval);
    if (auto st = session.target.BuildGoldenRun(interval, &cache, nullptr);
        !st.ok()) {
      std::fprintf(stderr, "BuildGoldenRun(%llu): %s\n",
                   static_cast<unsigned long long>(interval),
                   st.ToString().c_str());
      std::abort();
    }
    const size_t bytes = cache.MemoryBytes();
    std::printf("%-9llu %12zu %16zu %18zu\n",
                static_cast<unsigned long long>(interval), cache.size(), bytes,
                cache.size() == 0 ? size_t{0} : bytes / cache.size());
    const std::string suffix = "_i" + std::to_string(interval);
    json.Add("checkpoints" + suffix, static_cast<uint64_t>(cache.size()));
    json.Add("cache_bytes" + suffix, static_cast<uint64_t>(bytes));
  }

  if (const char* path = JsonOutputPath(argc, argv)) json.Write(path);
}

}  // namespace
}  // namespace goofi::bench

int main(int argc, char** argv) {
  goofi::bench::Main(argc, argv);
  return 0;
}
