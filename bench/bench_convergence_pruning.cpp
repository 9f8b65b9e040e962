// E15 — golden-trace convergence pruning: pruned vs unpruned wall-clock for
// SCIFI campaigns on the pendulum_pd control workload, swept over fault
// location class x injection-time distribution x trace interval, single
// worker (so the numbers isolate pruning, not parallelism).
//
// The mechanism pays off when experiments inject early and the fault is
// masked soon after: the post-injection suffix is then almost the whole run,
// and a converged experiment skips all of it (the database rows are
// synthesized from the recorded golden outcome). Pipeline-latch faults are
// the sweet spot — the latches are rewritten every instruction, so most
// flips are architecturally masked within a boundary or two. Register-file
// faults give the mixed-population contrast: live registers stay divergent
// (latent/effective faults never converge), dead ones converge at the next
// boundary.
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
// ~56k-instruction golden run, so a pruned-away suffix is worth tens of
// thousands of simulated instructions.
constexpr int kIterations = 4000;

core::CampaignData Campaign(const std::string& name,
                            const core::FaultLocationSelector& location,
                            uint64_t inject_min, uint64_t inject_max) {
  core::CampaignData campaign = BaseCampaign(name, "pendulum_pd");
  campaign.num_experiments = kExperiments;
  campaign.max_iterations = kIterations;
  campaign.locations = {location};
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
  core::CampaignData campaign =
      Campaign("cv_probe", {"internal_regfile", ""}, 1, 1000);
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

/// One timed single-worker campaign. `interval` 0 = unpruned cold baseline.
/// With an interval, warm-start is always forced (run-pruned semantics) and
/// `pruned` toggles convergence pruning on top — the warm-only rows isolate
/// how much of the speedup is fast-forward rather than pruning.
double RunOnce(const core::CampaignData& campaign, uint64_t interval,
               bool pruned, core::ConvergenceStats* prune) {
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
                                      /*workers=*/1);
  runner.SetCheckpointInterval(interval);
  runner.SetForceWarmStart(interval > 0);
  runner.SetConvergencePruning(pruned);
  const auto start = std::chrono::steady_clock::now();
  if (auto st = runner.Run(campaign.name); !st.ok()) {
    std::fprintf(stderr, "run %s: %s\n", campaign.name.c_str(),
                 st.ToString().c_str());
    std::abort();
  }
  const double elapsed = SecondsSince(start);
  if (prune != nullptr) *prune = runner.prune_stats();
  return elapsed;
}

void Main(int argc, char** argv) {
  JsonReport json;
  const uint64_t golden = ProbeGoldenLength();
  std::printf(
      "Convergence pruning (E15): %d SCIFI experiments, pendulum_pd control "
      "workload, golden run = %llu instructions, 1 worker\n\n",
      kExperiments, static_cast<unsigned long long>(golden));
  json.Add("golden_instret", golden);
  json.Add("experiments", kExperiments);

  struct Location {
    const char* name;
    core::FaultLocationSelector selector;
  };
  const std::vector<Location> locations = {
      {"pipeline", {"boundary", "pipeline"}},
      {"regfile", {"internal_regfile", ""}},
  };
  struct Distribution {
    const char* name;
    uint64_t inject_min;
    uint64_t inject_max;
  };
  // Early = first quartile of the golden run (longest prunable suffix, the
  // headline configuration); late = last quartile (bounds the benefit: even
  // a converged experiment has little left to skip).
  const std::vector<Distribution> distributions = {
      {"early", 1, golden / 4},
      {"late", golden * 3 / 4, golden - 1},
  };
  const std::vector<uint64_t> intervals = {64, 4096};

  std::printf("%-9s %-7s %-9s %-6s %10s %16s %9s %7s %6s\n", "location",
              "inject", "interval", "mode", "time [s]", "experiments/sec",
              "speedup", "pruned", "memo");
  for (const Location& location : locations) {
    for (const Distribution& dist : distributions) {
      const std::string base =
          std::string("cv_") + location.name + "_" + dist.name;
      core::CampaignData campaign = Campaign(
          base + "_cold", location.selector, dist.inject_min, dist.inject_max);
      const double cold_s = RunOnce(campaign, 0, false, nullptr);
      std::printf("%-9s %-7s %-9s %-6s %10.3f %16.1f %9s %7s %6s\n",
                  location.name, dist.name, "off", "-", cold_s,
                  kExperiments / cold_s, "1.00x", "-", "-");
      json.Add("cold_eps_" + std::string(location.name) + "_" + dist.name,
               kExperiments / cold_s);
      for (uint64_t interval : intervals) {
        const std::string suffix = std::string("_") + location.name + "_" +
                                   dist.name + "_i" + std::to_string(interval);
        // Warm-only control: same interval, pruning off. Everything beyond
        // this speedup is attributable to convergence pruning alone.
        campaign.name = base + "_w" + std::to_string(interval);
        const double warm_s = RunOnce(campaign, interval, false, nullptr);
        std::printf("%-9s %-7s %-9llu %-6s %10.3f %16.1f %8.2fx %7s %6s\n",
                    location.name, dist.name,
                    static_cast<unsigned long long>(interval), "warm", warm_s,
                    kExperiments / warm_s, cold_s / warm_s, "-", "-");
        json.Add("warm_eps" + suffix, kExperiments / warm_s);

        campaign.name = base + "_i" + std::to_string(interval);
        core::ConvergenceStats prune;
        const double elapsed = RunOnce(campaign, interval, true, &prune);
        const double speedup = cold_s / elapsed;
        std::printf("%-9s %-7s %-9llu %-6s %10.3f %16.1f %8.2fx %7lld %6lld\n",
                    location.name, dist.name,
                    static_cast<unsigned long long>(interval), "prune", elapsed,
                    kExperiments / elapsed, speedup,
                    static_cast<long long>(prune.pruned_total()),
                    static_cast<long long>(prune.pruned_memo));
        json.Add("pruned_eps" + suffix, kExperiments / elapsed);
        json.Add("speedup" + suffix, speedup);
        json.Add("speedup_vs_warm" + suffix, warm_s / elapsed);
        json.Add("pruned" + suffix,
                 static_cast<uint64_t>(prune.pruned_total()));
        json.Add("collision_rejects" + suffix,
                 static_cast<uint64_t>(prune.collision_rejects));
      }
    }
  }
  std::printf(
      "\nHeadline: speedup_pipeline_early_i64 is the acceptance metric "
      "(target >= 2x).\n");

  if (const char* path = JsonOutputPath(argc, argv)) json.Write(path);
}

}  // namespace
}  // namespace goofi::bench

int main(int argc, char** argv) {
  goofi::bench::Main(argc, argv);
  return 0;
}
