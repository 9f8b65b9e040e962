// Parallel campaign engine throughput: experiments/sec for a serial
// FaultInjectionAlgorithms run vs ParallelCampaignRunner at 1, 2, 4 and
// hardware-concurrency workers, with a speedup table against the serial
// baseline.
//
// Note: speedup is bounded by the number of physical cores the host grants
// the process; on a single-core container every configuration degenerates to
// ~1x and the table measures engine overhead instead.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace goofi::bench {
namespace {

constexpr int kExperiments = 400;

core::CampaignData Campaign(const std::string& name) {
  core::CampaignData campaign = BaseCampaign(name, "bubblesort");
  campaign.num_experiments = kExperiments;
  return campaign;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double RunSerial() {
  Session session;
  const core::CampaignData campaign = Campaign("bench_par_serial");
  if (auto st = session.store.PutCampaign(campaign); !st.ok()) std::abort();
  const auto start = std::chrono::steady_clock::now();
  if (auto st = session.target.RunCampaign(campaign.name); !st.ok()) {
    std::fprintf(stderr, "serial run: %s\n", st.ToString().c_str());
    std::abort();
  }
  return SecondsSince(start);
}

double RunParallel(int workers) {
  Session session;
  const core::CampaignData campaign =
      Campaign("bench_par_w" + std::to_string(workers));
  if (auto st = session.store.PutCampaign(campaign); !st.ok()) std::abort();
  core::ParallelCampaignRunner runner(
      &session.store, core::MakeSimThorFactory(&session.store), workers);
  const auto start = std::chrono::steady_clock::now();
  if (auto st = runner.Run(campaign.name); !st.ok()) {
    std::fprintf(stderr, "parallel run (%d workers): %s\n", workers,
                 st.ToString().c_str());
    std::abort();
  }
  return SecondsSince(start);
}

void Main() {
  std::printf("Parallel campaign engine: %d SCIFI experiments, bubblesort, "
              "internal_regfile (host reports %d hardware threads)\n\n",
              kExperiments, core::ParallelCampaignRunner::DefaultWorkers());

  const double serial_s = RunSerial();
  std::printf("%-18s %10s %16s %9s\n", "configuration", "time [s]",
              "experiments/sec", "speedup");
  std::printf("%-18s %10.3f %16.1f %9s\n", "serial", serial_s,
              kExperiments / serial_s, "1.00x");

  std::vector<int> worker_counts = {1, 2, 4};
  const int hw = core::ParallelCampaignRunner::DefaultWorkers();
  if (hw > 4) worker_counts.push_back(hw);
  for (int workers : worker_counts) {
    const double elapsed = RunParallel(workers);
    std::printf("%-10s workers %10.3f %16.1f %8.2fx\n",
                std::to_string(workers).c_str(), elapsed,
                kExperiments / elapsed, serial_s / elapsed);
  }
}

}  // namespace
}  // namespace goofi::bench

int main() {
  goofi::bench::Main();
  return 0;
}
