// The benchmark's only seam into GOOFI. Everything here is program-agnostic;
// adapter.cpp is the one file that includes GOOFI headers and calls its
// public entry points, so an API change needs a fix there only.
//
// A session is one whole GOOFI campaign through the paper's phases:
//   1. set-up: fresh db::Database + fresh db::Archive, target + campaign rows;
//   2. fault injection until the archive commit of the last row returns;
//   3. Close;
//   4. reopen the archive (recovery) and run the §3.4/§3.3 analysis.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

enum class Workload { kScifiControl, kSwifiBatch, kDetailArchive };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// What a campaign logged, reduced to what the output check compares.
struct Digest {
  uint64_t tables = 0;  ///< paper-schema tables, every row in insertion order
  uint64_t reference = 0;  ///< the reference run's rows
  std::vector<uint64_t> experiments;  ///< per experiment index: all its rows
  std::map<std::string, int64_t> outcomes;  ///< §3.4 outcome counts
  int64_t rows = 0;  ///< LoggedSystemState rows
};

/// Set-ups per session: one takes well under a millisecond, so a session
/// sets up several times and reports the median.
constexpr int kSetupRepeats = 40;

struct SessionConfig {
  Workload workload = Workload::kScifiControl;
  uint64_t seed = 1;
  int experiments = 1;       ///< experiments in the campaign
  std::string archive_path;  ///< archive file (WAL beside it); replaced
  Tracer* tracer = nullptr;  ///< traced session when set
};

struct SessionResult {
  std::string error;  ///< empty on success
  int experiments = 0;
  double setup_s = 0;     ///< median of kSetupRepeats set-ups
  double campaign_s = 0;  ///< first plan input .. last durable commit
  double recovery_s = 0;  ///< Archive::Open + CampaignStore re-attach
  double analysis_s = 0;  ///< §3.4 (+ §3.3 on detail re-runs) analysis
  Digest digest;
  /// Traced sessions only: per-layer metrics by name.
  std::map<std::string, double> layers;
};

SessionResult RunSession(const SessionConfig& config);

/// The same campaign and seed through the serial driver with every reducer
/// off, in memory, no archive: the output check's reference.
SessionResult RunColdReference(Workload workload, uint64_t seed,
                               int experiments);

/// Standalone timed calls of the plan phases the runner performs inside
/// Run (static analysis, access timeline, prepare + golden run, reference
/// run, fault planning, classing) plus single experiments for about a
/// second. Adds per-layer metrics to `layers`. Empty string on success.
std::string TimePlanPhases(Workload workload, uint64_t seed, int experiments,
                           Tracer* tracer, std::map<std::string, double>* layers);

}  // namespace perfbench
