// Analysis phase (paper §3.4): classify logged experiments into the paper's
// dependability measures.
//
//   Effective errors:
//     Detected    - caught by an EDM, classified per mechanism
//     Escaped     - caused a failure: incorrect results (value) or
//                   timeliness violations
//   Non-effective errors:
//     Latent      - observable state differs from the reference run but no
//                   detection and no failure
//     Overwritten - no difference from the reference run at all
//
// The paper notes "Currently, there is no support for automatic generation
// of software that analyses the LoggedSystemState table" and lists it as a
// planned extension — this module is that extension: it classifies directly
// from the database.
#pragma once

#include <map>

#include "core/campaign_store.hpp"
#include "core/types.hpp"

namespace goofi::core {

/// Classification of a single experiment.
struct ExperimentClassification {
  Outcome outcome = Outcome::kOverwritten;
  std::string mechanism;       ///< EDM name when detected
  bool value_failure = false;  ///< escaped: wrong outputs / plant failure
  bool timeliness_violation = false;  ///< escaped: missed the deadline
};

/// Classifies one experiment against the reference run.
ExperimentClassification Classify(const LoggedState& reference,
                                  const LoggedState& experiment);
/// The same rule over states parsed in place.
ExperimentClassification Classify(const LoggedStateView& reference,
                                  const LoggedStateView& experiment);

/// Aggregate over a campaign.
struct AnalysisReport {
  std::string campaign;
  int total = 0;
  std::map<Outcome, int> by_outcome;
  std::map<std::string, int> detected_by_mechanism;
  int escaped_value = 0;
  int escaped_timeliness = 0;

  int Count(Outcome outcome) const;
  /// Error coverage: detected / (detected + escaped); NaN-free (returns 1.0
  /// when no error was effective).
  double ErrorCoverage() const;
  /// Fraction of experiments whose fault had any effect at all.
  double EffectivenessRatio() const;

  /// Confidence interval for a binomial proportion (Wilson score), used for
  /// the coverage estimate: fault-injection campaigns sample the fault
  /// space, so the paper's "error coverage" measure is an estimate with
  /// sampling error.
  struct Interval {
    double low = 0.0;
    double high = 1.0;
  };
  /// Wilson interval for ErrorCoverage() over the effective-error sample.
  /// `z` is the normal quantile (1.96 = 95%).
  Interval CoverageInterval(double z = 1.96) const;

  /// Fixed-width report table (one line per §3.4 measure).
  std::string ToString() const;
};

/// Classifies every experiment of a campaign against its reference run.
/// Reads only the campaign's top-level rows, in place
/// (CampaignStore::ForEachTopLevelRow): no row is copied, and detail rows
/// (parentExperiment set) are neither classified nor parsed. The database
/// must not be mutated during the call.
util::Result<AnalysisReport> AnalyzeCampaign(const CampaignStore& store,
                                             const std::string& campaign_name);

/// Same, broken down by fault-location group (the part of the injected
/// cell's name before the first '.', e.g. "regfile", "icache", or
/// "memory.text"). Experiments with multiple faults count under their first
/// fault's group.
util::Result<std::map<std::string, AnalysisReport>> AnalyzeByLocationGroup(
    const CampaignStore& store, const std::string& campaign_name);

}  // namespace goofi::core
