// Error-propagation analysis over detail-mode execution traces.
//
// Paper §3.3: "The detail mode operation is used to produce an execution
// trace, allowing the error propagation to be analysed in detail." This
// module performs that analysis: it aligns the per-instruction detail rows
// of a fault-injected re-run with the reference re-run and reports where the
// corrupted state first became visible, how long it stayed visible, and the
// detection latency.
#pragma once

#include <cstdint>

#include "core/campaign_store.hpp"

namespace goofi::core {

struct PropagationReport {
  /// Steps compared (min of the two trace lengths).
  int steps_compared = 0;
  /// 1-based step index of the first visible state divergence; 0 = never.
  int first_divergence_step = 0;
  /// Retired-instruction count at first divergence (target time).
  uint64_t first_divergence_instr = 0;
  /// Number of compared steps at which the core state differed.
  int diverged_steps = 0;
  /// 1-based step at which an EDM fired in the faulty trace; 0 = none.
  int detection_step = 0;
  /// Steps between first visible divergence and detection (only meaningful
  /// when both fields are set).
  int detection_latency_steps = 0;
  /// The traces ended with different lengths (control-flow divergence).
  bool length_mismatch = false;

  std::string ToString() const;
};

/// Compares the detail traces logged under `experiment/detail` and the
/// campaign's `ref/detail` re-run. Both must have been produced with
/// FaultInjectionAlgorithms::RerunDetailed beforehand; returns
/// kFailedPrecondition otherwise. Each call parses the experiment's trace
/// in place (CampaignStore::TraceViews), so the database must not be
/// mutated during the call; the reference trace is parsed once and reused
/// while the table is unchanged (CampaignStore::ReferenceTrace).
util::Result<PropagationReport> AnalyzeErrorPropagation(
    const CampaignStore& store, const std::string& experiment_name);

}  // namespace goofi::core
