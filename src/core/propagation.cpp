#include "core/propagation.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace goofi::core {

std::string PropagationReport::ToString() const {
  std::string out;
  out += util::Format("steps compared:        %d\n", steps_compared);
  if (first_divergence_step == 0) {
    out += "no visible divergence from the reference trace\n";
  } else {
    out += util::Format("first divergence:      step %d (instr %llu)\n",
                        first_divergence_step,
                        static_cast<unsigned long long>(first_divergence_instr));
    out += util::Format("diverged steps:        %d (%.1f%% of trace)\n",
                        diverged_steps,
                        steps_compared == 0
                            ? 0.0
                            : 100.0 * diverged_steps / steps_compared);
  }
  if (detection_step != 0) {
    out += util::Format("detected at:           step %d\n", detection_step);
    out += util::Format("detection latency:     %d steps\n",
                        detection_latency_steps);
  } else {
    out += "not detected within the trace\n";
  }
  if (length_mismatch) {
    out += "traces have different lengths (control-flow divergence)\n";
  }
  return out;
}

namespace {

/// Whether a faulty step shows the reference step's scan images.
bool SameScanImages(const LoggedStateView& step, const LoggedState& golden) {
  return std::equal(step.scan_images.begin(), step.scan_images.end(),
                    golden.scan_images.begin(), golden.scan_images.end(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first && a.second == b.second;
                    });
}

}  // namespace

util::Result<PropagationReport> AnalyzeErrorPropagation(
    const CampaignStore& store, const std::string& experiment_name) {
  auto experiment = store.GetStoredRow(experiment_name);
  if (!experiment.ok()) return experiment.status();
  LoggedStateView checked;  // the experiment's own row must parse
  GOOFI_RETURN_IF_ERROR(checked.Parse(experiment.value().state_vector));

  // Only the experiment's own trace is parsed per call, in place; the
  // reference trace is the same for every experiment of the campaign and
  // comes from the store's memo.
  auto faulty = store.TraceViews(experiment_name + "/detail");
  if (!faulty.ok()) return faulty.status();
  auto reference =
      store.ReferenceTrace(std::string(experiment.value().campaign_name));
  if (!reference.ok()) return reference.status();
  const CampaignStore::Trace& golden = *reference.value();

  PropagationReport report;
  int step = 0;
  for (const LoggedStateView& state : faulty.value()) {
    const auto ref = golden.find(state.instret);
    if (ref == golden.end()) {
      // The faulty run outlived (or fell outside) the reference trace.
      report.length_mismatch = true;
      break;
    }
    ++step;
    ++report.steps_compared;
    if (!SameScanImages(state, ref->second)) {
      ++report.diverged_steps;
      if (report.first_divergence_step == 0) {
        report.first_divergence_step = step;
        report.first_divergence_instr = state.instret;
      }
    }
    if (state.detected && report.detection_step == 0) {
      report.detection_step = step;
      if (report.first_divergence_step != 0) {
        report.detection_latency_steps = step - report.first_divergence_step;
      }
    }
  }
  if (faulty.value().size() != golden.size()) {
    report.length_mismatch = true;
  }
  return report;
}

}  // namespace goofi::core
