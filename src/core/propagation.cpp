#include "core/propagation.hpp"

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

util::Result<PropagationReport> AnalyzeErrorPropagation(
    const CampaignStore& store, const std::string& experiment_name) {
  auto experiment = store.GetExperiment(experiment_name);
  if (!experiment.ok()) return experiment.status();

  // Only the experiment's own trace is parsed per call; the reference trace
  // is the same for every experiment of the campaign and comes from the
  // store's memo.
  auto faulty = store.LoadTrace(experiment_name + "/detail");
  if (!faulty.ok()) return faulty.status();
  auto reference = store.ReferenceTrace(experiment.value().campaign_name);
  if (!reference.ok()) return reference.status();
  const CampaignStore::Trace& golden = *reference.value();

  PropagationReport report;
  int step = 0;
  for (const auto& [instret, state] : faulty.value()) {
    const auto ref = golden.find(instret);
    if (ref == golden.end()) {
      // The faulty run outlived (or fell outside) the reference trace.
      report.length_mismatch = true;
      break;
    }
    ++step;
    ++report.steps_compared;
    if (state.scan_images != ref->second.scan_images) {
      ++report.diverged_steps;
      if (report.first_divergence_step == 0) {
        report.first_divergence_step = step;
        report.first_divergence_instr = instret;
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
