#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"

namespace goofi::core {

namespace {

/// The §3.4 rule, written once for owning states and in-place views.
template <typename State>
ExperimentClassification ClassifyState(const State& reference,
                                       const State& experiment) {
  ExperimentClassification out;

  // Detected: an EDM of the target fired (§3.4).
  if (experiment.detected) {
    out.outcome = Outcome::kDetected;
    out.mechanism = experiment.edm;
    return out;
  }

  // Escaped: no detection, but the workload failed. Value failures are wrong
  // outputs or a plant that left its safe envelope; timeliness violations
  // are runs that missed the deadline the reference met.
  const bool value_failure =
      experiment.outputs != reference.outputs || experiment.env_failed;
  const bool timeliness = (experiment.timed_out && !reference.timed_out) ||
                          (!experiment.halted && reference.halted &&
                           !experiment.timed_out && experiment.iterations == 0);
  if (value_failure || (experiment.timed_out && !reference.timed_out)) {
    out.outcome = Outcome::kEscaped;
    out.value_failure = value_failure;
    out.timeliness_violation = timeliness || experiment.timed_out;
    return out;
  }

  // Non-effective: compare the observed state vectors against the reference.
  if (experiment.scan_images != reference.scan_images) {
    out.outcome = Outcome::kLatent;
    return out;
  }
  out.outcome = Outcome::kOverwritten;
  return out;
}

}  // namespace

ExperimentClassification Classify(const LoggedState& reference,
                                  const LoggedState& experiment) {
  return ClassifyState(reference, experiment);
}

ExperimentClassification Classify(const LoggedStateView& reference,
                                  const LoggedStateView& experiment) {
  return ClassifyState(reference, experiment);
}

int AnalysisReport::Count(Outcome outcome) const {
  const auto it = by_outcome.find(outcome);
  return it == by_outcome.end() ? 0 : it->second;
}

double AnalysisReport::ErrorCoverage() const {
  const int detected = Count(Outcome::kDetected);
  const int escaped = Count(Outcome::kEscaped);
  if (detected + escaped == 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(detected + escaped);
}

double AnalysisReport::EffectivenessRatio() const {
  if (total == 0) return 0.0;
  const int effective = Count(Outcome::kDetected) + Count(Outcome::kEscaped);
  return static_cast<double>(effective) / static_cast<double>(total);
}

AnalysisReport::Interval AnalysisReport::CoverageInterval(double z) const {
  const int detected = Count(Outcome::kDetected);
  const int effective = detected + Count(Outcome::kEscaped);
  if (effective == 0) return {0.0, 1.0};
  const double n = static_cast<double>(effective);
  const double p = static_cast<double>(detected) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

std::string AnalysisReport::ToString() const {
  std::string out;
  out += util::Format("campaign %s: %d experiments\n", campaign.c_str(), total);
  auto pct = [this](int n) {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(n) / total;
  };
  out += util::Format("  effective:     %4d (%.1f%%)\n",
                      Count(Outcome::kDetected) + Count(Outcome::kEscaped),
                      pct(Count(Outcome::kDetected) + Count(Outcome::kEscaped)));
  out += util::Format("    detected:    %4d (%.1f%%)\n", Count(Outcome::kDetected),
                      pct(Count(Outcome::kDetected)));
  for (const auto& [mechanism, count] : detected_by_mechanism) {
    out += util::Format("      %-22s %4d\n", mechanism.c_str(), count);
  }
  out += util::Format("    escaped:     %4d (%.1f%%)\n", Count(Outcome::kEscaped),
                      pct(Count(Outcome::kEscaped)));
  out += util::Format("      value failures:       %4d\n", escaped_value);
  out += util::Format("      timeliness violations:%4d\n", escaped_timeliness);
  out += util::Format("  non-effective: %4d (%.1f%%)\n",
                      Count(Outcome::kLatent) + Count(Outcome::kOverwritten),
                      pct(Count(Outcome::kLatent) + Count(Outcome::kOverwritten)));
  out += util::Format("    latent:      %4d (%.1f%%)\n", Count(Outcome::kLatent),
                      pct(Count(Outcome::kLatent)));
  out += util::Format("    overwritten: %4d (%.1f%%)\n",
                      Count(Outcome::kOverwritten), pct(Count(Outcome::kOverwritten)));
  const Interval ci = CoverageInterval();
  out += util::Format("  error coverage: %.3f (95%% CI [%.3f, %.3f])\n",
                      ErrorCoverage(), ci.low, ci.high);
  return out;
}

namespace {

/// Extracts the location group of an experiment's first fault from its
/// experimentData column, read in place.
std::string LocationGroupOf(std::string_view experiment_data) {
  for (size_t start = 0; start <= experiment_data.size();) {
    const size_t end =
        std::min(experiment_data.find(';', start), experiment_data.size());
    const std::string_view field = experiment_data.substr(start, end - start);
    start = end + 1;
    if (!field.starts_with("faults=")) continue;
    const std::string_view list = field.substr(7);
    if (list.empty()) return "none";
    auto fault = FaultInstance::Parse(list.substr(0, list.find('|')));
    if (!fault.ok()) return "unknown";
    const FaultInstance& f = fault.value();
    if (!f.IsScanFault()) {
      // cell_name holds "memory.text@0x..." / "memory.data@0x...".
      const size_t at = f.cell_name.find('@');
      return at == std::string::npos ? "memory" : f.cell_name.substr(0, at);
    }
    const size_t dot = f.cell_name.find('.');
    return dot == std::string::npos ? f.cell_name : f.cell_name.substr(0, dot);
  }
  return "none";
}

void Accumulate(AnalysisReport* report, const ExperimentClassification& cls) {
  ++report->total;
  ++report->by_outcome[cls.outcome];
  if (cls.outcome == Outcome::kDetected) {
    ++report->detected_by_mechanism[cls.mechanism];
  }
  if (cls.outcome == Outcome::kEscaped) {
    if (cls.value_failure) ++report->escaped_value;
    if (cls.timeliness_violation) ++report->escaped_timeliness;
  }
}

/// Classifies each experiment of a campaign in place: the reference and
/// every top-level row are parsed as views of the stored rows, and `fn` gets
/// each experiment's row and classification, in insertion order.
template <typename Fn>
util::Status ForEachClassified(const CampaignStore& store,
                               const std::string& campaign_name, Fn&& fn) {
  auto reference_row =
      store.GetStoredRow(CampaignStore::ReferenceName(campaign_name));
  if (!reference_row.ok()) return reference_row.status();
  LoggedStateView reference;
  GOOFI_RETURN_IF_ERROR(reference.Parse(reference_row.value().state_vector));
  LoggedStateView state;  // one view, reused for every row
  return store.ForEachTopLevelRow(
      campaign_name, [&](const CampaignStore::StoredRow& row) {
        if (row.experiment_name == reference_row.value().experiment_name) {
          return util::Status::Ok();
        }
        GOOFI_RETURN_IF_ERROR(state.Parse(row.state_vector));
        fn(row, Classify(reference, state));
        return util::Status::Ok();
      });
}

}  // namespace

util::Result<AnalysisReport> AnalyzeCampaign(const CampaignStore& store,
                                             const std::string& campaign_name) {
  AnalysisReport report;
  report.campaign = campaign_name;
  GOOFI_RETURN_IF_ERROR(ForEachClassified(
      store, campaign_name,
      [&report](const CampaignStore::StoredRow&,
                const ExperimentClassification& cls) {
        Accumulate(&report, cls);
      }));
  return report;
}

util::Result<std::map<std::string, AnalysisReport>> AnalyzeByLocationGroup(
    const CampaignStore& store, const std::string& campaign_name) {
  std::map<std::string, AnalysisReport> by_group;
  GOOFI_RETURN_IF_ERROR(ForEachClassified(
      store, campaign_name,
      [&](const CampaignStore::StoredRow& row,
          const ExperimentClassification& cls) {
        AnalysisReport& report = by_group[LocationGroupOf(row.experiment_data)];
        if (report.campaign.empty()) report.campaign = campaign_name;
        Accumulate(&report, cls);
      }));
  return by_group;
}

}  // namespace goofi::core
