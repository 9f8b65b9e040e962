// The copy-based §3.4 analysis that core/analysis replaced with its in-place
// reading, kept as the reference the differential tests compare against:
// every top-level row is copied out through CampaignStore::TopLevelRowsOf,
// its stateVector deserialized into a LoggedState and classified, and the
// location group is found through util::Split.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "core/analysis.hpp"
#include "util/strings.hpp"

namespace goofi::core::testing_reference {

inline std::string ReferenceLocationGroupOf(
    const std::string& experiment_data) {
  for (const std::string& field : util::Split(experiment_data, ';')) {
    if (!util::StartsWith(field, "faults=")) continue;
    const std::string list = field.substr(7);
    if (list.empty()) return "none";
    auto fault = FaultInstance::Parse(util::Split(list, '|')[0]);
    if (!fault.ok()) return "unknown";
    const FaultInstance& f = fault.value();
    if (!f.IsScanFault()) {
      const size_t at = f.cell_name.find('@');
      return at == std::string::npos ? "memory" : f.cell_name.substr(0, at);
    }
    const size_t dot = f.cell_name.find('.');
    return dot == std::string::npos ? f.cell_name : f.cell_name.substr(0, dot);
  }
  return "none";
}

inline void ReferenceAccumulate(AnalysisReport* report,
                                const ExperimentClassification& cls) {
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

inline util::Result<AnalysisReport> ReferenceAnalyzeCampaign(
    const CampaignStore& store, const std::string& campaign_name) {
  auto reference =
      store.GetExperiment(CampaignStore::ReferenceName(campaign_name));
  if (!reference.ok()) return reference.status();
  auto rows = store.TopLevelRowsOf(campaign_name);
  if (!rows.ok()) return rows.status();
  AnalysisReport report;
  report.campaign = campaign_name;
  for (const CampaignStore::ExperimentRow& row : rows.value()) {
    if (row.experiment_name == reference.value().experiment_name) continue;
    ReferenceAccumulate(&report, Classify(reference.value().state, row.state));
  }
  return report;
}

inline util::Result<std::map<std::string, AnalysisReport>>
ReferenceAnalyzeByLocationGroup(const CampaignStore& store,
                                const std::string& campaign_name) {
  auto reference =
      store.GetExperiment(CampaignStore::ReferenceName(campaign_name));
  if (!reference.ok()) return reference.status();
  auto rows = store.TopLevelRowsOf(campaign_name);
  if (!rows.ok()) return rows.status();
  std::map<std::string, AnalysisReport> by_group;
  for (const CampaignStore::ExperimentRow& row : rows.value()) {
    if (row.experiment_name == reference.value().experiment_name) continue;
    AnalysisReport& report =
        by_group[ReferenceLocationGroupOf(row.experiment_data)];
    if (report.campaign.empty()) report.campaign = campaign_name;
    ReferenceAccumulate(&report, Classify(reference.value().state, row.state));
  }
  return by_group;
}

inline auto Fields(const AnalysisReport& r) {
  return std::make_tuple(r.campaign, r.total, r.by_outcome,
                         r.detected_by_mechanism, r.escaped_value,
                         r.escaped_timeliness);
}

/// Both results fail with the same status, or hold equal values.
template <typename T, typename Compare>
void ExpectSameResult(const util::Result<T>& got, const util::Result<T>& want,
                      Compare&& compare) {
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << got.status().ToString() << ", want "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  compare(got.value(), want.value());
}

/// AnalyzeCampaign and AnalyzeByLocationGroup of `campaign_name` equal the
/// copy-based reference's, status and message included.
inline void ExpectInPlaceAnalysisMatches(const CampaignStore& store,
                                         const std::string& campaign_name) {
  SCOPED_TRACE("campaign " + campaign_name);
  ExpectSameResult(AnalyzeCampaign(store, campaign_name),
                   ReferenceAnalyzeCampaign(store, campaign_name),
                   [](const AnalysisReport& got, const AnalysisReport& want) {
                     EXPECT_EQ(Fields(got), Fields(want));
                   });
  ExpectSameResult(
      AnalyzeByLocationGroup(store, campaign_name),
      ReferenceAnalyzeByLocationGroup(store, campaign_name),
      [](const std::map<std::string, AnalysisReport>& got,
         const std::map<std::string, AnalysisReport>& want) {
        ASSERT_EQ(got.size(), want.size());
        for (const auto& [group, report] : want) {
          ASSERT_EQ(got.count(group), 1u) << group;
          EXPECT_EQ(Fields(got.at(group)), Fields(report)) << group;
        }
      });
}

}  // namespace goofi::core::testing_reference
