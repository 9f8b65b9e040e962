#include "core/campaign_store.hpp"

#include <algorithm>
#include <array>

#include "db/archive.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace goofi::core {

namespace {

using db::Column;
using db::ForeignKey;
using db::Row;
using db::Schema;
using db::Value;
using db::ValueType;

// The Fig. 4 schemas, built once: every store method checks its table
// against one of them.

const Schema& TargetSystemSchema() {
  static const Schema schema("TargetSystemData",
                             {{"targetName", ValueType::kText, true},
                              {"description", ValueType::kText, false},
                              {"chainData", ValueType::kText, false}},
                             {"targetName"});
  return schema;
}

const Schema& CampaignSchema() {
  static const Schema schema(
      "CampaignData",
      {{"campaignName", ValueType::kText, true},
       {"targetName", ValueType::kText, true},
       {"technique", ValueType::kText, true},
       {"faultModel", ValueType::kText, true},
       {"faultsPerExperiment", ValueType::kInt, true},
       {"numExperiments", ValueType::kInt, true},
       {"injectMinInstr", ValueType::kInt, true},
       {"injectMaxInstr", ValueType::kInt, true},
       {"locations", ValueType::kText, true},
       {"workload", ValueType::kText, true},
       {"timeoutCycles", ValueType::kInt, true},
       {"maxIterations", ValueType::kInt, true},
       {"seed", ValueType::kInt, true},
       {"logMode", ValueType::kText, true},
       {"observeChains", ValueType::kText, true},
       {"burstLength", ValueType::kInt, true},
       {"burstSpacing", ValueType::kInt, true}},
      {"campaignName"},
      {{{"targetName"}, "TargetSystemData", {"targetName"}}});
  return schema;
}

const Schema& LoggedSystemStateSchema() {
  static const Schema schema(
      "LoggedSystemState",
      {{"experimentName", ValueType::kText, true},
       {"parentExperiment", ValueType::kText, false},
       {"campaignName", ValueType::kText, true},
       {"experimentData", ValueType::kText, false},
       {"stateVector", ValueType::kText, false}},
      {"experimentName"},
      {{{"campaignName"}, "CampaignData", {"campaignName"}},
       {{"parentExperiment"}, "LoggedSystemState", {"experimentName"}}});
  return schema;
}

const std::array<const Schema*, 3>& Fig4Schemas() {
  static const std::array<const Schema*, 3> schemas = {
      &TargetSystemSchema(), &CampaignSchema(), &LoggedSystemStateSchema()};
  return schemas;
}

/// kFailedPrecondition unless `actual` declares the columns, primary key and
/// foreign keys of the Fig. 4 schema `expected`.
util::Status MatchFig4(const Schema& actual, const Schema& expected) {
  if (actual.columns() != expected.columns() ||
      actual.primary_key() != expected.primary_key() ||
      actual.foreign_keys() != expected.foreign_keys()) {
    return util::FailedPrecondition(
        "table " + expected.table_name() +
        " differs from the GOOFI schema (columns, primary key or foreign keys)");
  }
  return util::Status::Ok();
}

// The store's queries over LoggedSystemState. Each selects every column in
// table order, so a matching stored row is also the row the query returns.
constexpr char kRowsOfCampaign[] =
    "SELECT experimentName, parentExperiment, campaignName, experimentData, "
    "stateVector FROM LoggedSystemState WHERE campaignName = ?";
// The executor probes whichever of idx_lss_campaign (the campaign's rows)
// and idx_lss_parent's NULL key (every campaign's top-level rows) has fewer
// slots, and runs the rest of the WHERE clause on the stored rows.
constexpr char kTopLevelRowsOf[] =
    "SELECT experimentName, parentExperiment, campaignName, experimentData, "
    "stateVector FROM LoggedSystemState "
    "WHERE campaignName = ? AND parentExperiment IS NULL";
constexpr char kDetailRowsOf[] =
    "SELECT experimentName, parentExperiment, campaignName, experimentData, "
    "stateVector FROM LoggedSystemState WHERE parentExperiment = ?";

/// A TEXT cell in place ("" when NULL).
std::string_view TextOf(const Value& value) {
  return value.is_null() ? std::string_view()
                         : std::string_view(value.as_text());
}

/// A stored LoggedSystemState row (Fig. 4 column order) in place.
CampaignStore::StoredRow ViewOf(const Row& row) {
  return {TextOf(row[0]), TextOf(row[1]), TextOf(row[2]), TextOf(row[3]),
          TextOf(row[4])};
}

/// The one copy of a stored row, its stateVector parsed.
util::Result<CampaignStore::ExperimentRow> CopyOf(
    const CampaignStore::StoredRow& row) {
  auto state = LoggedState::Deserialize(row.state_vector);
  if (!state.ok()) return state.status();
  return CampaignStore::ExperimentRow{
      std::string(row.experiment_name), std::string(row.parent_experiment),
      std::string(row.campaign_name), std::string(row.experiment_data),
      std::move(state).value()};
}

}  // namespace

CampaignStore::CampaignStore(db::Database* database) : database_(database) {
  const util::Status st = EnsureSchema();
  if (!st.ok()) {
    util::Log::Error("CampaignStore: cannot set up schema: " + st.ToString());
  }
}

util::Result<db::Table*> CampaignStore::Fig4Table(
    const Schema& expected) const {
  db::Table* table = database_->GetTable(expected.table_name());
  if (table == nullptr) {
    return util::FailedPrecondition("GOOFI table " + expected.table_name() +
                                    " is missing");
  }
  GOOFI_RETURN_IF_ERROR(MatchFig4(table->schema(), expected));
  return table;
}

util::Status CampaignStore::CheckSchema(const db::Database& database) {
  for (const Schema* schema : Fig4Schemas()) {
    const db::Table* table = database.GetTable(schema->table_name());
    if (table != nullptr) {
      GOOFI_RETURN_IF_ERROR(MatchFig4(table->schema(), *schema));
    }
  }
  return util::Status::Ok();
}

util::Status CampaignStore::EnsureSchema() {
  // Check every existing table before creating anything, so a foreign file
  // is refused without being written to.
  GOOFI_RETURN_IF_ERROR(CheckSchema(*database_));
  for (const Schema* schema : Fig4Schemas()) {
    if (!database_->HasTable(schema->table_name())) {
      GOOFI_RETURN_IF_ERROR(database_->CreateTable(*schema));
    }
  }
  // Secondary indexes backing the analysis queries (§3.4): equality on
  // campaignName (AnalyzeCampaign, the analysis join), and equality and
  // IS NULL on parentExperiment (detail traces; top-level experiment
  // filters). Lookups by experimentName use the primary key. An archive
  // written with a sorted index on experimentName loads with it.
  struct IndexSpec {
    const char* table;
    const char* name;
    std::vector<std::string> columns;
    db::IndexKind kind;
  };
  const IndexSpec specs[] = {
      {"LoggedSystemState", "idx_lss_campaign", {"campaignName"},
       db::IndexKind::kHash},
      {"LoggedSystemState", "idx_lss_parent", {"parentExperiment"},
       db::IndexKind::kHash},
      {"CampaignData", "idx_campaign_target", {"targetName"},
       db::IndexKind::kHash},
  };
  for (const IndexSpec& spec : specs) {
    const db::Table* table = database_->GetTable(spec.table);
    if (table == nullptr || table->FindIndex(spec.name) != nullptr) continue;
    GOOFI_RETURN_IF_ERROR(
        database_->CreateIndex(spec.table, spec.name, spec.columns, spec.kind));
  }
  return util::Status::Ok();
}

// --- TargetSystemData --------------------------------------------------------

util::Status CampaignStore::PutTargetSystem(const TargetSystemData& target) {
  auto found = Fig4Table(TargetSystemSchema());
  if (!found.ok()) return found.status();
  db::Table* table = found.value();
  // Upsert: replace any existing row (never referenced rows are deleted here;
  // campaigns reference by name so deletion of a referenced target fails).
  const std::string name = target.name;
  const auto existing = table->FindByPrimaryKey({Value::Text(name)});
  if (existing) {
    size_t updated = 0;
    GOOFI_RETURN_IF_ERROR(table->UpdateWhere(
        [&name](const Row& row) { return row[0].as_text() == name; },
        [&target](Row& row) {
          row[1] = Value::Text(target.description);
          row[2] = Value::Text(target.chain_data);
        },
        &updated));
    return util::Status::Ok();
  }
  return database_->Insert("TargetSystemData",
                           {Value::Text(target.name),
                            Value::Text(target.description),
                            Value::Text(target.chain_data)});
}

util::Result<TargetSystemData> CampaignStore::GetTargetSystem(
    const std::string& name) const {
  auto found = Fig4Table(TargetSystemSchema());
  if (!found.ok()) return found.status();
  const db::Table* table = found.value();
  const auto slot = table->FindByPrimaryKey({Value::Text(name)});
  if (!slot) return util::NotFound("no target system " + name);
  const Row& row = table->slots()[*slot];
  TargetSystemData out;
  out.name = row[0].as_text();
  out.description = row[1].is_null() ? "" : row[1].as_text();
  out.chain_data = row[2].is_null() ? "" : row[2].as_text();
  return out;
}

util::Result<std::vector<std::string>> CampaignStore::TargetSystemNames()
    const {
  auto found = Fig4Table(TargetSystemSchema());
  if (!found.ok()) return found.status();
  std::vector<std::string> names;
  found.value()->ForEach(
      [&names](const Row& row) { names.push_back(row[0].as_text()); });
  return names;
}

// --- CampaignData -------------------------------------------------------------

util::Status CampaignStore::PutCampaign(const CampaignData& c) {
  std::vector<std::string> locations;
  locations.reserve(c.locations.size());
  for (const FaultLocationSelector& sel : c.locations) {
    locations.push_back(sel.ToString());
  }
  Row row = {Value::Text(c.name),
             Value::Text(c.target_name),
             Value::Text(TechniqueName(c.technique)),
             Value::Text(FaultModelName(c.fault_model)),
             Value::Int(c.faults_per_experiment),
             Value::Int(c.num_experiments),
             Value::Int(static_cast<int64_t>(c.inject_min_instr)),
             Value::Int(static_cast<int64_t>(c.inject_max_instr)),
             Value::Text(util::Join(locations, " ")),
             Value::Text(c.workload),
             Value::Int(static_cast<int64_t>(c.timeout_cycles)),
             Value::Int(c.max_iterations),
             Value::Int(static_cast<int64_t>(c.seed)),
             Value::Text(LogModeName(c.log_mode)),
             Value::Text(util::Join(c.observe_chains, " ")),
             Value::Int(c.burst_length),
             Value::Int(static_cast<int64_t>(c.burst_spacing))};
  auto found = Fig4Table(CampaignSchema());
  if (!found.ok()) return found.status();
  db::Table* table = found.value();
  const auto existing = table->FindByPrimaryKey({Value::Text(c.name)});
  if (existing) {
    size_t updated = 0;
    const std::string name = c.name;
    return table->UpdateWhere(
        [&name](const Row& r) { return r[0].as_text() == name; },
        [&row](Row& r) { r = row; }, &updated);
  }
  return database_->Insert("CampaignData", std::move(row));
}

util::Result<CampaignData> CampaignStore::GetCampaign(
    const std::string& name) const {
  auto found = Fig4Table(CampaignSchema());
  if (!found.ok()) return found.status();
  const db::Table* table = found.value();
  const auto slot = table->FindByPrimaryKey({Value::Text(name)});
  if (!slot) return util::NotFound("no campaign " + name);
  const Row& row = table->slots()[*slot];
  CampaignData c;
  c.name = row[0].as_text();
  c.target_name = row[1].as_text();
  auto technique = TechniqueFromName(row[2].as_text());
  if (!technique.ok()) return technique.status();
  c.technique = technique.value();
  auto model = FaultModelFromName(row[3].as_text());
  if (!model.ok()) return model.status();
  c.fault_model = model.value();
  c.faults_per_experiment = static_cast<int>(row[4].as_int());
  c.num_experiments = static_cast<int>(row[5].as_int());
  c.inject_min_instr = static_cast<uint64_t>(row[6].as_int());
  c.inject_max_instr = static_cast<uint64_t>(row[7].as_int());
  c.locations.clear();
  for (const std::string& token : util::SplitWhitespace(row[8].as_text())) {
    auto sel = FaultLocationSelector::Parse(token);
    if (!sel.ok()) return sel.status();
    c.locations.push_back(std::move(sel).value());
  }
  c.workload = row[9].as_text();
  c.timeout_cycles = static_cast<uint64_t>(row[10].as_int());
  c.max_iterations = static_cast<int>(row[11].as_int());
  c.seed = static_cast<uint64_t>(row[12].as_int());
  c.log_mode = row[13].as_text() == "detail" ? LogMode::kDetail : LogMode::kNormal;
  c.observe_chains = util::SplitWhitespace(row[14].as_text());
  c.burst_length = static_cast<uint32_t>(row[15].as_int());
  c.burst_spacing = static_cast<uint64_t>(row[16].as_int());
  return c;
}

util::Result<std::vector<std::string>> CampaignStore::CampaignNames() const {
  auto found = Fig4Table(CampaignSchema());
  if (!found.ok()) return found.status();
  std::vector<std::string> names;
  found.value()->ForEach(
      [&names](const Row& row) { names.push_back(row[0].as_text()); });
  return names;
}

util::Status CampaignStore::MergeCampaigns(
    const std::vector<std::string>& sources, const std::string& merged_name) {
  if (sources.empty()) return util::InvalidArgument("no source campaigns");
  auto first = GetCampaign(sources[0]);
  if (!first.ok()) return first.status();
  CampaignData merged = std::move(first).value();
  merged.name = merged_name;
  for (size_t i = 1; i < sources.size(); ++i) {
    auto next = GetCampaign(sources[i]);
    if (!next.ok()) return next.status();
    const CampaignData& c = next.value();
    if (c.target_name != merged.target_name ||
        c.technique != merged.technique || c.workload != merged.workload) {
      return util::FailedPrecondition(
          "campaign " + sources[i] +
          " differs in target/technique/workload; cannot merge");
    }
    merged.num_experiments += c.num_experiments;
    for (const FaultLocationSelector& sel : c.locations) {
      bool present = false;
      for (const FaultLocationSelector& have : merged.locations) {
        if (have.chain == sel.chain && have.cell_prefix == sel.cell_prefix) {
          present = true;
          break;
        }
      }
      if (!present) merged.locations.push_back(sel);
    }
    merged.inject_min_instr = std::min(merged.inject_min_instr, c.inject_min_instr);
    merged.inject_max_instr = std::max(merged.inject_max_instr, c.inject_max_instr);
  }
  return PutCampaign(merged);
}

// --- LoggedSystemState ---------------------------------------------------------

std::string CampaignStore::ExperimentName(const std::string& campaign_name,
                                          int index) {
  return util::Format("%s/e%04d", campaign_name.c_str(), index);
}

util::Status CampaignStore::PutExperiments(
    const std::vector<ExperimentRow>& rows) {
  GOOFI_RETURN_IF_ERROR(Fig4Table(LoggedSystemStateSchema()).status());
  std::vector<Row> db_rows;
  db_rows.reserve(rows.size());
  for (const ExperimentRow& row : rows) {
    db_rows.push_back({Value::Text(row.experiment_name),
                       row.parent_experiment.empty()
                           ? Value::Null()
                           : Value::Text(row.parent_experiment),
                       Value::Text(row.campaign_name),
                       Value::Text(row.experiment_data),
                       Value::Text(row.state.Serialize())});
  }
  GOOFI_RETURN_IF_ERROR(
      database_->InsertBatch("LoggedSystemState", std::move(db_rows)));
  // Durability point: the whole batch becomes one WAL group commit. Under
  // the runner's GroupCommitScope this is the only flush; with auto-commit
  // the records are already durable and this is a no-op.
  if (archive_ != nullptr) return archive_->Commit();
  return util::Status::Ok();
}

util::Status CampaignStore::PutExperiment(const std::string& experiment_name,
                                          const std::string& parent_experiment,
                                          const std::string& campaign_name,
                                          const std::string& experiment_data,
                                          const LoggedState& state) {
  return PutExperiments({{experiment_name, parent_experiment, campaign_name,
                          experiment_data, state}});
}

util::Result<CampaignStore::StoredRow> CampaignStore::GetStoredRow(
    const std::string& name) const {
  auto found = Fig4Table(LoggedSystemStateSchema());
  if (!found.ok()) return found.status();
  const db::Table* table = found.value();
  const auto slot = table->FindByPrimaryKey({Value::Text(name)});
  if (!slot) return util::NotFound("no experiment " + name);
  return ViewOf(table->slots()[*slot]);
}

util::Result<CampaignStore::ExperimentRow> CampaignStore::GetExperiment(
    const std::string& name) const {
  auto row = GetStoredRow(name);
  if (!row.ok()) return row.status();
  return CopyOf(row.value());
}

util::Status CampaignStore::ForEachRow(const std::string& sql,
                                       const std::string& param,
                                       const StoredRowVisitor& fn) const {
  GOOFI_RETURN_IF_ERROR(Fig4Table(LoggedSystemStateSchema()).status());
  auto statement = cache_.Get(sql);
  if (!statement.ok()) return statement.status();
  return statement.value()->ForEachMatch(
      *database_, {Value::Text(param)},
      [&fn](const Row& row) { return fn(ViewOf(row)); });
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
CampaignStore::ExperimentQuery(const std::string& sql,
                               const std::string& param) const {
  std::vector<ExperimentRow> rows;
  GOOFI_RETURN_IF_ERROR(ForEachRow(sql, param, [&rows](const StoredRow& row) {
    auto copy = CopyOf(row);
    if (!copy.ok()) return copy.status();
    rows.push_back(std::move(copy).value());
    return util::Status::Ok();
  }));
  return rows;
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
CampaignStore::ExperimentsOf(const std::string& campaign_name) const {
  // Routed through the prepared-statement cache: an index equality probe on
  // idx_lss_campaign instead of a scan of the whole log table. Index probes
  // replay rows in insertion order, same as the scan did.
  return ExperimentQuery(kRowsOfCampaign, campaign_name);
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
CampaignStore::TopLevelRowsOf(const std::string& campaign_name) const {
  return ExperimentQuery(kTopLevelRowsOf, campaign_name);
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
CampaignStore::DetailRowsOf(const std::string& parent_experiment) const {
  return ExperimentQuery(kDetailRowsOf, parent_experiment);
}

util::Status CampaignStore::ForEachTopLevelRow(
    const std::string& campaign_name, const StoredRowVisitor& fn) const {
  return ForEachRow(kTopLevelRowsOf, campaign_name, fn);
}

util::Result<std::vector<LoggedStateView>> CampaignStore::TraceViews(
    const std::string& rerun_name) const {
  // Index probe on parentExperiment: parses just this rerun's rows.
  std::vector<LoggedStateView> steps;
  GOOFI_RETURN_IF_ERROR(
      ForEachRow(kDetailRowsOf, rerun_name, [&steps](const StoredRow& row) {
        steps.emplace_back();
        return steps.back().Parse(row.state_vector);
      }));
  if (steps.empty()) {
    return util::FailedPrecondition(
        "no detail trace under " + rerun_name +
        "; run RerunDetailed first (for the experiment and for the campaign "
        "reference)");
  }
  // A re-run logs its steps in instret order; rows put in by other means
  // are brought into it, keeping the first row at each instret.
  const auto by_instret = [](const LoggedStateView& a,
                             const LoggedStateView& b) {
    return a.instret < b.instret;
  };
  const auto same_instret = [](const LoggedStateView& a,
                               const LoggedStateView& b) {
    return a.instret == b.instret;
  };
  if (!std::is_sorted(steps.begin(), steps.end(), by_instret)) {
    std::stable_sort(steps.begin(), steps.end(), by_instret);
  }
  steps.erase(std::unique(steps.begin(), steps.end(), same_instret),
              steps.end());
  return steps;
}

util::Result<CampaignStore::Trace> CampaignStore::LoadTrace(
    const std::string& rerun_name) const {
  auto steps = TraceViews(rerun_name);
  if (!steps.ok()) return steps.status();
  Trace trace;
  for (const LoggedStateView& step : steps.value()) {
    trace.emplace_hint(trace.end(), step.instret, step.ToState());
  }
  return trace;
}

util::Result<std::shared_ptr<const CampaignStore::Trace>>
CampaignStore::ReferenceTrace(const std::string& campaign_name) const {
  // Any row insert, update or delete bumps the table's version, and Load or
  // DDL the schema version, so an unchanged pair means unchanged rows.
  auto table = Fig4Table(LoggedSystemStateSchema());
  if (!table.ok()) return table.status();
  const uint64_t schema_version = database_->schema_version();
  const uint64_t table_version = table.value()->version();
  std::lock_guard<std::mutex> lock(memo_mutex_);
  if (memo_.trace != nullptr && memo_.campaign == campaign_name &&
      memo_.schema_version == schema_version &&
      memo_.table_version == table_version) {
    return memo_.trace;
  }
  auto trace = LoadTrace(ReferenceName(campaign_name) + "/detail");
  if (!trace.ok()) return trace.status();
  memo_ = {campaign_name, schema_version, table_version,
           std::make_shared<const Trace>(std::move(trace).value())};
  return memo_.trace;
}

}  // namespace goofi::core
