// Database bindings for the GOOFI tables (paper Fig. 4).
//
//   TargetSystemData(targetName PK, description, chainData)
//   CampaignData(campaignName PK, targetName FK -> TargetSystemData, ...)
//   LoggedSystemState(experimentName PK,
//                     parentExperiment FK -> LoggedSystemState,
//                     campaignName FK -> CampaignData,
//                     experimentData, stateVector)
//
// "Through the foreign keys, we prevent inconsistencies in the database"
// (§2.3) — the embedded engine enforces them on insert and delete.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "core/types.hpp"
#include "db/database.hpp"
#include "db/prepared.hpp"

namespace goofi::db {
class Archive;
}

namespace goofi::core {

/// Description of a configured target system (the configuration phase,
/// Fig. 5): the scan-chain layout with per-cell name/width/read-only flags.
struct TargetSystemData {
  std::string name;
  std::string description;
  /// One line per cell: "<chain> <cell> <bits> <ro>".
  std::string chain_data;
};

class CampaignStore {
 public:
  /// Creates the three tables in `database` if missing (via EnsureSchema).
  explicit CampaignStore(db::Database* database);

  db::Database& database() { return *database_; }

  /// Creates missing tables and the secondary indexes the analysis queries
  /// rely on. Idempotent. kFailedPrecondition, before anything is created,
  /// when an existing GOOFI table's columns, primary key or foreign keys
  /// differ from Fig. 4. Call again after Database::Load, which may bring in
  /// foreign tables or drop the store's.
  util::Status EnsureSchema();

  /// kFailedPrecondition when a GOOFI table of `database` differs from
  /// Fig. 4; a missing one is fine (EnsureSchema creates it). Reads only, so
  /// a loaded file can be vetted before it replaces the store's database.
  static util::Status CheckSchema(const db::Database& database);

  /// The store's prepared-statement cache. The shell routes ad-hoc `sql`
  /// commands through it so repeated queries skip parsing and planning.
  db::StatementCache& statement_cache() const { return cache_; }

  /// Attaches (or with nullptr detaches) the durable archive backing the
  /// database. While attached, PutExperiment/PutExperiments group-commit its
  /// WAL after each successful write, so a killed campaign recovers every
  /// committed batch. The caller owns the archive (and its attachment as the
  /// database's observer); this is only the commit-point hook.
  void AttachArchive(db::Archive* archive) { archive_ = archive; }
  db::Archive* archive() const { return archive_; }

  // Every accessor below returns kFailedPrecondition, naming the table, when
  // its GOOFI table is missing or differs from Fig. 4 (see EnsureSchema).

  // --- TargetSystemData ----------------------------------------------------
  util::Status PutTargetSystem(const TargetSystemData& target);
  util::Result<TargetSystemData> GetTargetSystem(const std::string& name) const;
  util::Result<std::vector<std::string>> TargetSystemNames() const;

  // --- CampaignData --------------------------------------------------------
  util::Status PutCampaign(const CampaignData& campaign);
  util::Result<CampaignData> GetCampaign(const std::string& name) const;
  util::Result<std::vector<std::string>> CampaignNames() const;

  /// Merges the location selectors and experiment counts of `sources` into a
  /// new campaign named `merged_name` (set-up phase: "merge campaign data
  /// from several fault injection campaigns into a new ... campaign", §3.2).
  /// All sources must share target, technique and workload.
  util::Status MergeCampaigns(const std::vector<std::string>& sources,
                              const std::string& merged_name);

  // --- LoggedSystemState ---------------------------------------------------
  /// One-row PutExperiments.
  util::Status PutExperiment(const std::string& experiment_name,
                             const std::string& parent_experiment,
                             const std::string& campaign_name,
                             const std::string& experiment_data,
                             const LoggedState& state);

  struct ExperimentRow {
    std::string experiment_name;
    std::string parent_experiment;
    std::string campaign_name;
    std::string experiment_data;
    LoggedState state;
  };

  /// Batched insert into LoggedSystemState: one schema/foreign-key resolution
  /// for the whole batch instead of one per row, and all-or-nothing semantics
  /// (on any failure the rows of this batch already inserted are removed).
  /// Rows may reference earlier rows of the same batch via parentExperiment.
  util::Status PutExperiments(const std::vector<ExperimentRow>& rows);

  /// A LoggedSystemState row read in place: views of its stored texts, a
  /// NULL reading as "". Valid only while nothing mutates the table; the
  /// analysis (core/analysis, core/propagation) reads rows this way within
  /// one call and writes nothing meanwhile.
  struct StoredRow {
    std::string_view experiment_name;
    std::string_view parent_experiment;
    std::string_view campaign_name;
    std::string_view experiment_data;
    std::string_view state_vector;
  };
  using StoredRowVisitor = std::function<util::Status(const StoredRow&)>;

  /// The row named `name`, in place; GetExperiment without the copy and
  /// without parsing its stateVector.
  util::Result<StoredRow> GetStoredRow(const std::string& name) const;

  util::Result<ExperimentRow> GetExperiment(const std::string& name) const;
  /// All rows of a campaign, detail rows included, in insertion order.
  util::Result<std::vector<ExperimentRow>> ExperimentsOf(
      const std::string& campaign_name) const;
  /// The campaign's rows without a parent (its reference run and
  /// experiments), in insertion order. Detail rows are neither fetched nor
  /// parsed, so the §3.4 analysis does not depend on them.
  util::Result<std::vector<ExperimentRow>> TopLevelRowsOf(
      const std::string& campaign_name) const;
  /// All rows logged under `parent_experiment` (a detail-mode rerun's
  /// per-instruction trace), in insertion order.
  util::Result<std::vector<ExperimentRow>> DetailRowsOf(
      const std::string& parent_experiment) const;

  /// TopLevelRowsOf in place: `fn` sees each row, in the same order, until
  /// it returns an error, which is then returned.
  util::Status ForEachTopLevelRow(const std::string& campaign_name,
                                  const StoredRowVisitor& fn) const;

  /// A detail-mode re-run's trace (§3.3), keyed by retired instructions.
  using Trace = std::map<uint64_t, LoggedState>;

  /// The detail rows logged under `rerun_name` ("<experiment>/detail"),
  /// parsed in place, in instret order, keeping the first row logged at each
  /// instret. kFailedPrecondition when there are none. The views follow the
  /// StoredRow lifetime rule.
  util::Result<std::vector<LoggedStateView>> TraceViews(
      const std::string& rerun_name) const;

  /// TraceViews copied out, keyed by instret.
  util::Result<Trace> LoadTrace(const std::string& rerun_name) const;

  /// LoadTrace of the campaign's reference re-run ("<campaign>/ref/detail"),
  /// memoized: the store keeps one parsed trace and hands it out again while
  /// Database::schema_version() and the LoggedSystemState table's version()
  /// are unchanged. Errors are not memoized. Safe to call from several
  /// threads as long as none of them mutates the database.
  util::Result<std::shared_ptr<const Trace>> ReferenceTrace(
      const std::string& campaign_name) const;

  /// Name used for a campaign's reference (fault-free) run.
  static std::string ReferenceName(const std::string& campaign_name) {
    return campaign_name + "/ref";
  }

  /// Name of experiment `index` of a campaign ("<campaign>/e0042"). The
  /// serial driver and the parallel runner share this so resume works across
  /// both.
  static std::string ExperimentName(const std::string& campaign_name,
                                    int index);

 private:
  /// The store's one way to its tables: the table `expected` names, or
  /// kFailedPrecondition when it is missing or its columns, primary key or
  /// foreign keys differ from `expected`.
  util::Result<db::Table*> Fig4Table(const db::Schema& expected) const;

  /// Runs one of the store's join-free SELECTs over LoggedSystemState with
  /// `param` bound, handing `fn` each matching row in place.
  util::Status ForEachRow(const std::string& sql, const std::string& param,
                          const StoredRowVisitor& fn) const;
  /// ForEachRow's rows, each copied once into an ExperimentRow.
  util::Result<std::vector<ExperimentRow>> ExperimentQuery(
      const std::string& sql, const std::string& param) const;

  db::Database* database_;
  mutable db::StatementCache cache_;
  db::Archive* archive_ = nullptr;  ///< not owned

  /// ReferenceTrace's memo: one campaign's trace and the table state it was
  /// read from.
  struct TraceMemo {
    std::string campaign;
    uint64_t schema_version = 0;
    uint64_t table_version = 0;
    std::shared_ptr<const Trace> trace;  ///< null while empty
  };
  mutable std::mutex memo_mutex_;
  mutable TraceMemo memo_;  ///< guarded by memo_mutex_
};

}  // namespace goofi::core
