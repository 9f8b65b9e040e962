// E16 — the indexed query engine vs full scans on the campaign database.
//
// Populates LoggedSystemState at a realistic campaign-archive size (100k
// experiment rows across 32 campaigns, Fig. 4 foreign keys intact) and times
// the analysis-layer access patterns both ways — through the planner with
// the CampaignStore's secondary indexes, and with ExecOptions.use_indexes
// off (the scan/nested-loop reference path). Every query pair is checked
// byte-identical before its timing is reported, and the table row counts
// are checked unchanged after the sweep.
//
// The range sweep probes a sorted index on experimentName that this bench
// creates itself (the store's standard indexes do not include one).
//
// Also measured: prepared-statement execution (bind `?` params, cached plan)
// vs re-parsing the SQL text per call, and insert throughput with the
// store's LoggedSystemState indexes maintained incrementally vs an unindexed
// table.
//
// `--json <path>` additionally writes the headline metrics as a flat JSON
// object (see scripts/bench.sh).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign_store.hpp"
#include "db/prepared.hpp"
#include "db/sql_executor.hpp"

namespace goofi::bench {
namespace {

using db::Database;
using db::ExecOptions;
using db::QueryResult;
using db::Value;

constexpr int kRows = 100000;
constexpr int kCampaigns = 32;

std::string ExperimentName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "e%06d", i);
  return buf;
}

/// `prefix + std::to_string(n)` without the rvalue operator+ that trips
/// GCC 12's -Wrestrict false positive (PR105329).
std::string Tagged(const char* prefix, uint64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

/// 100k logged-state rows spread over 32 campaigns on one target. Rows are
/// chained (each names its predecessor as parentExperiment) except every
/// 100th, which is a top-level experiment with a NULL parent.
Database MakeCampaignArchive() {
  Database database;
  core::CampaignStore store(&database);
  core::TargetSystemData target;
  target.name = "t";
  if (!store.PutTargetSystem(target).ok()) std::abort();
  for (int c = 0; c < kCampaigns; ++c) {
    core::CampaignData campaign;
    campaign.name = Tagged("c", static_cast<uint64_t>(c));
    campaign.target_name = "t";
    campaign.workload = "w";
    if (!store.PutCampaign(campaign).ok()) std::abort();
  }
  db::Table* table = database.GetTable("LoggedSystemState");
  for (int i = 0; i < kRows; ++i) {
    const std::string campaign =
        Tagged("c", static_cast<uint64_t>(i % kCampaigns));
    const Value parent = (i % 100 == 0 || i == 0)
                             ? Value::Null()
                             : Value::Text(ExperimentName(i - 1));
    const auto st = table->Insert(
        {Value::Text(ExperimentName(i)), parent, Value::Text(campaign),
         Value::Text(i % 3 == 0 ? "faults=a" : "faults=b"),
         Value::Text(Tagged("state:", i * 2654435761u))});
    if (!st.ok()) {
      std::fprintf(stderr, "populate: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return database;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Stable digest of a result: column list + every cell's serialized text.
std::string Fingerprint(const QueryResult& result) {
  std::string out;
  for (const auto& col : result.columns) out += col + "|";
  out += "\n";
  for (const auto& row : result.rows) {
    for (const auto& value : row) out += value.Serialize() + "|";
    out += "\n";
  }
  return out;
}

struct Timing {
  double scan_ms = 0;
  double indexed_ms = 0;
  double Speedup() const { return indexed_ms > 0 ? scan_ms / indexed_ms : 0; }
};

/// Times one query both ways and insists the results are byte-identical.
Timing TimeBothWays(Database& database, const std::string& sql, int scan_iters,
                    int indexed_iters) {
  ExecOptions scan_options;
  scan_options.use_indexes = false;
  auto reference = db::ExecuteSql(database, sql, scan_options);
  auto indexed = db::ExecuteSql(database, sql);
  if (!reference.ok() || !indexed.ok()) {
    std::fprintf(stderr, "query failed: %s\n", sql.c_str());
    std::abort();
  }
  if (Fingerprint(reference.value()) != Fingerprint(indexed.value())) {
    std::fprintf(stderr, "indexed result differs from scan: %s\n", sql.c_str());
    std::abort();
  }
  Timing timing;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < scan_iters; ++i) {
    auto result = db::ExecuteSql(database, sql, scan_options);
    if (!result.ok()) std::abort();
  }
  timing.scan_ms = SecondsSince(start) * 1000.0 / scan_iters;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < indexed_iters; ++i) {
    auto result = db::ExecuteSql(database, sql);
    if (!result.ok()) std::abort();
  }
  timing.indexed_ms = SecondsSince(start) * 1000.0 / indexed_iters;
  return timing;
}

/// Prepared statement with a bound parameter vs re-parsing the text per call.
void BenchPrepared(Database& database, JsonReport* report) {
  // A point lookup: execution is a primary-key probe, so per-call parse and
  // plan cost — what prepared statements amortize — dominates the total.
  constexpr int kIters = 20000;
  db::StatementCache cache;
  const std::string bound =
      "SELECT experimentData FROM LoggedSystemState WHERE experimentName = ?";
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    auto result = cache.Execute(
        database, bound, {Value::Text(ExperimentName(i % kRows))});
    if (!result.ok()) std::abort();
  }
  const double bound_us = SecondsSince(start) * 1e6 / kIters;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    auto result = db::ExecuteSql(
        database, "SELECT experimentData FROM LoggedSystemState "
                  "WHERE experimentName = '" + ExperimentName(i % kRows) + "'");
    if (!result.ok()) std::abort();
  }
  const double reparse_us = SecondsSince(start) * 1e6 / kIters;
  std::printf("%-34s %10.1f us/query\n", "prepared (bound params)", bound_us);
  std::printf("%-34s %10.1f us/query  (x%.2f)\n", "re-parsed per call",
              reparse_us, reparse_us / bound_us);
  report->Add("prepared_bound_us", bound_us);
  report->Add("prepared_reparse_us", reparse_us);
  report->Add("prepared_speedup", reparse_us / bound_us);
}

/// Insert throughput with the CampaignStore's LoggedSystemState indexes
/// maintained incrementally, vs the same rows into a copy of the schema with
/// no secondary indexes.
void BenchInsertMaintenance(JsonReport* report) {
  constexpr int kInsertRows = 20000;
  size_t store_indexes = 0;
  auto run = [&](bool indexed) {
    Database database;
    core::CampaignStore store(&database);
    core::TargetSystemData target;
    target.name = "t";
    if (!store.PutTargetSystem(target).ok()) std::abort();
    core::CampaignData campaign;
    campaign.name = "c";
    campaign.target_name = "t";
    campaign.workload = "w";
    if (!store.PutCampaign(campaign).ok()) std::abort();
    db::Table* table = database.GetTable("LoggedSystemState");
    if (indexed) store_indexes = table->indexes().size();
    if (!indexed) {
      while (!table->indexes().empty()) {
        if (!table->DropIndex(table->indexes().front()->name).ok())
          std::abort();
      }
    }
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kInsertRows; ++i) {
      const auto st = table->Insert({Value::Text(ExperimentName(i)),
                                     Value::Null(), Value::Text("c"),
                                     Value::Text("faults=x"),
                                     Value::Text("state")});
      if (!st.ok()) std::abort();
    }
    return kInsertRows / SecondsSince(start) / 1000.0;
  };
  const double plain = run(false);
  const double indexed = run(true);
  std::printf("%-34s %10.1f krows/s\n", "insert (no secondary indexes)", plain);
  std::string label = Tagged("insert (", store_indexes);
  label += " indexes maintained)";
  std::printf("%-34s %10.1f krows/s  (%.0f%% of plain)\n", label.c_str(),
              indexed, 100.0 * indexed / plain);
  report->Add("insert_krows_per_s_plain", plain);
  report->Add("insert_krows_per_s_indexed", indexed);
}

int Main(int argc, char** argv) {
  std::printf("E16: indexed query engine vs full scans, %d rows, %d campaigns\n\n",
              kRows, kCampaigns);
  Database database = MakeCampaignArchive();
  if (!database
           .CreateIndex("LoggedSystemState", "bench_lss_name",
                        {"experimentName"}, db::IndexKind::kSorted)
           .ok()) {
    std::abort();
  }
  const size_t lss_before = database.GetTable("LoggedSystemState")->size();
  const size_t campaigns_before = database.GetTable("CampaignData")->size();

  struct Sweep {
    const char* label;
    const char* key;
    std::string sql;
    int scan_iters;
    int indexed_iters;
  };
  const Sweep sweeps[] = {
      {"equality (campaignName = 'c17')", "eq",
       "SELECT experimentName, experimentData FROM LoggedSystemState "
       "WHERE campaignName = 'c17'",
       5, 50},
      {"range (experimentName window)", "range",
       "SELECT COUNT(*) FROM LoggedSystemState "
       "WHERE experimentName >= 'e050000' AND experimentName < 'e050200'",
       5, 500},
      {"IS NULL (top-level experiments)", "isnull",
       "SELECT COUNT(*) FROM LoggedSystemState WHERE parentExperiment IS NULL",
       5, 200},
      {"analysis join (campaign x state)", "join",
       "SELECT CampaignData.campaignName, COUNT(*) "
       "FROM CampaignData JOIN LoggedSystemState "
       "ON CampaignData.campaignName = LoggedSystemState.campaignName "
       "WHERE CampaignData.targetName = 't' "
       "GROUP BY CampaignData.campaignName",
       2, 10},
  };

  JsonReport report;
  report.Add("rows", kRows);
  report.Add("campaigns", kCampaigns);
  std::printf("%-34s %12s %12s %9s\n", "query", "scan ms", "indexed ms",
              "speedup");
  for (const Sweep& sweep : sweeps) {
    const Timing timing =
        TimeBothWays(database, sweep.sql, sweep.scan_iters, sweep.indexed_iters);
    std::printf("%-34s %12.3f %12.3f %8.1fx\n", sweep.label, timing.scan_ms,
                timing.indexed_ms, timing.Speedup());
    report.Add(std::string(sweep.key) + "_scan_ms", timing.scan_ms);
    report.Add(std::string(sweep.key) + "_indexed_ms", timing.indexed_ms);
    report.Add(std::string(sweep.key) + "_speedup", timing.Speedup());
  }
  std::printf("\n");
  BenchPrepared(database, &report);
  std::printf("\n");
  BenchInsertMaintenance(&report);

  // The sweep is read-only: the archive must be exactly as populated.
  if (database.GetTable("LoggedSystemState")->size() != lss_before ||
      database.GetTable("CampaignData")->size() != campaigns_before) {
    std::fprintf(stderr, "query sweep mutated the campaign database\n");
    std::abort();
  }
  std::string index_error;
  if (!database.GetTable("LoggedSystemState")->ValidateIndexes(&index_error)) {
    std::fprintf(stderr, "index validation failed: %s\n", index_error.c_str());
    std::abort();
  }

  if (const char* path = JsonOutputPath(argc, argv)) report.Write(path);
  return 0;
}

}  // namespace
}  // namespace goofi::bench

int main(int argc, char** argv) { return goofi::bench::Main(argc, argv); }
