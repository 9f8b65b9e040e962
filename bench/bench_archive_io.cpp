// E18 — campaign archive I/O: binary columnar snapshot save/load cost, and
// per-batch WAL group commit vs full-file rewrite as the durability
// mechanism behind the parallel runner's ordered commits.
//
// The workload is a populated campaign database (32 campaigns x 600 logged
// experiments, realistic experimentData/stateVector text), then a commit
// phase of 50 further 64-row batches — the shape PutExperiments produces.
// Measured:
//
//   snapshot save/load: Database::Save / Database::Load, and the file size
//   incremental commit: WAL append+flush per batch  vs full Save per batch
//
// plus the recovery cost (snapshot load + WAL replay) and a differential
// self-check: the recovered database must dump byte-identical to the
// database that never left memory.
//
// `--json <path>` writes the headline metrics as a flat JSON object (see
// scripts/bench.sh). Acceptance: wal_commit_speedup >= 5x.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "db/archive.hpp"
#include "util/strings.hpp"

namespace goofi::bench {
namespace {

constexpr int kCampaigns = 32;
constexpr int kRowsPerCampaign = 600;
constexpr int kCommitBatches = 50;
constexpr int kBatchRows = 64;  ///< the runner's commit-batch size

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Every table's rows in storage order, each value through Value::Serialize
/// and length-prefixed: a dump that does not go through the binary encoder
/// being measured.
std::string Dump(const db::Database& db) {
  std::string out;
  for (const std::string& name : db.TableNames()) {
    out += name;
    out += '\n';
    db.GetTable(name)->ForEach([&out](const db::Row& row) {
      for (const db::Value& v : row) {
        const std::string text = v.Serialize();
        out += std::to_string(text.size());
        out += ':';
        out += text;
      }
      out += '\n';
    });
  }
  return out;
}

core::CampaignStore::ExperimentRow MakeRow(const std::string& campaign,
                                           int index) {
  core::CampaignStore::ExperimentRow row;
  row.experiment_name = campaign + "/e" + util::Format("%04d", index);
  row.campaign_name = campaign;
  row.experiment_data = util::Format(
      "cycle=%d;location=internal_regfile.r%d;bit=%d;model=transient_bitflip",
      1000 + index * 37, index % 32, index % 24);
  core::LoggedState state;
  state.halted = index % 5 != 0;
  state.detected = index % 3 == 0;
  if (state.detected) state.edm = "hw_exception";
  state.cycles = 50000 + static_cast<uint64_t>(index) * 13;
  state.instret = 12000 + static_cast<uint64_t>(index) * 7;
  state.iterations = index % 100;
  for (int i = 0; i < 8; ++i) {
    state.outputs.push_back(static_cast<uint32_t>(index * 2654435761u + i));
  }
  row.state = state;
  return row;
}

/// Fills `store` with the base dataset: one target, kCampaigns campaigns,
/// kRowsPerCampaign logged experiments each.
void Populate(core::CampaignStore* store) {
  core::TargetSystemData target;
  target.name = "bench-archive-target";
  target.description = "synthetic target for archive I/O measurements";
  for (int chain = 0; chain < 8; ++chain) {
    for (int cell = 0; cell < 16; ++cell) {
      target.chain_data += util::Format("chain%d cell%02d 32 0\n", chain, cell);
    }
  }
  if (!store->PutTargetSystem(target).ok()) std::abort();
  for (int c = 0; c < kCampaigns; ++c) {
    core::CampaignData campaign = BaseCampaign(util::Format("arch%02d", c),
                                               "bubblesort");
    campaign.target_name = target.name;
    campaign.num_experiments = kRowsPerCampaign;
    if (!store->PutCampaign(campaign).ok()) std::abort();
    std::vector<core::CampaignStore::ExperimentRow> rows;
    rows.reserve(kRowsPerCampaign);
    for (int i = 0; i < kRowsPerCampaign; ++i) {
      rows.push_back(MakeRow(campaign.name, i));
    }
    if (!store->PutExperiments(rows).ok()) std::abort();
  }
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

}  // namespace
}  // namespace goofi::bench

int main(int argc, char** argv) {
  using namespace goofi;
  using namespace goofi::bench;
  using Clock = std::chrono::steady_clock;

  const std::string bin_path = "/tmp/bench_archive_snapshot.bin";
  const std::string arch_path = "/tmp/bench_archive_wal.db";
  const std::string rewrite_path = "/tmp/bench_archive_rewrite.db";

  db::Database base;
  core::CampaignStore base_store(&base);
  Populate(&base_store);
  const int base_rows = kCampaigns * kRowsPerCampaign;
  std::printf("E18 — campaign archive I/O (%d campaigns, %d logged rows)\n\n",
              kCampaigns, base_rows);

  // --- snapshot save/load ---------------------------------------------------
  auto start = Clock::now();
  if (!base.Save(bin_path).ok()) std::abort();
  const double save_bin_ms = SecondsSince(start) * 1e3;
  const uint64_t bin_bytes = FileBytes(bin_path);

  db::Database from_bin;
  start = Clock::now();
  if (!from_bin.Load(bin_path).ok()) std::abort();
  const double load_bin_ms = SecondsSince(start) * 1e3;
  if (Dump(from_bin) != Dump(base)) {
    std::fprintf(stderr, "FAIL: loaded snapshot differs from saved database\n");
    return 1;
  }

  std::printf("%-34s %10s\n", "snapshot", "binary");
  std::printf("%-34s %8.1fms\n", "save", save_bin_ms);
  std::printf("%-34s %8.1fms\n", "load", load_bin_ms);
  std::printf("%-34s %8.1fKB\n\n", "file size", bin_bytes / 1024.0);

  // --- incremental commit: WAL group commit vs full-file rewrite ------------
  // Both sides start from the same populated database and append
  // kCommitBatches batches of kBatchRows rows, making each batch durable
  // before the next — the WAL side with one group-committed append, the
  // baseline by rewriting the whole snapshot.
  std::remove(arch_path.c_str());
  std::remove((arch_path + ".wal").c_str());
  double wal_ms = 0;
  std::string wal_dump;
  {
    db::Database db;
    core::CampaignStore store(&db);
    Populate(&store);
    db::ArchiveOptions options;
    options.auto_checkpoint = false;  // measure pure append+flush commits
    auto archive = db::Archive::Open(&db, arch_path, options);
    if (!archive.ok()) std::abort();
    store.AttachArchive(archive.value().get());
    start = Clock::now();
    for (int b = 0; b < kCommitBatches; ++b) {
      std::vector<core::CampaignStore::ExperimentRow> rows;
      rows.reserve(kBatchRows);
      for (int i = 0; i < kBatchRows; ++i) {
        rows.push_back(MakeRow("arch00", kRowsPerCampaign + b * kBatchRows + i));
      }
      if (!store.PutExperiments(rows).ok()) std::abort();
    }
    wal_ms = SecondsSince(start) * 1e3;
    wal_dump = Dump(db);
    store.AttachArchive(nullptr);
    if (!archive.value()->Close().ok()) std::abort();
  }
  double rewrite_ms = 0;
  {
    db::Database db;
    core::CampaignStore store(&db);
    Populate(&store);
    start = Clock::now();
    for (int b = 0; b < kCommitBatches; ++b) {
      std::vector<core::CampaignStore::ExperimentRow> rows;
      rows.reserve(kBatchRows);
      for (int i = 0; i < kBatchRows; ++i) {
        rows.push_back(MakeRow("arch00", kRowsPerCampaign + b * kBatchRows + i));
      }
      if (!store.PutExperiments(rows).ok()) std::abort();
      if (!db.Save(rewrite_path).ok()) std::abort();
    }
    rewrite_ms = SecondsSince(start) * 1e3;
    if (Dump(db) != wal_dump) {
      std::fprintf(stderr, "FAIL: WAL and rewrite paths diverged\n");
      return 1;
    }
  }
  const double wal_per_batch = wal_ms / kCommitBatches;
  const double rewrite_per_batch = rewrite_ms / kCommitBatches;
  const double commit_speedup = rewrite_per_batch / wal_per_batch;
  std::printf("%-34s %10s %10s\n", "incremental commit",
              "per batch", "total");
  std::printf("%-34s %8.3fms %8.1fms\n", "WAL group commit", wal_per_batch,
              wal_ms);
  std::printf("%-34s %8.3fms %8.1fms\n", "full snapshot rewrite",
              rewrite_per_batch, rewrite_ms);
  std::printf("%-34s %8.2fx\n\n", "commit speedup", commit_speedup);

  // --- recovery: snapshot load + WAL replay ---------------------------------
  double recovery_ms = 0;
  uint64_t replayed = 0;
  {
    db::Database db;
    start = Clock::now();
    auto archive = db::Archive::Open(&db, arch_path);
    recovery_ms = SecondsSince(start) * 1e3;
    if (!archive.ok()) std::abort();
    replayed = archive.value()->stats().wal_records_replayed;
    if (Dump(db) != wal_dump) {
      std::fprintf(stderr,
                   "FAIL: recovered database differs from in-memory run\n");
      return 1;
    }
    if (!archive.value()->Close().ok()) std::abort();
  }
  std::printf("recovery (snapshot + %llu WAL records)   %8.1fms\n",
              static_cast<unsigned long long>(replayed), recovery_ms);
  std::printf("self-check: recovered database is byte-identical\n");

  if (const char* json = JsonOutputPath(argc, argv)) {
    JsonReport report;
    report.Add("rows", base_rows);
    report.Add("save_binary_ms", save_bin_ms);
    report.Add("load_binary_ms", load_bin_ms);
    report.Add("file_binary_bytes", bin_bytes);
    report.Add("wal_commit_ms_per_batch", wal_per_batch);
    report.Add("rewrite_commit_ms_per_batch", rewrite_per_batch);
    report.Add("wal_commit_speedup", commit_speedup);
    report.Add("recovery_ms", recovery_ms);
    report.Add("wal_records_replayed", replayed);
    report.Write(json);
  }

  std::remove(bin_path.c_str());
  std::remove(arch_path.c_str());
  std::remove((arch_path + ".wal").c_str());
  std::remove(rewrite_path.c_str());
  return 0;
}
