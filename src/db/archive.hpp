// Campaign archive: binary columnar snapshots plus an append-only WAL.
//
// The snapshot is the O(archive)-cost part — a full image of every table,
// written atomically (temp file + rename). The WAL is the O(delta) part: a
// Database with an Archive attached has every mutation recorded as a logical
// record, group-committed by Commit(). Opening an existing archive loads the
// snapshot, replays the WAL (truncating a torn tail), and resumes appending —
// which is what makes long campaigns restartable across process kills.
//
// Snapshot file layout (see DESIGN.md "Archive format & recovery invariants"):
//
//   header: 0xB1 'G' 'D' 'B' <u8 version=1> <u64 epoch LE> <varint ntables>
//   per table (database iteration order = lowercase-name order):
//     <str name> <schema> <varint nindexes>
//     per index: <str name> <u8 kind> <varint ncols> <str column name>*
//     <varint nrows>
//     per column: <u32 segment_len LE> <u32 crc32(segment) LE> <segment>
//       segment: null bitmap (ceil(nrows/8) bytes, LSB-first, bit set =
//       non-NULL) then, for each non-NULL row in order, <u8 tag><packed value>
//   trailer: <u32 crc32 of everything before it LE>
//
// This is the only database file format: a file that does not start with the
// magic is refused, not converted. Snapshots store row values in live-row
// physical order and persist index definitions, so a loaded database is
// byte-identical (row order, index set) to the one that was saved.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "db/database.hpp"
#include "db/wal.hpp"
#include "util/status.hpp"

namespace goofi::db {

// --- snapshot I/O ------------------------------------------------------------

/// Writes a binary columnar snapshot of `db` to `path` via temp file +
/// atomic rename. `epoch` ties the snapshot to its WAL (see Archive).
util::Status WriteSnapshotFile(const Database& db, const std::string& path,
                               uint64_t epoch);

struct LoadedSnapshot {
  Database db;
  uint64_t epoch = 0;
};

/// Reads a snapshot written by WriteSnapshotFile. The magic is checked
/// before the CRC, so a file in any other format is reported as "not a
/// binary snapshot" rather than as a corrupt one.
util::Result<LoadedSnapshot> ReadSnapshotFile(const std::string& path);

// --- archive -----------------------------------------------------------------

struct ArchiveOptions {
  /// Fold the WAL into a fresh snapshot from Commit() once it outgrows the
  /// snapshot: when wal_bytes > max(min_fold_bytes, snapshot_bytes).
  bool auto_checkpoint = true;
  uint64_t min_fold_bytes = 64 * 1024;
};

/// Counters for `stats`/`archive status`; a consistent copy is returned by
/// Archive::stats() (safe to call from any thread).
struct ArchiveStats {
  uint64_t epoch = 0;
  uint64_t wal_records_appended = 0;
  uint64_t wal_commits = 0;        ///< group commits that reached the disk
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes = 0;          ///< durable WAL size, header included
  uint64_t wal_bytes_truncated = 0;
  bool recovered_torn_tail = false;
  bool stale_wal_discarded = false;
  uint64_t snapshot_bytes = 0;
  uint64_t checkpoints_folded = 0;
};

/// Durable backing for one Database. While attached (as the database's
/// observer) it records every mutation into the WAL; Commit() makes the
/// records since the last commit durable as one group; Checkpoint() folds
/// them into a fresh snapshot and starts a new epoch.
///
/// Thread safety: mutations must come from one thread at a time (the
/// database itself is single-writer; the parallel runner's committer thread
/// satisfies this), but stats() may race with them and is locked.
class Archive final : public DatabaseObserver {
 public:
  /// Refuses a database image (non-OK) before an archive takes it on.
  using Vet = std::function<util::Status(const Database&)>;

  /// Opens or creates the archive at `path` (WAL lives at `path` + ".wal").
  /// An existing archive replaces `db`'s contents with snapshot + replayed
  /// WAL; a fresh one writes an initial snapshot of `db` as-is. `vet`, when
  /// given, sees that image first. Any failure, a refusal by `vet` included,
  /// leaves `db` as it was and writes no file. On success the archive is
  /// attached as `db`'s observer.
  static util::Result<std::unique_ptr<Archive>> Open(
      Database* db, const std::string& path, ArchiveOptions options = {},
      const Vet& vet = nullptr);

  ~Archive() override;

  Archive(const Archive&) = delete;
  Archive& operator=(const Archive&) = delete;

  /// Group commit: makes every record since the last commit durable, then
  /// checkpoints if the WAL outgrew the fold threshold. Surfaces any sticky
  /// error from auto-committed appends.
  util::Status Commit();

  /// Folds the WAL into a fresh snapshot (temp + rename), then resets the
  /// WAL under the next epoch. A crash between the two steps leaves a
  /// new-epoch snapshot with an old-epoch WAL, which Open discards as stale
  /// (its records are already folded in).
  util::Status Checkpoint();

  /// Commits pending records and detaches from the database. Called by the
  /// destructor; call explicitly to observe the final Status.
  util::Status Close();

  const std::string& path() const { return path_; }
  ArchiveStats stats() const;

  // DatabaseObserver implementation (callbacks from the Database/Table
  // mutation paths; not for direct use).
  void OnInsert(const Table& table, const Row& row) override;
  void OnDelete(const Table& table, const std::vector<Row>& removed) override;
  void OnUpdate(const Table& table,
                const std::vector<std::pair<Row, Row>>& changes) override;
  void OnInsertBatchBegin(const Table& table) override;
  void OnInsertBatchEnd(const Table& table, bool committed) override;
  void OnCreateTable(const Schema& schema) override;
  void OnDropTable(const std::string& name) override;
  void OnCreateIndex(const Table& table, const std::string& name,
                     const std::vector<std::string>& columns,
                     IndexKind kind) override;
  void OnDropIndex(const Table& table, const std::string& name) override;

  /// RAII: turns auto-commit off so the WAL buffers across a whole batch,
  /// then commits and restores on destruction (the group commit).
  class GroupCommitScope {
   public:
    explicit GroupCommitScope(Archive* archive);
    ~GroupCommitScope();
    GroupCommitScope(const GroupCommitScope&) = delete;
    GroupCommitScope& operator=(const GroupCommitScope&) = delete;

   private:
    Archive* archive_;
    bool previous_;
  };

 private:
  Archive(Database* db, std::string path, ArchiveOptions options);

  /// Appends one record and, outside a GroupCommitScope, flushes it. I/O
  /// failures latch into error_ (observer callbacks cannot return Status)
  /// and are surfaced by the next Commit()/Close().
  void AppendLocked(WalOp op, const std::string& body);
  util::Status CommitLocked();
  util::Status CheckpointLocked();

  Database* db_;
  const std::string path_;
  const ArchiveOptions options_;
  mutable std::mutex mutex_;
  Wal wal_;
  uint64_t epoch_ = 0;
  bool auto_commit_ = true;  ///< false inside a GroupCommitScope
  bool attached_ = false;
  util::Status error_;  ///< sticky first auto-commit failure

  // In-flight InsertBatch: per-row OnInsert callbacks fold into one
  // kInsertBatch record, emitted (or dropped, on rollback) at batch end.
  bool in_batch_ = false;
  std::string batch_rows_;
  uint64_t batch_count_ = 0;

  ArchiveStats stats_;
};

}  // namespace goofi::db
