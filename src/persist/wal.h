// Write-ahead log for admitted update batches (docs/ARCHITECTURE.md §8).
//
// Every batch that survives UpdateValidator screening is appended — and
// fsynced — to the WAL *before* it is ingested, so a crash between append and
// ingestion loses nothing: recovery replays the record. Segments are named
// "wal-<first record seq, zero-padded>.log" and rotate between records once
// the active segment would exceed the configured size; a record never spans
// segments.
//
// Record framing (all integers little-endian):
//
//   len u32 | crc32(payload) u32 | payload (len bytes)
//
// Payload (type 3, "batch", docs/ARCHITECTURE.md §8.2) — one admitted
// batch, whole, in delivery order:
//
//   type u8 (3) | seq u64 | batch_time i64 | evaluate_after u8
//   | object count u64 | object* | query count u64 | query*
//
// A durable root keeps exactly one log, under <root>/wal/, whatever the
// engine's join-window count: windows split the engine's work, not its
// history. Types 1 (the retired single-engine log) and 2 (the retired
// per-shard routed sub-batch) read as kDataLoss.
//
// A torn frame at the very tail of the *last* segment is the expected residue
// of a crash mid-append: ReadWal tolerates it, reports it, and never ingests
// any part of it. A bad frame anywhere else — or a sequence-number gap — is
// genuine corruption and fails the whole read with kDataLoss.

#ifndef SCUBA_PERSIST_WAL_H_
#define SCUBA_PERSIST_WAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "gen/update.h"
#include "persist/crash.h"

namespace scuba {

/// One durable batch, as written to (or read back from) the log.
struct WalRecord {
  uint64_t seq = 0;
  Timestamp batch_time = 0;
  /// True when the pipeline evaluated a round right after ingesting this
  /// batch ((i+1) % delta == 0); replay re-evaluates at the same boundaries.
  bool evaluate_after = false;
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

/// Appends WalRecords to a directory of rotating segment files. Not
/// thread-safe; the stream pipeline appends from its single driver thread.
class WalWriter {
 public:
  struct Stats {
    uint64_t records_appended = 0;
    uint64_t fsyncs = 0;
    uint64_t bytes_appended = 0;
  };

  /// Opens (creating `dir` if needed) for appending. Scans existing segments
  /// to find the end of the log: next_seq() continues after the last intact
  /// record (a torn tail is truncated away so the new record lands on a clean
  /// boundary), or starts at `initial_seq` when the log is empty. A log that
  /// ends before `initial_seq` (the checkpoint covers batches the log never
  /// held) is kDataLoss. `crash` (nullable, unowned, must outlive the
  /// writer) arms crash injection on the append path.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                 uint64_t segment_bytes,
                                                 uint64_t initial_seq,
                                                 CrashInjector* crash);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one batch record (stamped with next_seq()) and fdatasyncs the
  /// segment. Injects kBeforeWalAppend (nothing written), kMidWalAppend (half
  /// the frame written and synced — a torn tail) and kAfterWalAppend (fully
  /// durable, but the caller's ingestion never happens).
  Status Append(Timestamp batch_time, bool evaluate_after,
                std::span<const LocationUpdate> objects,
                std::span<const QueryUpdate> queries);

  /// Sequence number the next Append will write.
  uint64_t next_seq() const { return next_seq_; }
  const Stats& stats() const { return stats_; }

  /// Deletes every segment whose records ALL precede `min_seq` (they are
  /// covered by a snapshot). The active segment is never deleted. Returns the
  /// number of segments removed.
  Result<size_t> PruneSegmentsBelow(uint64_t min_seq);

 private:
  WalWriter(std::string dir, uint64_t segment_bytes, CrashInjector* crash)
      : dir_(std::move(dir)), segment_bytes_(segment_bytes), crash_(crash) {}

  /// Frame path behind Append: rotation, crash injection, write +
  /// fdatasync, counters.
  Status AppendFrame(const std::string& payload);

  /// Opens (or creates) the segment that starts at `first_seq` for append.
  Status OpenSegment(uint64_t first_seq);
  void CloseSegment();

  std::string dir_;
  uint64_t segment_bytes_;
  CrashInjector* crash_;  ///< Unowned, nullable.
  uint64_t next_seq_ = 0;
  int fd_ = -1;
  std::string segment_path_;
  uint64_t segment_first_seq_ = 0;
  uint64_t segment_size_ = 0;
  Stats stats_;
};

/// Everything ReadWal could recover from a log directory.
struct WalContents {
  std::vector<WalRecord> records;  ///< Intact records, ascending seq.
  /// True when the last segment ended in a torn frame (crash mid-append).
  /// The torn bytes are reported, never parsed into a record.
  bool torn_tail = false;
  std::string torn_detail;
};

/// All WAL segment files in `dir` as (first_seq, path), ascending.
Result<std::vector<std::pair<uint64_t, std::string>>> ListWalSegments(
    const std::string& dir);

/// Reads every record in seq order across all segments. A bad frame at the
/// tail of the final segment is tolerated as a torn tail; a bad frame
/// anywhere else, a CRC/parse failure mid-log, a record that is not a batch
/// record (type 3), or a seq discontinuity is kDataLoss. A missing directory
/// reads as an empty log.
Result<WalContents> ReadWal(const std::string& dir);

}  // namespace scuba

#endif  // SCUBA_PERSIST_WAL_H_
