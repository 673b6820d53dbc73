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
// Payload (type 2, "routed sub-batch", docs/ARCHITECTURE.md §12) — one
// shard's slice of a batch in a per-shard chain:
//
//   type u8 (2) | seq u64 | batch_time i64 | evaluate_after u8
//   | shard_index u32 | shard_count u32 | total_objects u64 | total_queries u64
//   | object count u64 | (slot u64, object)* | query count u64
//   | (slot u64, query)*
//
// Every tuple's slot is its position in the original batch. Recovery merges
// the sub-records of a seq across all chains back into the exact original
// batch; the slots must form a full permutation of [0, total), which doubles
// as the batch-completeness check (a crash mid-fanout leaves the final seq
// short of shard_count sub-records and it is discarded — that batch was never
// acknowledged). Type 1 (a whole batch in one unsharded log) belonged to the
// retired single-engine layout and now reads as kDataLoss.
//
// A torn frame at the very tail of the *last* segment is the expected residue
// of a crash mid-append: ReadWal tolerates it, reports it, and never ingests
// any part of it. A bad frame anywhere else — or a sequence-number gap — is
// genuine corruption and fails the whole read with kDataLoss. (Routed chains
// may carry a forward seq jump exactly at a segment boundary — the residue of
// an N→M re-partition, where a chain sits out the epochs that did not fan out
// to it; ReadWal tolerates it only when asked, and the cross-chain slot
// merge supplies the integrity check a per-chain gap check cannot.)

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

/// One durable sub-batch, as written to (or read back from) a chain.
struct WalRecord {
  uint64_t seq = 0;
  Timestamp batch_time = 0;
  /// True when the pipeline evaluated a round right after ingesting this
  /// batch ((i+1) % delta == 0); replay re-evaluates at the same boundaries.
  bool evaluate_after = false;
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;

  /// `object_slots` / `query_slots` run parallel to `objects` / `queries`
  /// and name each tuple's position in the original batch; `total_*` count
  /// the whole batch across all chains; `shard_count` says how many sibling
  /// sub-records the seq fanned out to.
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  uint64_t total_objects = 0;
  uint64_t total_queries = 0;
  std::vector<uint64_t> object_slots;
  std::vector<uint64_t> query_slots;
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
  /// boundary), or starts at `initial_seq` when the log is empty. `crash`
  /// (nullable, unowned, must outlive the writer) arms crash injection on the
  /// append path.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                 uint64_t segment_bytes,
                                                 uint64_t initial_seq,
                                                 CrashInjector* crash);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one routed sub-batch record (stamped with next_seq()) and
  /// fdatasyncs the segment. `object_slots` / `query_slots` must parallel
  /// `objects` / `queries`. Injects kBeforeWalAppend (nothing written),
  /// kMidWalAppend / kMidShardWalAppend (half the frame written and synced —
  /// a torn tail) and kAfterWalAppend (fully durable, but the caller's
  /// ingestion never happens).
  Status AppendRouted(Timestamp batch_time, bool evaluate_after,
                      uint32_t shard_index, uint32_t shard_count,
                      uint64_t total_objects, uint64_t total_queries,
                      std::span<const uint64_t> object_slots,
                      std::span<const LocationUpdate> objects,
                      std::span<const uint64_t> query_slots,
                      std::span<const QueryUpdate> queries);

  /// Sequence number the next AppendRouted will write.
  uint64_t next_seq() const { return next_seq_; }
  const Stats& stats() const { return stats_; }

  /// Deletes every segment whose records ALL precede `min_seq` (they are
  /// covered by a snapshot). The active segment is never deleted. Returns the
  /// number of segments removed.
  Result<size_t> PruneSegmentsBelow(uint64_t min_seq);

 private:
  WalWriter(std::string dir, uint64_t segment_bytes, CrashInjector* crash)
      : dir_(std::move(dir)), segment_bytes_(segment_bytes), crash_(crash) {}

  /// Frame path behind AppendRouted: rotation, crash injection, write +
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
  /// Tolerated forward seq jumps at segment boundaries (re-partition
  /// residue, see ReadWal).
  std::vector<std::string> route_gap_notes;
};

/// All WAL segment files in `dir` as (first_seq, path), ascending.
Result<std::vector<std::pair<uint64_t, std::string>>> ListWalSegments(
    const std::string& dir);

/// Reads every record in seq order across all segments. A bad frame at the
/// tail of the final segment is tolerated as a torn tail; a bad frame
/// anywhere else, a CRC/parse failure mid-log, a record that is not a routed
/// sub-batch, or a seq discontinuity is kDataLoss. A missing directory reads
/// as an empty log.
///
/// One exception to seq contiguity: a per-shard chain may legitimately skip
/// forward exactly at a segment boundary — the chain sat out the epochs
/// between two shard layouts (N→M re-partition). Such a jump is noted in
/// route_gap_notes instead of failing; the recovery's cross-chain slot merge
/// supplies the integrity check.
Result<WalContents> ReadWal(const std::string& dir);

/// Physically drops every record with seq >= `first_seq_to_drop`: truncates
/// the segment holding the first such record at its frame boundary (removing
/// the file entirely if nothing precedes it) and deletes all later segments.
/// The sharded durability manager uses this to discard an incomplete batch —
/// one whose fan-out crashed between chains — so every chain resumes on the
/// same sequence. A no-op when the log ends before `first_seq_to_drop`.
Status TruncateWalAfter(const std::string& dir, uint64_t first_seq_to_drop);

}  // namespace scuba

#endif  // SCUBA_PERSIST_WAL_H_
