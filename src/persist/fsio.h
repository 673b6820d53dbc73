// Low-level durable file IO shared by the snapshot, WAL and manifest writers
// (docs/ARCHITECTURE.md §8).
//
// Extracted from snapshot.cc so every artifact in a durable directory —
// engine snapshots, per-shard snapshots, coordinator manifests — goes through
// the same write-fsync-rename discipline instead of three private copies.

#ifndef SCUBA_PERSIST_FSIO_H_
#define SCUBA_PERSIST_FSIO_H_

#include <string>

#include "common/status.h"

namespace scuba {

/// Writes `data` to `path` (create/truncate), then fdatasync. IoError with
/// errno text on failure. `length` caps the bytes written (torn-write
/// simulation); npos writes everything.
Status WriteFileDurably(const std::string& path, const std::string& data,
                        size_t length = std::string::npos);

/// fsync on a directory, making renames/creations within it durable. EINVAL
/// (a filesystem without directory fsync) is tolerated.
Status SyncDirectory(const std::string& dir);

}  // namespace scuba

#endif  // SCUBA_PERSIST_FSIO_H_
