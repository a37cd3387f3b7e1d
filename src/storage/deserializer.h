// Restores a Database from the snapshot format written by serializer.h.
#ifndef TCHIMERA_STORAGE_DESERIALIZER_H_
#define TCHIMERA_STORAGE_DESERIALIZER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "common/result.h"
#include "core/db/database.h"

namespace tchimera {

// Structural metadata of a snapshot, read without parsing any record.
struct SnapshotInfo {
  int version = 0;      // 1, 2 or 3
  uint64_t epoch = 0;   // v2+ only; v1 snapshots are epoch 0
  size_t records = 0;   // CLASS+OBJECT count from the v2+ footer
  uint64_t byte_size = 0;
  // OK when the snapshot is structurally sound. For v2+ this means the
  // footer is present and the CRC32 over the body matches — a truncated
  // or bit-flipped snapshot fails here, before any record is parsed. v1
  // has no checksum; only the header and terminator are checked.
  Status integrity;
};

// Inspects snapshot text / a snapshot file. Fails only when the input
// cannot be read at all; corruption is reported via `integrity`.
Result<SnapshotInfo> ProbeSnapshot(const std::string& text);
Result<SnapshotInfo> ProbeSnapshotFile(const std::string& path,
                                       FileSystem* fs = nullptr);

// Parses a snapshot; fails with Corruption on any malformed record. A v2+
// snapshot is checksum-verified up front, so corruption is rejected
// before any state is built. These drop any v3 DEFINE records; callers
// that need them use LoadSnapshotFromString below.
Result<std::unique_ptr<Database>> LoadDatabase(std::istream* in);
Result<std::unique_ptr<Database>> LoadDatabaseFromFile(
    const std::string& path);
Result<std::unique_ptr<Database>> LoadDatabaseFromString(
    const std::string& text);

// A fully parsed snapshot: the database plus the v3 DEFINE statements
// (trigger / constraint declarations) in snapshot order, empty for
// v1/v2. The definitions are NOT applied — they address the execution
// facade (ActiveDatabase), not the Database; recovery replays them
// through it after restoring (see storage/recovery.h).
struct LoadedSnapshot {
  std::unique_ptr<Database> db;
  std::vector<std::string> definitions;
};

Result<LoadedSnapshot> LoadSnapshotFromString(const std::string& text);

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_DESERIALIZER_H_
