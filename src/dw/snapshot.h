#ifndef DWQA_DW_SNAPSHOT_H_
#define DWQA_DW_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "dw/wal.h"
#include "dw/warehouse.h"

namespace dwqa {
namespace dw {

/// \brief One file entry of a snapshot manifest.
struct ManifestEntry {
  std::string file;      ///< Name inside the snapshot directory.
  uint64_t size = 0;     ///< Byte size at manifest time.
  std::string crc_hex;   ///< Crc32Hex of the file content.
};

/// \brief Parsed snapshot MANIFEST.
struct SnapshotManifest {
  Lsn lsn = 0;                          ///< Highest WAL LSN the snapshot covers.
  std::vector<ManifestEntry> entries;   ///< Every data file of the snapshot.
  /// Not MANIFEST text: the parsed `commits.txt` the entries cover, filled
  /// in by VerifySnapshot (empty when the snapshot has none).
  CommitSet commits;
};

/// Serializes/parses the MANIFEST file (`dwqa-snapshot<TAB>1` magic, one
/// `lsn` line, one `file<TAB><name><TAB><size><TAB><crc>` line per entry,
/// `<crc>` as Crc32Hex writes it). Parse errors carry the offending line
/// number and never crash.
class ManifestSerde {
 public:
  static std::string ToText(const SnapshotManifest& manifest);
  static Result<SnapshotManifest> FromText(const std::string& text);
};

/// \brief One snapshot directory found under the durability root.
struct SnapshotInfo {
  std::string name;  ///< Directory name ("snap-<20-digit LSN>").
  Lsn lsn = 0;       ///< Covering LSN parsed from the name.
};

/// \brief Checksummed, atomic warehouse snapshots.
///
/// Layout under the durability root `dir`:
///
///   snap-<lsn, 20 digits>/          one immutable snapshot
///     schema.txt, dim_*.csv, fact_*.csv   (WarehousePersistence format)
///     commits.txt                   the feed's CommitSet (CommitSetSerde)
///     MANIFEST                      written last, covers all other files
///
/// Write() builds the snapshot in `snap-<lsn>.tmp` (every file written
/// and synced, the manifest last, then one sync of that directory) and
/// commits it with one directory rename, then syncs `dir` so the rename
/// survives a crash: a crash at any
/// point leaves either no new snapshot or a complete, verifiable one —
/// never a torn half-snapshot. Readers treat a
/// snapshot as valid only if its MANIFEST parses and every entry matches
/// in size and CRC. `commits.txt` compacts the WAL's commit records as the
/// tables compact its facts, so dropping covered segments loses nothing.
class SnapshotWriter {
 public:
  /// Writes a snapshot of `warehouse` and `commits` covering WAL position
  /// `lsn`. Returns the committed snapshot directory path.
  static Result<std::string> Write(const std::string& dir,
                                   const Warehouse& warehouse,
                                   const CommitSet& commits, Lsn lsn,
                                   Fs* fs = nullptr);
};


/// Lists committed snapshots under `dir`, oldest first. Leftover `*.tmp`
/// build directories are reported via `tmp_leftovers` when non-null.
Result<std::vector<SnapshotInfo>> ListSnapshots(
    const std::string& dir, Fs* fs = nullptr,
    std::vector<std::string>* tmp_leftovers = nullptr);

/// Verifies one snapshot directory against its MANIFEST: parse, existence,
/// size and CRC of every entry, and a commit file that parses. Returns the
/// manifest with its commit set on success; a typed Corruption error
/// naming the first mismatching file otherwise.
Result<SnapshotManifest> VerifySnapshot(const std::string& snapshot_dir,
                                        Fs* fs = nullptr);

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_SNAPSHOT_H_
