#ifndef DWQA_DW_RECOVERY_H_
#define DWQA_DW_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "dw/quarantine.h"
#include "dw/snapshot.h"
#include "dw/wal.h"
#include "dw/warehouse.h"

namespace dwqa {
namespace dw {

/// \brief Options of Recovery::Open.
struct RecoveryOptions {
  /// Filesystem seam (null = real). The crash sweep recovers through the
  /// real Fs after crashing a FaultFs-backed run.
  Fs* fs = nullptr;
  /// Schema used to build an empty warehouse when no valid snapshot exists
  /// (cold start, or every snapshot corrupt). Without it, recovery with no
  /// usable snapshot fails.
  std::optional<MdSchema> bootstrap_schema;
  /// Re-validates each replayed fact — the integration layer plugs the
  /// Step-4 FactValidator in here (MakeRecoveryValidator) so a fact that
  /// was corrupted between WAL append and replay lands in quarantine, not
  /// in the warehouse. Returns a RejectReasonName ("" admits the fact).
  std::function<std::string(const WalFact&)> validate;
  /// Receives the dwqa_recovery_* series (null = observability off).
  MetricRegistry* metrics = nullptr;
  /// Materialized-view catalog to attach to the recovered warehouse
  /// (caller-owned, with its view set already Define()d). View state is
  /// derivable, so it is never persisted: recovery rebuilds it from the
  /// recovered fact multiset (Bind after the snapshot loads) and the WAL
  /// replay routes every replayed fact's delta through incremental
  /// maintenance — the crash-point sweep asserts the result equals a
  /// from-scratch rebuild at every crash point.
  ViewCatalog* views = nullptr;
};

/// \brief The outcome of Recovery::Open: the rebuilt warehouse plus the
/// full account of what recovery did to get there.
struct RecoveredWarehouse {
  explicit RecoveredWarehouse(Warehouse wh) : warehouse(std::move(wh)) {}

  Warehouse warehouse;
  Lsn snapshot_lsn = 0;       ///< Covering LSN of the snapshot loaded (0 = none).
  Lsn last_lsn = 0;           ///< Highest LSN recovered (snapshot or replay).
  size_t replayed = 0;        ///< WAL facts applied on top of the snapshot.
  size_t skipped_covered = 0; ///< Facts skipped as already covered (LSN dedup).
  /// Facts no commit covers or their commit refused: never replayed.
  size_t skipped_uncommitted = 0;
  /// The snapshot's commit set plus every commit of the log.
  CommitSet commits;
  /// Replayed facts refused admission (corrupt payload, validator reject,
  /// ETL refusal) — same dead-letter semantics as the live feed.
  QuarantineStore quarantine;
  size_t torn_bytes_truncated = 0;  ///< Torn-tail bytes cut from the log.
  size_t corrupt_records = 0;       ///< CRC-mismatch records quarantined.
  /// Human-readable findings (fallbacks taken, tmp dirs removed, tears).
  std::vector<std::string> issues;
};

/// \brief Crash recovery: newest valid snapshot + idempotent WAL replay.
///
/// Open() is the one entry point a restarted process uses to get its
/// warehouse back:
///
///  1. leftover `snap-*.tmp` build directories are removed;
///  2. the newest snapshot whose MANIFEST verifies (size + CRC of every
///     file) is loaded — corrupt snapshots are skipped with an issue,
///     falling back to older ones, then to the bootstrap schema;
///  3. the WAL is scanned; a torn tail is truncated (the bytes past the
///     last durable record boundary never committed);
///  4. the commit rule (ApplyCommitRule) selects the facts a commit record
///     covers and does not refuse; those with LSN beyond the snapshot's
///     covering LSN are replayed through the same ETL path the live feed
///     uses. Replay is idempotent (LSN-deduped) and corrupt or invalid
///     facts land in `quarantine` instead of the warehouse.
///
/// The resulting warehouse holds exactly the committed fact set: the
/// loaded facts of every question whose commit was synced, and nothing
/// else — no partly fed question is ever visible. The crash-point sweep
/// (tests/dw/crash_sweep_test.cc) asserts it for every injected crash
/// point.
class Recovery {
 public:
  static Result<RecoveredWarehouse> Open(const std::string& dir,
                                         RecoveryOptions options = {});
};

/// \brief Read-only integrity report of a durability directory.
struct FsckReport {
  std::vector<std::string> issues;  ///< Empty = everything verifies.
  Lsn snapshot_lsn = 0;             ///< Newest valid snapshot's covering LSN.
  Lsn wal_last_lsn = 0;             ///< Highest valid WAL record LSN.
  size_t snapshots = 0;             ///< Committed snapshots found.
  size_t wal_records = 0;           ///< Valid WAL records found.

  bool clean() const { return issues.empty(); }
};

/// Verifies `dir` without mutating it: every snapshot manifest (file
/// sizes + CRCs), WAL framing and CRCs, strict LSN monotonicity and
/// contiguity, snapshot↔WAL continuity (the WAL must cover everything past
/// the newest snapshot), commit records that do not parse or cover LSNs
/// past themselves, and leftover tmp directories.
Result<FsckReport> Fsck(const std::string& dir, Fs* fs = nullptr);

/// The durable feed progress of `dir` without rebuilding the warehouse:
/// the newest verified snapshot's commit set plus every commit of the log.
Result<CommitSet> ReadCommitSet(const std::string& dir, Fs* fs = nullptr);

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_RECOVERY_H_
