#ifndef DWQA_DW_WAL_H_
#define DWQA_DW_WAL_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "dw/etl.h"

namespace dwqa {
namespace dw {

/// Log sequence number: position of a record in the warehouse's write-ahead
/// log. Strictly monotonic, starting at 1; 0 means "nothing logged yet".
using Lsn = uint64_t;

/// \brief One parsed WAL record: its LSN plus the raw payload bytes.
struct WalRecord {
  Lsn lsn = 0;
  std::string payload;
};

/// \brief The logical content of a Step-5 fact WAL record: everything the
/// recovery replay needs to re-admit the fact — the ETL-shaped record, plus
/// the extraction metadata the Step-4 validator re-checks and the dedup key
/// the feed's idempotence rests on.
///
/// Lives in dw/ (not qa/) so recovery does not depend on the QA layer; the
/// integration pipeline converts its qa::StructuredFact into this shape at
/// append time and supplies a validator callback at recovery time.
struct WalFact {
  std::string fact_name;   ///< Warehouse fact to load into.
  std::string attribute;   ///< "temperature", "price" — the analyzed attr.
  double value = 0.0;      ///< Extracted measure value (post-conversion).
  std::string unit;        ///< Normalized unit ("ºC"), may be empty.
  std::string date_iso;    ///< ISO date or "" when the fact had none.
  std::string location;    ///< City role value.
  std::string url;         ///< Source page (the paper's provenance column).
  double confidence = 0.0; ///< Extraction score of the source answer.
  std::string dedup_key;   ///< (attribute|location|date) feed key.
  FactRecord record;       ///< The exact ETL record the live run loaded.
};

/// \brief Text round-trip of a WalFact, WAL-payload shaped: line-based,
/// tab-separated, hardened against adversarial bytes.
///
///   fact<TAB>Weather
///   attr<TAB>temperature<TAB>8<TAB>ºC<TAB>2004-01-31<TAB>Barcelona<TAB>0.75
///   url<TAB>http://weather.example/barcelona
///   key<TAB>temperature|barcelona|2004-01-31
///   role<TAB>Barcelona
///   role<TAB>2004-01-31<TAB>2004-01<TAB>2004
///   measure<TAB>double<TAB>8
///
/// ToPayload refuses fields containing tabs or newlines (they would tear
/// the framing) with a typed error naming the field; FromPayload returns
/// typed errors with the offending payload line number, never crashes.
class WalFactSerde {
 public:
  static Result<std::string> ToPayload(const WalFact& fact);
  static Result<WalFact> FromPayload(const std::string& payload);
};

/// \brief The record that closes one fed question, appended after the
/// question's facts and loads and synced once: the feed's unit of commit
/// (see ApplyCommitRule).
struct WalCommit {
  std::string question;
  Lsn first_lsn = 0;          ///< First fact LSN of the question (0 = none).
  Lsn last_lsn = 0;           ///< Last fact LSN of the question (0 = none).
  std::vector<Lsn> refused;   ///< LSNs in the range the live ETL refused.

  bool operator==(const WalCommit& other) const = default;
};

/// \brief Text round-trip of a WalCommit, WAL-payload shaped:
///
///   commit<TAB>5<TAB>9
///   question<TAB>What is the temperature in Barcelona in January of 2004?
///   refused<TAB>7
///
/// Like WalFactSerde: ToPayload refuses a question containing a tab or
/// newline; FromPayload returns typed errors with the offending line
/// number, never crashes.
class WalCommitSerde {
 public:
  static Result<std::string> ToPayload(const WalCommit& commit);
  static Result<WalCommit> FromPayload(const std::string& payload);
  /// True when `payload` is a commit record rather than a fact.
  static bool IsCommit(const std::string& payload);
};

/// \brief The feed progress the commit records make durable: questions
/// whose commit refused nothing (one with refused facts stays re-askable),
/// and the dedup keys of every committed, unrefused fact.
struct CommitSet {
  std::set<std::string> questions;
  std::set<std::string> fed_keys;

  bool operator==(const CommitSet& other) const = default;
};

/// \brief Text round-trip of a CommitSet — the snapshot's commit file:
///
///   dwqa-commits<TAB>1
///   question<TAB>What is the temperature in Barcelona in January of 2004?
///   key<TAB>temperature|barcelona|2004-01-31
///
/// Framed like WalCommitSerde, with the same refusals and typed errors.
class CommitSetSerde {
 public:
  static Result<std::string> ToText(const CommitSet& commits);
  static Result<CommitSet> FromText(const std::string& text);
};

/// \brief Options of a WalWriter.
struct WalOptions {
  /// Segment size: each segment is created as a zero-filled image of this
  /// many bytes, and one whose records reach past it is closed and a new
  /// one started at the next append.
  size_t segment_bytes = 64 * 1024;
};

/// \brief One scanned WAL segment file.
struct WalSegmentInfo {
  std::string file;     ///< File name inside the log dir ("wal-….log").
  Lsn start_lsn = 0;    ///< LSN the segment header declares.
  Lsn first_lsn = 0;    ///< First valid record (0 when empty).
  Lsn last_lsn = 0;     ///< Last valid record (0 when empty).
  size_t records = 0;   ///< Valid records in the segment.
  /// Byte offset just past the last whole record: where a writer resumes.
  /// A zero tail after it is the segment's unwritten room.
  size_t end_offset = 0;
  /// Length of the file, zero tail included.
  size_t file_bytes = 0;
  /// Byte offset of a torn/malformed tail inside this file
  /// (std::string::npos when the segment is clean).
  size_t torn_offset = static_cast<size_t>(-1);

  bool torn() const { return torn_offset != static_cast<size_t>(-1); }
};

/// \brief Result of scanning a WAL directory.
struct WalScan {
  /// Every CRC-valid record, in (segment, offset) order — replay order.
  std::vector<WalRecord> records;
  std::vector<WalSegmentInfo> segments;
  Lsn last_lsn = 0;             ///< Highest valid LSN seen (0 = empty log).
  bool torn_tail = false;       ///< A torn/malformed region was found.
  /// Bytes from the first tear to the end of the log, each segment counted
  /// up to its last non-zero byte (a zero tail holds nothing).
  size_t torn_bytes = 0;
  /// Well-framed records whose payload failed its CRC (bit rot): skipped,
  /// never replayed; recovery quarantines them.
  std::vector<WalRecord> corrupt_records;
  /// Human-readable findings ("wal-…log: torn tail at offset 132").
  std::vector<std::string> issues;
};

/// Scans every segment of `dir` (non-destructively): parses records,
/// validates CRCs and LSN monotonicity, locates torn tails. An empty or
/// absent directory yields an empty scan, not an error. Scanning stops at
/// the first torn region (framing cannot be trusted past it); well-framed
/// CRC failures are skipped and collected instead. Zeros from the last
/// whole record to the end of a segment are its clean end; a torn record
/// before them, or a non-zero byte after a zero, is a tear.
Result<WalScan> ScanWal(const std::string& dir, Fs* fs = nullptr);

/// Truncates the torn region a scan found: the tail of the torn segment is
/// cut at the tear offset and any later segment files are removed (their
/// framing is unreachable past the tear), then the directory is synced.
/// Returns the scan's torn_bytes.
Result<size_t> TruncateTornTail(const std::string& dir, const WalScan& scan,
                                Fs* fs = nullptr);

/// \brief One fact record a commit covers, parsed once.
struct CommittedFact {
  Lsn lsn = 0;
  /// The parsed fact, or the Corruption error of an unparseable payload.
  Result<WalFact> fact{Status::Internal("unset")};
};

/// \brief A scanned log sorted by the commit rule.
struct CommittedLog {
  /// Facts a commit covers and does not refuse, in log order: the only
  /// fact records recovery may replay.
  std::vector<CommittedFact> facts;
  size_t covered = 0;      ///< Committed facts at or below `covered_lsn`.
  size_t uncommitted = 0;  ///< Fact records left out.
  CommitSet commits;       ///< The base set plus every commit of the scan.
  /// Commit records that did not parse or cover LSNs at or past their own.
  std::vector<std::string> issues;
};

/// The commit rule, the one place feed progress is derived from the log.
/// A commit settles the facts logged since the previous commit: those in
/// its range and not refused are committed, the rest never are, whatever
/// follows. Folds every commit into `base`; committed facts at or below
/// `covered_lsn` are only counted, since the snapshot `base` came from
/// already holds them and their keys.
CommittedLog ApplyCommitRule(const WalScan& scan, CommitSet base = {},
                             Lsn covered_lsn = 0);

/// \brief Append side of the write-ahead log.
///
/// Layout: `dir/wal-<start-lsn, 20 digits>.log`, each segment a text
/// header line `dwqa-wal<TAB>1<TAB><start_lsn>` followed by framed records
///
///   rec<TAB><lsn><TAB><payload-bytes><TAB><crc32-hex>\n
///   <payload>\n
///
/// with the CRC computed over the payload bytes, and then zeros to the end
/// of the file. A segment is created as a zero-filled image of
/// WalOptions::segment_bytes with the header first, and that file and its
/// directory are synced once, at creation. The writer keeps the current
/// segment open and writes each record at the segment's logical end, over
/// the zeros; a record that reaches past the image extends the file.
/// Appends only write; Sync() is the durability barrier, one fdatasync of
/// the open segment, and the feed calls it once per question, after the
/// question's commit record. Open() continues an existing log: it scans
/// for the highest LSN, truncates any torn tail (same policy as recovery),
/// and appends right after the newest segment's last record. When that
/// segment is shorter than WalOptions::segment_bytes — cut by recovery, by
/// a failed Sync, or written before preallocation — Open zero-fills it
/// back to that size and syncs it once, so its commits again write in
/// place.
class WalWriter {
 public:
  /// Opens (or creates) the log at `dir`. `metrics` (optional) receives
  /// the dwqa_wal_* series.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, WalOptions options = {}, Fs* fs = nullptr,
      MetricRegistry* metrics = nullptr);

  /// Appends one record, assigning the next LSN. The record is durable
  /// once a later Sync() returns OK.
  Result<Lsn> Append(const std::string& payload);

  /// WalFactSerde::ToPayload + Append.
  Result<Lsn> AppendFact(const WalFact& fact);

  /// WalCommitSerde::ToPayload + Append.
  Result<Lsn> AppendCommit(const WalCommit& commit);

  /// fdatasyncs every segment written since the last sync, one closed by a
  /// rotation included. A failed sync cuts the unsynced bytes back off the
  /// log (best effort: none was acknowledged) and fails the writer until
  /// the log is reopened.
  Status Sync();

  /// Syncs, then closes the current segment; the next append starts a new
  /// one.
  Status Rotate();

  /// Syncs, then removes whole segments every record of which has LSN <=
  /// `covered_lsn` (a snapshot covering it makes them redundant). The
  /// current segment is never removed. Returns segments dropped.
  Result<size_t> DropSegmentsCoveredBy(Lsn covered_lsn);

  Lsn last_lsn() const { return last_lsn_; }
  const std::string& dir() const { return dir_; }
  /// Full path of the segment the next append writes to.
  std::string current_segment_path() const;
  size_t segment_count() const { return segments_.size(); }

 private:
  /// The dwqa_wal_* series, resolved once at Open (all null without a
  /// registry).
  struct Instruments {
    explicit Instruments(MetricRegistry* metrics);
    Counter* appends;
    Counter* append_bytes;
    Counter* append_failures;
    Counter* syncs;
    Counter* rotations;
    Gauge* last_lsn;
    Gauge* segments;
  };

  WalWriter(std::string dir, WalOptions options, Fs* fs,
            MetricRegistry* metrics)
      : dir_(std::move(dir)), options_(options), fs_(fs),
        instruments_(metrics) {}

  /// Creates, fills with zeros and syncs a fresh segment whose header
  /// declares `start_lsn`, and makes it the current one.
  Status StartSegment(Lsn start_lsn);
  /// Appends a serialized payload, or counts and returns its error.
  Result<Lsn> AppendSerialized(const Result<std::string>& payload);

  std::string dir_;
  WalOptions options_;
  Fs* fs_;
  Instruments instruments_;
  Lsn last_lsn_ = 0;
  /// Every live segment, oldest first.
  struct Segment {
    std::string file;
    Lsn start_lsn = 0;
    Lsn last_lsn = 0;
    /// Written since the last sync, when it was `synced_bytes` long (0 =
    /// created since: a failed sync removes it).
    bool unsynced = false;
    size_t synced_bytes = 0;
    /// Open while the segment is current or holds unsynced records.
    std::unique_ptr<WritableFile> file_handle;
  };
  std::vector<Segment> segments_;
  /// Logical end of the current segment: where the next record goes.
  size_t current_segment_bytes_ = 0;
  /// The frame being appended, kept to reuse its capacity.
  std::string frame_;
  /// Set by a failed sync; returned by every later call.
  Status failed_;
  /// A rotation was requested; the next append opens a new segment.
  bool rotate_pending_ = false;
};

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_WAL_H_
