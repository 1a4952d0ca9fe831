#include "dw/recovery.h"

#include <algorithm>

#include "common/metric_names.h"
#include "dw/etl.h"
#include "dw/materialized_view.h"
#include "dw/persistence.h"

namespace dwqa {
namespace dw {

namespace {

/// First ~80 bytes of a payload, newlines flattened — enough context to
/// triage a quarantined record without dumping the whole blob.
std::string PayloadSnippet(const std::string& payload) {
  std::string snippet = payload.substr(0, 80);
  for (char& c : snippet) {
    if (c == '\n' || c == '\t') c = ' ';
  }
  if (payload.size() > 80) snippet += "...";
  return snippet;
}

QuarantineRecord QuarantineFromFact(const WalFact& fact,
                                    const std::string& reason,
                                    const std::string& detail) {
  QuarantineRecord record;
  record.attribute = fact.attribute;
  record.value = std::to_string(fact.value);
  record.unit = fact.unit;
  record.date_iso = fact.date_iso;
  record.location = fact.location;
  record.url = fact.url;
  record.reason = reason;
  record.detail = detail;
  return record;
}

Result<RecoveredWarehouse> OpenImpl(const std::string& dir,
                                    const RecoveryOptions& options, Fs* fs,
                                    MetricRegistry* metrics) {
  std::vector<std::string> issues;

  // 1. Sweep leftover snapshot build directories: they are by definition
  // uncommitted (the commit point is the directory rename).
  std::vector<std::string> tmp_leftovers;
  DWQA_ASSIGN_OR_RETURN(std::vector<SnapshotInfo> snapshots,
                        ListSnapshots(dir, fs, &tmp_leftovers));
  for (const std::string& tmp : tmp_leftovers) {
    DWQA_RETURN_NOT_OK(fs->RemoveAll(dir + "/" + tmp));
    issues.push_back("removed uncommitted snapshot build dir '" + tmp + "'");
  }

  // 2. Newest snapshot that verifies wins; corrupt ones are skipped.
  std::optional<Warehouse> warehouse;
  CommitSet snapshot_commits;
  Lsn snapshot_lsn = 0;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    const std::string path = dir + "/" + it->name;
    auto manifest = VerifySnapshot(path, fs);
    if (!manifest.ok()) {
      issues.push_back("snapshot '" + it->name + "' failed verification, "
                       "falling back: " + manifest.status().message());
      continue;
    }
    auto loaded = WarehousePersistence::Load(path, fs);
    if (!loaded.ok()) {
      issues.push_back("snapshot '" + it->name + "' verified but did not "
                       "load, falling back: " + loaded.status().message());
      continue;
    }
    warehouse.emplace(std::move(*loaded));
    snapshot_commits = std::move(manifest->commits);
    snapshot_lsn = it->lsn;
    break;
  }
  if (!warehouse.has_value()) {
    if (!options.bootstrap_schema.has_value()) {
      return Status::NotFound(
          "recovery of '" + dir + "': no usable snapshot and no bootstrap "
          "schema to build an empty warehouse from");
    }
    DWQA_ASSIGN_OR_RETURN(Warehouse empty,
                          Warehouse::Create(*options.bootstrap_schema));
    warehouse.emplace(std::move(empty));
    if (!snapshots.empty()) {
      issues.push_back("no snapshot verified; rebuilt from bootstrap "
                       "schema + full WAL replay");
    }
  }

  RecoveredWarehouse recovered(std::move(*warehouse));
  recovered.snapshot_lsn = snapshot_lsn;
  recovered.last_lsn = snapshot_lsn;
  recovered.issues = std::move(issues);

  // View state is derivable: rebuild it from the snapshot's fact multiset
  // now, then let the WAL replay below stream every recovered fact through
  // the incremental-maintenance hook — the exact path the live feed takes.
  if (options.views != nullptr) {
    recovered.warehouse.AttachViews(options.views);
    DWQA_RETURN_NOT_OK(options.views->Bind(recovered.warehouse));
  }

  // 3. Scan the WAL; cut the torn tail (those bytes never committed).
  DWQA_ASSIGN_OR_RETURN(WalScan scan, ScanWal(dir, fs));
  for (const std::string& issue : scan.issues) {
    recovered.issues.push_back(issue);
  }
  if (scan.torn_tail) {
    DWQA_ASSIGN_OR_RETURN(recovered.torn_bytes_truncated,
                          TruncateTornTail(dir, scan, fs));
    if (metrics != nullptr) {
      metrics->GetCounter(kMetricRecoveryTornBytes)
          ->Increment(static_cast<double>(recovered.torn_bytes_truncated));
    }
  }
  recovered.corrupt_records = scan.corrupt_records.size();
  for (const WalRecord& corrupt : scan.corrupt_records) {
    QuarantineRecord record;
    record.reason = "WalCorrupt";  // qa::RejectReason::kWalCorrupt's name.
    record.detail = "WAL record " + std::to_string(corrupt.lsn) +
                    " failed its CRC: " + PayloadSnippet(corrupt.payload);
    recovered.quarantine.Add(std::move(record));
  }

  // 4. The commit rule picks the facts to replay; the tail past the
  // snapshot goes through the live ETL path, idempotently.
  CommittedLog committed =
      ApplyCommitRule(scan, std::move(snapshot_commits), snapshot_lsn);
  for (std::string& issue : committed.issues) {
    recovered.issues.push_back(std::move(issue));
  }
  recovered.commits = std::move(committed.commits);
  recovered.skipped_covered = committed.covered;
  recovered.skipped_uncommitted = committed.uncommitted;
  recovered.last_lsn = std::max(recovered.last_lsn, scan.last_lsn);
  EtlLoader loader(&recovered.warehouse);
  for (const CommittedFact& rec : committed.facts) {
    const Result<WalFact>& fact = rec.fact;
    if (!fact.ok()) {
      QuarantineRecord record;
      record.reason = "WalCorrupt";
      record.detail = "WAL record " + std::to_string(rec.lsn) +
                      " unparseable: " + fact.status().message();
      recovered.quarantine.Add(std::move(record));
      continue;
    }
    if (options.validate) {
      std::string reject = options.validate(*fact);
      if (!reject.empty()) {
        recovered.quarantine.Add(QuarantineFromFact(
            *fact, reject, "rejected by validator during replay of WAL "
                           "record " + std::to_string(rec.lsn)));
        continue;
      }
    }
    Status loaded = loader.LoadRecord(fact->fact_name, fact->record);
    if (!loaded.ok()) {
      recovered.quarantine.Add(QuarantineFromFact(
          *fact, "EtlRejected", "replay of WAL record " +
                                    std::to_string(rec.lsn) + ": " +
                                    loaded.message()));
      continue;
    }
    ++recovered.replayed;
  }

  if (metrics != nullptr) {
    metrics->GetCounter(kMetricRecoveryReplayed)
        ->Increment(static_cast<double>(recovered.replayed));
    metrics->GetCounter(kMetricRecoveryQuarantined)
        ->Increment(static_cast<double>(recovered.quarantine.size()));
    metrics->GetCounter(kMetricRecoveryCorruptRecords)
        ->Increment(static_cast<double>(recovered.corrupt_records));
    metrics->GetCounter(kMetricRecoveryUncommitted)
        ->Increment(static_cast<double>(recovered.skipped_uncommitted));
    metrics->GetGauge(kMetricRecoverySnapshotLsn)
        ->Set(static_cast<double>(recovered.snapshot_lsn));
  }
  return recovered;
}

}  // namespace

Result<RecoveredWarehouse> Recovery::Open(const std::string& dir,
                                          RecoveryOptions options) {
  Fs* fs = FsOrReal(options.fs);
  MetricRegistry* metrics = options.metrics;
  Histogram* latency =
      metrics != nullptr
          ? metrics->GetHistogram(kMetricRecoveryOpenLatency)
          : nullptr;
  ScopedLatencyTimer timer(latency);
  auto recovered = OpenImpl(dir, options, fs, metrics);
  if (metrics != nullptr) {
    metrics
        ->GetCounter(kMetricRecoveryOpens,
                     {{"outcome", recovered.ok() ? "ok" : "error"}})
        ->Increment();
  }
  return recovered;
}

Result<FsckReport> Fsck(const std::string& dir, Fs* fs) {
  fs = FsOrReal(fs);
  FsckReport report;

  std::vector<std::string> tmp_leftovers;
  DWQA_ASSIGN_OR_RETURN(std::vector<SnapshotInfo> snapshots,
                        ListSnapshots(dir, fs, &tmp_leftovers));
  for (const std::string& tmp : tmp_leftovers) {
    report.issues.push_back("uncommitted snapshot build dir '" + tmp + "'");
  }
  report.snapshots = snapshots.size();
  for (const SnapshotInfo& info : snapshots) {
    auto manifest = VerifySnapshot(dir + "/" + info.name, fs);
    if (!manifest.ok()) {
      report.issues.push_back(manifest.status().message());
      continue;
    }
    if (manifest->lsn != info.lsn) {
      report.issues.push_back(
          "snapshot '" + info.name + "' manifest LSN " +
          std::to_string(manifest->lsn) + " does not match directory name");
      continue;
    }
    report.snapshot_lsn = std::max(report.snapshot_lsn, info.lsn);
  }

  DWQA_ASSIGN_OR_RETURN(WalScan scan, ScanWal(dir, fs));
  for (const std::string& issue : scan.issues) {
    report.issues.push_back(issue);
  }
  report.wal_records = scan.records.size();
  report.wal_last_lsn = scan.last_lsn;

  // LSN contiguity: the writer assigns consecutive LSNs, so holes inside
  // the retained log mean lost records — unless a CRC-corrupt record (its
  // own issue above) occupies the hole.
  size_t missing = 0;
  for (size_t i = 1; i < scan.records.size(); ++i) {
    Lsn prev = scan.records[i - 1].lsn;
    Lsn cur = scan.records[i].lsn;
    if (cur > prev + 1) missing += cur - prev - 1;
  }
  if (missing > scan.corrupt_records.size()) {
    report.issues.push_back(
        std::to_string(missing - scan.corrupt_records.size()) +
        " WAL record(s) missing from otherwise-contiguous LSN sequence");
  }

  // Snapshot ↔ WAL continuity: everything past the newest snapshot must
  // still be in the log, so the first retained record may not leave a gap.
  if (!scan.records.empty() &&
      scan.records.front().lsn > report.snapshot_lsn + 1) {
    report.issues.push_back(
        "WAL starts at LSN " + std::to_string(scan.records.front().lsn) +
        " but newest snapshot covers only up to " +
        std::to_string(report.snapshot_lsn) + ": records in between are "
        "unrecoverable");
  }

  for (const std::string& issue : ApplyCommitRule(scan).issues) {
    report.issues.push_back(issue);
  }
  return report;
}

Result<CommitSet> ReadCommitSet(const std::string& dir, Fs* fs) {
  fs = FsOrReal(fs);
  DWQA_ASSIGN_OR_RETURN(std::vector<SnapshotInfo> snapshots,
                        ListSnapshots(dir, fs));
  CommitSet base;
  Lsn covered_lsn = 0;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    auto manifest = VerifySnapshot(dir + "/" + it->name, fs);
    if (!manifest.ok()) continue;
    base = std::move(manifest->commits);
    covered_lsn = it->lsn;
    break;
  }
  DWQA_ASSIGN_OR_RETURN(WalScan scan, ScanWal(dir, fs));
  return ApplyCommitRule(scan, std::move(base), covered_lsn).commits;
}

}  // namespace dw
}  // namespace dwqa
