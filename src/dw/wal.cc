#include "dw/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/metric_names.h"
#include "common/string_util.h"

namespace dwqa {
namespace dw {

namespace {

/// Shortest decimal form that round-trips a double exactly.
std::string FormatExact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (!IsDigits(s) || s.size() > 20) return false;
  errno = 0;
  char* end = nullptr;
  uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Rejects field content that would tear the line/tab framing.
Status CheckField(const std::string& field_name, const std::string& value) {
  if (value.find('\t') != std::string::npos ||
      value.find('\n') != std::string::npos ||
      value.find('\r') != std::string::npos) {
    return Status::InvalidArgument("WAL field '" + field_name +
                                   "' contains tab/newline: cannot frame");
  }
  return Status::OK();
}

/// A typed parse error naming the text kind and the offending line.
Status LineError(const char* kind, size_t line_no, const std::string& what) {
  return Status::Corruption(std::string(kind) + " line " +
                            std::to_string(line_no) + ": " + what);
}

Status PayloadError(size_t line_no, const std::string& what) {
  return LineError("WAL fact payload", line_no, what);
}

/// The lines of a payload or file. A carriage return is refused: no
/// writer frames one, so a parsed value is always one it could write.
Result<std::vector<std::string>> PayloadLines(const char* kind,
                                              const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  // Well-formed text ends with '\n', leaving one trailing empty field.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find('\r') != std::string::npos) {
      return LineError(kind, i + 1, "carriage return");
    }
  }
  return lines;
}

constexpr char kCommitSetMagic[] = "dwqa-commits";
constexpr char kCommitSetVersion[] = "1";

std::string SegmentFileName(Lsn start_lsn) {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(start_lsn));
  return buf;
}

bool IsSegmentFileName(const std::string& name, Lsn* start_lsn) {
  if (!StartsWith(name, "wal-") || !EndsWith(name, ".log")) return false;
  std::string digits = name.substr(4, name.size() - 8);
  if (digits.size() != 20) return false;
  return ParseUint64(digits, start_lsn);
}

constexpr char kSegmentMagic[] = "dwqa-wal";
constexpr char kSegmentVersion[] = "1";

std::string SegmentHeader(Lsn start_lsn) {
  return std::string(kSegmentMagic) + "\t" + kSegmentVersion + "\t" +
         std::to_string(start_lsn) + "\n";
}

/// Replaces `frame` with the record `lsn` of `payload`:
///   rec<TAB><lsn><TAB><payload-bytes><TAB><crc32-hex>\n<payload>\n
/// built in place, so a reused buffer allocates nothing per append.
void FrameRecord(Lsn lsn, const std::string& payload, std::string* frame) {
  char head[64];
  const int head_bytes =
      std::snprintf(head, sizeof(head), "rec\t%llu\t%zu\t%08x\n",
                    static_cast<unsigned long long>(lsn), payload.size(),
                    static_cast<unsigned>(Crc32(payload)));
  frame->clear();
  frame->reserve(static_cast<size_t>(head_bytes) + payload.size() + 1);
  frame->append(head, static_cast<size_t>(head_bytes));
  frame->append(payload);
  frame->push_back('\n');
}

/// Bytes of `content` up to and including its last non-zero byte: what a
/// preallocated segment holds before its zero tail.
size_t DataEnd(const std::string& content) {
  const size_t last = content.find_last_not_of('\0');
  return last == std::string::npos ? 0 : last + 1;
}

}  // namespace

Result<std::string> WalFactSerde::ToPayload(const WalFact& fact) {
  DWQA_RETURN_NOT_OK(CheckField("fact_name", fact.fact_name));
  DWQA_RETURN_NOT_OK(CheckField("attribute", fact.attribute));
  DWQA_RETURN_NOT_OK(CheckField("unit", fact.unit));
  DWQA_RETURN_NOT_OK(CheckField("date_iso", fact.date_iso));
  DWQA_RETURN_NOT_OK(CheckField("location", fact.location));
  DWQA_RETURN_NOT_OK(CheckField("url", fact.url));
  DWQA_RETURN_NOT_OK(CheckField("dedup_key", fact.dedup_key));
  if (fact.fact_name.empty()) {
    return Status::InvalidArgument("WAL fact has empty fact_name");
  }
  std::string out;
  out += "fact\t" + fact.fact_name + "\n";
  out += "attr\t" + fact.attribute + "\t" + FormatExact(fact.value) + "\t" +
         fact.unit + "\t" + fact.date_iso + "\t" + fact.location + "\t" +
         FormatExact(fact.confidence) + "\n";
  out += "url\t" + fact.url + "\n";
  out += "key\t" + fact.dedup_key + "\n";
  for (const auto& path : fact.record.role_paths) {
    out += "role";
    for (const auto& member : path) {
      DWQA_RETURN_NOT_OK(CheckField("role member", member));
      out += "\t" + member;
    }
    out += "\n";
  }
  for (const auto& measure : fact.record.measures) {
    if (measure.is_null()) {
      out += "measure\tnull\t\n";
    } else if (measure.is_int()) {
      out += "measure\tint64\t" + std::to_string(measure.as_int()) + "\n";
    } else if (measure.is_double()) {
      out += "measure\tdouble\t" + FormatExact(measure.as_double()) + "\n";
    } else if (measure.is_date()) {
      out += "measure\tdate\t" + measure.as_date().ToIsoString() + "\n";
    } else {
      DWQA_RETURN_NOT_OK(CheckField("measure", measure.as_string()));
      out += "measure\tstring\t" + measure.as_string() + "\n";
    }
  }
  return out;
}

Result<WalFact> WalFactSerde::FromPayload(const std::string& payload) {
  WalFact fact;
  bool saw_fact = false;
  bool saw_attr = false;
  DWQA_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                        PayloadLines("WAL fact payload", payload));
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t line_no = i + 1;
    std::vector<std::string> fields = Split(lines[i], '\t');
    const std::string& tag = fields[0];
    if (tag == "fact") {
      if (fields.size() != 2 || fields[1].empty()) {
        return PayloadError(line_no, "expected 'fact<TAB><name>'");
      }
      if (saw_fact) return PayloadError(line_no, "duplicate 'fact' line");
      fact.fact_name = fields[1];
      saw_fact = true;
    } else if (tag == "attr") {
      if (fields.size() != 7) {
        return PayloadError(line_no, "expected 7 'attr' fields, got " +
                                         std::to_string(fields.size()));
      }
      if (saw_attr) return PayloadError(line_no, "duplicate 'attr' line");
      fact.attribute = fields[1];
      if (!ParseDouble(fields[2], &fact.value)) {
        return PayloadError(line_no, "bad value '" + fields[2] + "'");
      }
      fact.unit = fields[3];
      fact.date_iso = fields[4];
      fact.location = fields[5];
      if (!ParseDouble(fields[6], &fact.confidence)) {
        return PayloadError(line_no, "bad confidence '" + fields[6] + "'");
      }
      saw_attr = true;
    } else if (tag == "url") {
      if (fields.size() != 2) {
        return PayloadError(line_no, "expected 'url<TAB><url>'");
      }
      fact.url = fields[1];
    } else if (tag == "key") {
      if (fields.size() != 2) {
        return PayloadError(line_no, "expected 'key<TAB><dedup key>'");
      }
      fact.dedup_key = fields[1];
    } else if (tag == "role") {
      fact.record.role_paths.emplace_back(fields.begin() + 1, fields.end());
    } else if (tag == "measure") {
      if (fields.size() != 3) {
        return PayloadError(line_no, "expected 'measure<TAB><type><TAB><repr>'");
      }
      const std::string& type = fields[1];
      const std::string& repr = fields[2];
      if (type == "null") {
        fact.record.measures.emplace_back();
      } else if (type == "int64") {
        errno = 0;
        char* end = nullptr;
        long long v = std::strtoll(repr.c_str(), &end, 10);
        if (repr.empty() || errno == ERANGE ||
            end != repr.c_str() + repr.size()) {
          return PayloadError(line_no, "bad int64 measure '" + repr + "'");
        }
        fact.record.measures.emplace_back(static_cast<int64_t>(v));
      } else if (type == "double") {
        double v = 0;
        if (!ParseDouble(repr, &v)) {
          return PayloadError(line_no, "bad double measure '" + repr + "'");
        }
        fact.record.measures.emplace_back(v);
      } else if (type == "date") {
        auto date = Date::FromIsoString(repr);
        if (!date.ok()) {
          return PayloadError(line_no, "bad date measure '" + repr + "'");
        }
        fact.record.measures.emplace_back(*date);
      } else if (type == "string") {
        fact.record.measures.emplace_back(repr);
      } else {
        return PayloadError(line_no, "unknown measure type '" + type + "'");
      }
    } else {
      return PayloadError(line_no, "unknown tag '" + tag + "'");
    }
  }
  if (!saw_fact) return PayloadError(lines.size(), "missing 'fact' line");
  if (!saw_attr) return PayloadError(lines.size(), "missing 'attr' line");
  return fact;
}

Result<std::string> WalCommitSerde::ToPayload(const WalCommit& commit) {
  DWQA_RETURN_NOT_OK(CheckField("question", commit.question));
  std::string out = "commit\t" + std::to_string(commit.first_lsn) + "\t" +
                    std::to_string(commit.last_lsn) + "\n";
  out += "question\t" + commit.question + "\n";
  for (Lsn lsn : commit.refused) {
    out += "refused\t" + std::to_string(lsn) + "\n";
  }
  return out;
}

bool WalCommitSerde::IsCommit(const std::string& payload) {
  return StartsWith(payload, "commit\t");
}

Result<WalCommit> WalCommitSerde::FromPayload(const std::string& payload) {
  constexpr char kKind[] = "WAL commit payload";
  DWQA_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                        PayloadLines(kKind, payload));
  if (lines.empty()) return LineError(kKind, 1, "empty payload");
  WalCommit commit;
  std::vector<std::string> fields = Split(lines[0], '\t');
  if (fields.size() != 3 || fields[0] != "commit" ||
      !ParseUint64(fields[1], &commit.first_lsn) ||
      !ParseUint64(fields[2], &commit.last_lsn) ||
      commit.first_lsn > commit.last_lsn ||
      (commit.first_lsn == 0) != (commit.last_lsn == 0)) {
    return LineError(kKind, 1,
                     "expected 'commit<TAB><first lsn><TAB><last lsn>'");
  }
  bool saw_question = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    fields = Split(lines[i], '\t');
    Lsn lsn = 0;
    if (fields.size() == 2 && fields[0] == "question" && !saw_question) {
      commit.question = fields[1];
      saw_question = true;
    } else if (fields.size() == 2 && fields[0] == "refused" &&
               ParseUint64(fields[1], &lsn) && lsn >= commit.first_lsn &&
               lsn <= commit.last_lsn && commit.first_lsn != 0) {
      commit.refused.push_back(lsn);
    } else {
      return LineError(kKind, i + 1,
                       "expected one 'question<TAB><text>', then "
                       "'refused<TAB><lsn in range>' lines");
    }
  }
  if (!saw_question) return LineError(kKind, lines.size(), "no 'question'");
  return commit;
}

Result<std::string> CommitSetSerde::ToText(const CommitSet& commits) {
  std::string out = std::string(kCommitSetMagic) + "\t" + kCommitSetVersion +
                    "\n";
  for (const std::string& question : commits.questions) {
    DWQA_RETURN_NOT_OK(CheckField("question", question));
    out += "question\t" + question + "\n";
  }
  for (const std::string& key : commits.fed_keys) {
    DWQA_RETURN_NOT_OK(CheckField("key", key));
    out += "key\t" + key + "\n";
  }
  return out;
}

Result<CommitSet> CommitSetSerde::FromText(const std::string& text) {
  constexpr char kKind[] = "commit set";
  DWQA_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                        PayloadLines(kKind, text));
  if (lines.empty() || lines[0] != std::string(kCommitSetMagic) + "\t" +
                                       kCommitSetVersion) {
    return LineError(kKind, 1, "bad magic/version");
  }
  CommitSet commits;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> fields = Split(lines[i], '\t');
    if (fields.size() == 2 && fields[0] == "question") {
      commits.questions.insert(fields[1]);
    } else if (fields.size() == 2 && fields[0] == "key") {
      commits.fed_keys.insert(fields[1]);
    } else {
      return LineError(kKind, i + 1, "expected 'question' or 'key' line");
    }
  }
  return commits;
}

namespace {

/// Parses one segment file into `scan`. Returns false when a torn region
/// was found (the caller stops scanning later segments).
bool ScanSegment(const std::string& file, const std::string& content,
                 Lsn filename_lsn, WalScan* scan) {
  WalSegmentInfo info;
  info.file = file;
  info.file_bytes = content.size();
  const size_t data_end = DataEnd(content);
  auto tear = [&](size_t offset, const std::string& why) {
    info.torn_offset = offset;
    info.end_offset = offset;
    scan->torn_tail = true;
    scan->torn_bytes += data_end > offset ? data_end - offset : 0;
    scan->issues.push_back(file + ": torn tail at offset " +
                           std::to_string(offset) + " (" + why + ")");
    scan->segments.push_back(info);
    return false;
  };

  // Header line: dwqa-wal<TAB>1<TAB><start_lsn>
  size_t nl = content.find('\n');
  if (nl == std::string::npos) return tear(0, "incomplete header");
  {
    std::vector<std::string> fields = Split(content.substr(0, nl), '\t');
    if (fields.size() != 3 || fields[0] != kSegmentMagic ||
        fields[1] != kSegmentVersion ||
        !ParseUint64(fields[2], &info.start_lsn)) {
      return tear(0, "bad header");
    }
  }
  if (info.start_lsn != filename_lsn) {
    scan->issues.push_back(file + ": header start LSN " +
                           std::to_string(info.start_lsn) +
                           " does not match file name");
  }

  size_t pos = nl + 1;
  while (pos < content.size()) {
    if (content[pos] == '\0') {
      // A preallocated segment's unwritten remainder: zeros to the end.
      // Anything written past a zero run is a tear.
      if (data_end <= pos) break;
      return tear(pos, "non-zero bytes past a zero run");
    }
    size_t rec_nl = content.find('\n', pos);
    if (rec_nl == std::string::npos) return tear(pos, "incomplete record header");
    std::vector<std::string> fields =
        Split(content.substr(pos, rec_nl - pos), '\t');
    uint64_t lsn = 0;
    uint64_t len = 0;
    if (fields.size() != 4 || fields[0] != "rec" ||
        !ParseUint64(fields[1], &lsn) || !ParseUint64(fields[2], &len) ||
        fields[3].size() != 8) {
      return tear(pos, "bad record header");
    }
    size_t payload_start = rec_nl + 1;
    if (payload_start + len + 1 > content.size()) {
      return tear(pos, "truncated payload of record " + std::to_string(lsn));
    }
    if (content[payload_start + len] != '\n') {
      return tear(pos, "missing record terminator after record " +
                           std::to_string(lsn));
    }
    std::string payload = content.substr(payload_start, len);
    size_t next = payload_start + len + 1;
    if (Crc32Hex(payload) != fields[3]) {
      // Framing is intact — the payload itself rotted. Skip the record
      // but keep scanning: later records are still trustworthy.
      scan->corrupt_records.push_back(WalRecord{lsn, std::move(payload)});
      scan->issues.push_back(file + ": CRC mismatch on record " +
                             std::to_string(lsn) + " at offset " +
                             std::to_string(pos));
      pos = next;
      continue;
    }
    if (lsn <= scan->last_lsn) {
      scan->issues.push_back(file + ": non-monotonic LSN " +
                             std::to_string(lsn) + " at offset " +
                             std::to_string(pos));
    } else {
      scan->last_lsn = lsn;
    }
    if (info.first_lsn == 0) info.first_lsn = lsn;
    info.last_lsn = lsn;
    ++info.records;
    scan->records.push_back(WalRecord{lsn, std::move(payload)});
    pos = next;
  }
  info.end_offset = pos;
  scan->segments.push_back(info);
  return true;
}

}  // namespace

Result<WalScan> ScanWal(const std::string& dir, Fs* fs) {
  fs = FsOrReal(fs);
  WalScan scan;
  if (!fs->Exists(dir)) return scan;
  DWQA_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->ListDir(dir));
  bool torn = false;
  for (const std::string& name : names) {
    Lsn filename_lsn = 0;
    if (!IsSegmentFileName(name, &filename_lsn)) continue;
    const std::string path = dir + "/" + name;
    if (torn) {
      // Framing past the first tear cannot be trusted; later segments are
      // part of the torn region.
      auto content = fs->ReadFile(path);
      scan.torn_bytes += content.ok() ? DataEnd(*content) : 0;
      scan.issues.push_back(name + ": unreachable past torn tail");
      WalSegmentInfo info;
      info.file = name;
      info.start_lsn = filename_lsn;
      info.torn_offset = 0;
      info.file_bytes = content.ok() ? content->size() : 0;
      scan.segments.push_back(info);
      continue;
    }
    DWQA_ASSIGN_OR_RETURN(std::string content, fs->ReadFile(path));
    if (!ScanSegment(name, content, filename_lsn, &scan)) torn = true;
  }
  return scan;
}

Result<size_t> TruncateTornTail(const std::string& dir, const WalScan& scan,
                                Fs* fs) {
  fs = FsOrReal(fs);
  if (!scan.torn_tail) return static_cast<size_t>(0);
  bool past_tear = false;
  bool removed = false;
  for (const WalSegmentInfo& info : scan.segments) {
    const std::string path = dir + "/" + info.file;
    if (!past_tear && !info.torn()) continue;
    if (past_tear || info.torn_offset == 0) {
      // Past the tear, or not even the header survived: drop the file.
      DWQA_RETURN_NOT_OK(fs->RemoveFile(path));
      removed = true;
    } else {
      DWQA_RETURN_NOT_OK(fs->TruncateFile(path, info.torn_offset));
      DWQA_RETURN_NOT_OK(fs->SyncFile(path));
    }
    past_tear = true;
  }
  if (removed) DWQA_RETURN_NOT_OK(fs->SyncDir(dir));
  return scan.torn_bytes;
}

CommittedLog ApplyCommitRule(const WalScan& scan, CommitSet base,
                             Lsn covered_lsn) {
  CommittedLog log;
  log.commits = std::move(base);
  // Facts since the previous commit record: the next commit settles them.
  std::vector<const WalRecord*> pending;
  for (const WalRecord& rec : scan.records) {
    if (!WalCommitSerde::IsCommit(rec.payload)) {
      pending.push_back(&rec);
      continue;
    }
    auto commit = WalCommitSerde::FromPayload(rec.payload);
    if (commit.ok() && commit->last_lsn >= rec.lsn) {
      commit = Status::Corruption("covers LSNs at or past itself");
    }
    if (!commit.ok()) {
      log.issues.push_back("WAL commit " + std::to_string(rec.lsn) + ": " +
                           commit.status().message());
      continue;
    }
    const std::vector<Lsn>& refused = commit->refused;
    for (const WalRecord* fact : pending) {
      if (fact->lsn < commit->first_lsn || fact->lsn > commit->last_lsn ||
          std::find(refused.begin(), refused.end(), fact->lsn) !=
              refused.end()) {
        ++log.uncommitted;
        continue;
      }
      if (fact->lsn <= covered_lsn) {
        ++log.covered;
        continue;
      }
      CommittedFact committed{fact->lsn,
                              WalFactSerde::FromPayload(fact->payload)};
      if (committed.fact.ok()) {
        log.commits.fed_keys.insert(committed.fact->dedup_key);
      }
      log.facts.push_back(std::move(committed));
    }
    pending.clear();
    if (refused.empty()) log.commits.questions.insert(commit->question);
  }
  log.uncommitted += pending.size();
  return log;
}

WalWriter::Instruments::Instruments(MetricRegistry* metrics)
    : appends(metrics ? metrics->GetCounter(kMetricWalAppends) : nullptr),
      append_bytes(metrics ? metrics->GetCounter(kMetricWalAppendBytes)
                           : nullptr),
      append_failures(metrics ? metrics->GetCounter(kMetricWalAppendFailures)
                              : nullptr),
      syncs(metrics ? metrics->GetCounter(kMetricWalSyncs) : nullptr),
      rotations(metrics ? metrics->GetCounter(kMetricWalRotations) : nullptr),
      last_lsn(metrics ? metrics->GetGauge(kMetricWalLastLsn) : nullptr),
      segments(metrics ? metrics->GetGauge(kMetricWalSegments) : nullptr) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir,
                                                   WalOptions options,
                                                   Fs* fs,
                                                   MetricRegistry* metrics) {
  fs = FsOrReal(fs);
  DWQA_RETURN_NOT_OK(fs->CreateDirs(dir));
  DWQA_ASSIGN_OR_RETURN(WalScan scan, ScanWal(dir, fs));
  if (scan.torn_tail) {
    DWQA_RETURN_NOT_OK(TruncateTornTail(dir, scan, fs).status());
    DWQA_ASSIGN_OR_RETURN(scan, ScanWal(dir, fs));
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, options, fs, metrics));
  writer->last_lsn_ = scan.last_lsn;
  for (const WalSegmentInfo& info : scan.segments) {
    writer->segments_.push_back(
        Segment{info.file, info.start_lsn, info.last_lsn, false, 0, nullptr});
  }
  if (writer->segments_.empty()) {
    DWQA_RETURN_NOT_OK(writer->StartSegment(scan.last_lsn + 1));
  } else {
    // Resume right after the last record: a zero tail past it is the
    // preallocated room the next appends fill. A segment cut short gets
    // that room back first, made durable once, as at creation.
    const WalSegmentInfo& last = scan.segments.back();
    DWQA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                          fs->OpenWritable(writer->current_segment_path()));
    if (last.file_bytes < options.segment_bytes) {
      DWQA_RETURN_NOT_OK(file->WriteAt(
          last.file_bytes,
          std::string(options.segment_bytes - last.file_bytes, '\0')));
      DWQA_RETURN_NOT_OK(file->Sync());
    }
    writer->segments_.back().file_handle = std::move(file);
    writer->current_segment_bytes_ = last.end_offset;
  }
  if (writer->instruments_.last_lsn != nullptr) {
    writer->instruments_.last_lsn->Set(static_cast<double>(writer->last_lsn_));
    writer->instruments_.segments->Set(
        static_cast<double>(writer->segments_.size()));
  }
  return writer;
}

std::string WalWriter::current_segment_path() const {
  return dir_ + "/" + segments_.back().file;
}

Status WalWriter::StartSegment(Lsn start_lsn) {
  const std::string name = SegmentFileName(start_lsn);
  const std::string path = dir_ + "/" + name;
  // The whole segment is written once, header first and zeros after, and
  // made durable with its directory entry. A commit then overwrites zeros
  // in place: it changes neither the file's size nor its metadata, so its
  // sync is one fdatasync.
  std::string image = SegmentHeader(start_lsn);
  const size_t header_bytes = image.size();
  if (image.size() < options_.segment_bytes) {
    image.resize(options_.segment_bytes, '\0');
  }
  DWQA_RETURN_NOT_OK(fs_->WriteFile(path, image));
  DWQA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        fs_->OpenWritable(path));
  DWQA_RETURN_NOT_OK(file->Sync());
  DWQA_RETURN_NOT_OK(fs_->SyncDir(dir_));
  segments_.push_back(Segment{name, start_lsn, 0, true, 0, std::move(file)});
  current_segment_bytes_ = header_bytes;
  if (instruments_.segments != nullptr) {
    instruments_.segments->Set(static_cast<double>(segments_.size()));
  }
  return Status::OK();
}

Result<Lsn> WalWriter::Append(const std::string& payload) {
  DWQA_RETURN_NOT_OK(failed_);
  auto fail = [&](Status status) -> Result<Lsn> {
    if (instruments_.append_failures != nullptr) {
      instruments_.append_failures->Increment();
    }
    return status;
  };
  const Lsn lsn = last_lsn_ + 1;
  // An empty current segment never rotates: the fresh segment would carry
  // the same start LSN (and thus the same file name) as the one it
  // replaces.
  const bool segment_empty = segments_.back().last_lsn == 0;
  if (!segment_empty &&
      (rotate_pending_ || current_segment_bytes_ >= options_.segment_bytes)) {
    Status started = StartSegment(lsn);
    if (!started.ok()) return fail(started);
    if (instruments_.rotations != nullptr) instruments_.rotations->Increment();
  }
  rotate_pending_ = false;
  FrameRecord(lsn, payload, &frame_);
  Segment& segment = segments_.back();
  Status appended =
      segment.file_handle->WriteAt(current_segment_bytes_, frame_);
  if (!appended.ok()) return fail(appended);
  if (!segment.unsynced) segment.synced_bytes = current_segment_bytes_;
  segment.unsynced = true;
  segment.last_lsn = lsn;
  last_lsn_ = lsn;
  current_segment_bytes_ += frame_.size();
  if (instruments_.appends != nullptr) {
    instruments_.appends->Increment();
    instruments_.append_bytes->Increment(static_cast<double>(payload.size()));
    instruments_.last_lsn->Set(static_cast<double>(lsn));
  }
  return lsn;
}

Result<Lsn> WalWriter::AppendFact(const WalFact& fact) {
  return AppendSerialized(WalFactSerde::ToPayload(fact));
}

Result<Lsn> WalWriter::AppendCommit(const WalCommit& commit) {
  return AppendSerialized(WalCommitSerde::ToPayload(commit));
}

Result<Lsn> WalWriter::AppendSerialized(const Result<std::string>& payload) {
  if (!payload.ok()) {
    if (instruments_.append_failures != nullptr) {
      instruments_.append_failures->Increment();
    }
    return payload.status();
  }
  return Append(*payload);
}

Status WalWriter::Sync() {
  DWQA_RETURN_NOT_OK(failed_);
  for (Segment& segment : segments_) {
    if (!segment.unsynced) continue;
    Status synced = segment.file_handle->Sync();
    if (!synced.ok()) {
      // Nothing unsynced was acknowledged: cut it back off, newest first,
      // so a later writeback cannot make an unacknowledged commit durable.
      for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
        if (!it->unsynced) continue;
        const std::string path = dir_ + "/" + it->file;
        (void)(it->synced_bytes == 0
                   ? fs_->RemoveFile(path)
                   : fs_->TruncateFile(path, it->synced_bytes));
      }
      failed_ = Status(synced.code(), "WAL sync failed, log must be "
                                      "reopened: " + synced.message());
      return failed_;
    }
    segment.unsynced = false;
    if (instruments_.syncs != nullptr) instruments_.syncs->Increment();
  }
  // Segments a rotation closed are durable now: only the current one
  // stays open.
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {
    segments_[i].file_handle.reset();
  }
  return Status::OK();
}

Status WalWriter::Rotate() {
  DWQA_RETURN_NOT_OK(Sync());
  rotate_pending_ = true;
  return Status::OK();
}

Result<size_t> WalWriter::DropSegmentsCoveredBy(Lsn covered_lsn) {
  DWQA_RETURN_NOT_OK(Sync());
  size_t dropped = 0;
  while (segments_.size() > 1) {
    const Segment& oldest = segments_.front();
    // An empty old segment (last_lsn 0) is covered iff the next segment
    // starts at or below the cover point; its own records would have been.
    Lsn high = oldest.last_lsn != 0 ? oldest.last_lsn
                                    : segments_[1].start_lsn - 1;
    if (high > covered_lsn) break;
    DWQA_RETURN_NOT_OK(fs_->RemoveFile(dir_ + "/" + oldest.file));
    segments_.erase(segments_.begin());
    ++dropped;
  }
  if (instruments_.segments != nullptr && dropped > 0) {
    instruments_.segments->Set(static_cast<double>(segments_.size()));
  }
  return dropped;
}

}  // namespace dw
}  // namespace dwqa
