#ifndef DWQA_DW_QUARANTINE_H_
#define DWQA_DW_QUARANTINE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace dwqa {
namespace dw {

/// \brief One fact refused admission to the warehouse, with everything a
/// human needs to triage it.
///
/// The paper stores the source URL with every fed tuple "in order to make
/// the approach robust against errors ... the user can select the more
/// useful data" (§4.2); the quarantine is the other half of that loop —
/// the rows that did NOT make it, kept with their reason and provenance
/// instead of being silently dropped.
struct QuarantineRecord {
  std::string attribute;
  /// Rendered value, not a double — corrupt input is the norm here and the
  /// broken rendering itself is diagnostic ("888", "nan").
  std::string value;
  std::string unit;
  std::string date_iso;  ///< ISO date or "" when the fact had none.
  std::string location;
  std::string url;       ///< Source page, the §4.2 provenance.
  std::string reason;    ///< RejectReasonName(...) of qa/fact_validator.h.
  std::string detail;    ///< Free-form context (e.g. the ETL error).
  /// Monotonic admission number, assigned by the store.
  size_t sequence = 0;
  /// Wall-clock ISO 8601 UTC stamp, assigned by the store unless preset.
  std::string timestamp;
};

/// \brief Dead-letter store for rejected facts.
///
/// Append-only in memory, exportable as CSV for the §4.2 "user selects the
/// more useful data" inspection loop. Counting per reason feeds the
/// FeedReport.
class QuarantineStore {
 public:
  /// Appends `record`, stamping sequence (and timestamp when empty).
  void Add(QuarantineRecord record);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<QuarantineRecord>& records() const { return records_; }

  /// Rejections per RejectReason name.
  std::map<std::string, size_t> CountsByReason() const;

  /// CSV with header: sequence,timestamp,reason,attribute,value,unit,date,
  /// location,url,detail.
  std::string ToCsv() const;

  /// Writes ToCsv() to `path`.
  Status SaveCsv(const std::string& path) const;

  void Clear();

 private:
  std::vector<QuarantineRecord> records_;
  size_t next_sequence_ = 1;
};

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_QUARANTINE_H_
