#ifndef DWQA_QA_FACT_VALIDATOR_H_
#define DWQA_QA_FACT_VALIDATOR_H_

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "ontology/ontology.h"
#include "qa/structured.h"

namespace dwqa {
namespace qa {

/// \brief Why a structured fact was refused admission to the warehouse.
///
/// A typed reason (not a free-form message) so the quarantine and the
/// feed metrics can be aggregated per failure class.
enum class RejectReason {
  kNone = 0,
  /// The value is NaN or infinite — nothing a measure column can hold.
  kNonFiniteValue,
  /// The value violates the attribute's plausible interval (the paper's
  /// Step-4 axiom: "the right temperature intervals").
  kValueOutOfRange,
  /// The unit is not one the attribute admits ("a temperature is a number
  /// followed by the Celsius or Fahrenheit scale").
  kBadUnit,
  /// The extracted date does not exist in the calendar.
  kInvalidDate,
  /// The fact names no location; the City role cannot be resolved.
  kMissingLocation,
  /// The ETL layer refused the record (schema mismatch, bad member path).
  kEtlRejected,
  /// Transient load failures outlasted the retry budget.
  kTransientExhausted,
  /// The source's circuit breaker is open: the source is isolated after
  /// persistent failures and its facts are parked until it recovers.
  kCircuitOpen,
  /// The fact's extraction confidence is below the validator's floor —
  /// typically a degraded-ladder answer the deployment chose not to trust.
  kBelowConfidenceFloor,
  /// The fact could not be made durable: its write-ahead-log append failed.
  /// The feed refuses to load what it cannot replay after a crash.
  kWalFailed,
  /// A replayed WAL record was corrupt (CRC mismatch or unparseable
  /// payload). Assigned by recovery, not the live feed.
  kWalCorrupt,
};

/// "NonFiniteValue", "ValueOutOfRange", ... (stable, serialized into the
/// quarantine CSV and the `reason` label of the feed metrics).
const char* RejectReasonName(RejectReason reason);

/// Inverse of RejectReasonName; fails on unknown names.
Result<RejectReason> RejectReasonFromName(const std::string& name);

/// All reasons with a name, for iteration in reports.
const std::vector<RejectReason>& AllRejectReasons();

/// \brief Plausibility rule for one attribute.
struct AttributeRule {
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  /// Units the attribute admits. Empty list = any unit. The empty *unit*
  /// ("" — the Figure-5 stripped-table case) is admitted unless
  /// `require_unit` is set: a bare number is assumed to be in the measure's
  /// canonical scale.
  std::vector<std::string> allowed_units;
  bool require_unit = false;
  bool require_location = true;
};

/// \brief Configuration of a FactValidator: per-attribute rules; an
/// attribute without one gets the permissive `AttributeRule{}`.
struct ValidatorConfig {
  std::map<std::string, AttributeRule> rules;
  /// Facts whose `confidence` is below this floor are rejected with
  /// kBelowConfidenceFloor. The default (-inf) admits everything, including
  /// the low-scored degraded-ladder answers.
  double confidence_floor = -std::numeric_limits<double>::infinity();
};

/// \brief Enforces the Step-4 axioms on extracted facts before they reach
/// the ETL boundary.
///
/// The paper tunes the QA system with "the right temperature intervals" and
/// unit constraints (§3 Step 4); the validator is where those axioms
/// actually gate the feed. Facts that fail go to the QuarantineStore with
/// their RejectReason instead of silently polluting the warehouse.
class FactValidator {
 public:
  /// Permissive validator: finite value, valid date, location required.
  FactValidator() = default;

  explicit FactValidator(ValidatorConfig config);

  /// Builds the rules from the ontology's Step-4 axioms: for each of
  /// `attributes`, reads the `unit` axiom ("ºC|F" → allowed units) and the
  /// `min`/`max` (or `min_celsius`/`max_celsius`) interval axioms of the
  /// concept with that lemma. Attributes without a concept get the default
  /// rule.
  static FactValidator FromOntology(const ontology::Ontology& onto,
                                    const std::vector<std::string>& attributes);

  /// First violated axiom, or kNone when the fact is admissible.
  RejectReason Check(const StructuredFact& fact) const;

  const ValidatorConfig& config() const { return config_; }

 private:
  ValidatorConfig config_;
};

}  // namespace qa
}  // namespace dwqa

#endif  // DWQA_QA_FACT_VALIDATOR_H_
