#include "qa/fact_validator.h"

#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace dwqa {
namespace qa {

namespace {

/// The rule of an attribute the config has none for.
const AttributeRule kDefaultRule{};

}  // namespace

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "None";
    case RejectReason::kNonFiniteValue:
      return "NonFiniteValue";
    case RejectReason::kValueOutOfRange:
      return "ValueOutOfRange";
    case RejectReason::kBadUnit:
      return "BadUnit";
    case RejectReason::kInvalidDate:
      return "InvalidDate";
    case RejectReason::kMissingLocation:
      return "MissingLocation";
    case RejectReason::kEtlRejected:
      return "EtlRejected";
    case RejectReason::kTransientExhausted:
      return "TransientExhausted";
    case RejectReason::kCircuitOpen:
      return "CircuitOpen";
    case RejectReason::kBelowConfidenceFloor:
      return "BelowConfidenceFloor";
    case RejectReason::kWalFailed:
      return "WalFailed";
    case RejectReason::kWalCorrupt:
      return "WalCorrupt";
  }
  return "Unknown";
}

const std::vector<RejectReason>& AllRejectReasons() {
  static const auto* kAll = new std::vector<RejectReason>{
      RejectReason::kNonFiniteValue,   RejectReason::kValueOutOfRange,
      RejectReason::kBadUnit,          RejectReason::kInvalidDate,
      RejectReason::kMissingLocation,  RejectReason::kEtlRejected,
      RejectReason::kTransientExhausted, RejectReason::kCircuitOpen,
      RejectReason::kBelowConfidenceFloor, RejectReason::kWalFailed,
      RejectReason::kWalCorrupt};
  return *kAll;
}

Result<RejectReason> RejectReasonFromName(const std::string& name) {
  if (name == "None") return RejectReason::kNone;
  for (RejectReason reason : AllRejectReasons()) {
    if (name == RejectReasonName(reason)) return reason;
  }
  return Status::InvalidArgument("unknown reject reason '" + name + "'");
}

FactValidator::FactValidator(ValidatorConfig config)
    : config_(std::move(config)) {}

FactValidator FactValidator::FromOntology(
    const ontology::Ontology& onto,
    const std::vector<std::string>& attributes) {
  ValidatorConfig config;
  for (const std::string& attribute : attributes) {
    auto concept_id = onto.FindClass(attribute);
    if (!concept_id.ok()) continue;  // No concept → fall back to defaults.
    AttributeRule rule;
    if (auto unit = onto.GetAxiom(*concept_id, "unit"); unit.ok()) {
      rule.allowed_units = Split(*unit, '|');
    }
    // The interval axioms come in a generic form (min/max) or the
    // temperature-specific Celsius form of pipeline Step 4.
    for (const char* key : {"min", "min_celsius"}) {
      if (auto min = onto.GetAxiom(*concept_id, key); min.ok()) {
        rule.min_value = std::strtod(min->c_str(), nullptr);
      }
    }
    for (const char* key : {"max", "max_celsius"}) {
      if (auto max = onto.GetAxiom(*concept_id, key); max.ok()) {
        rule.max_value = std::strtod(max->c_str(), nullptr);
      }
    }
    config.rules[attribute] = std::move(rule);
  }
  return FactValidator(std::move(config));
}

RejectReason FactValidator::Check(const StructuredFact& fact) const {
  auto it = config_.rules.find(fact.attribute);
  const AttributeRule& rule =
      it == config_.rules.end() ? kDefaultRule : it->second;

  if (fact.confidence < config_.confidence_floor) {
    return RejectReason::kBelowConfidenceFloor;
  }
  if (!std::isfinite(fact.value)) return RejectReason::kNonFiniteValue;
  if (!rule.allowed_units.empty()) {
    bool unit_ok = !rule.require_unit && fact.unit.empty();
    for (const std::string& unit : rule.allowed_units) {
      if (fact.unit == unit) unit_ok = true;
    }
    if (!unit_ok) return RejectReason::kBadUnit;
  } else if (rule.require_unit && fact.unit.empty()) {
    return RejectReason::kBadUnit;
  }
  // Range check against the attribute's canonical scale. A Fahrenheit
  // reading is converted first — the axiom interval speaks Celsius (the
  // paper's "conversion formulae between Celsius and Fahrenheit scales").
  double value = fact.value;
  if (fact.unit == "F") value = (value - 32.0) * 5.0 / 9.0;
  if (value < rule.min_value || value > rule.max_value) {
    return RejectReason::kValueOutOfRange;
  }
  if (fact.date.has_value() && !fact.date->IsValid()) {
    return RejectReason::kInvalidDate;
  }
  if (rule.require_location &&
      (fact.location.empty() || fact.location == "?")) {
    return RejectReason::kMissingLocation;
  }
  return RejectReason::kNone;
}

}  // namespace qa
}  // namespace dwqa
