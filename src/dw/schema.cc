#include "dw/schema.h"

#include <unordered_set>

#include "common/string_util.h"

namespace dwqa {
namespace dw {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "SUM";
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
  }
  return "?";
}

Result<size_t> DimensionDef::LevelIndex(std::string_view level) const {
  for (size_t i = 0; i < levels.size(); ++i) {
    if (EqualsIgnoreCase(levels[i].name, level)) return i;
  }
  return Status::NotFound("dimension '" + name + "' has no level '" +
                          std::string(level) + "'");
}

Result<size_t> FactDef::MeasureIndex(std::string_view measure) const {
  for (size_t i = 0; i < measures.size(); ++i) {
    if (EqualsIgnoreCase(measures[i].name, measure)) return i;
  }
  return Status::NotFound("fact '" + name + "' has no measure '" +
                          std::string(measure) + "'");
}

Result<size_t> FactDef::RoleIndex(std::string_view role) const {
  for (size_t i = 0; i < roles.size(); ++i) {
    if (EqualsIgnoreCase(roles[i].role, role)) return i;
  }
  return Status::NotFound("fact '" + name + "' has no dimension role '" +
                          std::string(role) + "'");
}

Status MdSchema::AddDimension(DimensionDef dim) {
  if (dim.name.empty()) {
    return Status::InvalidArgument("dimension name must not be empty");
  }
  if (dim.levels.empty()) {
    return Status::InvalidArgument("dimension '" + dim.name +
                                   "' must declare at least one level");
  }
  if (FindDimension(dim.name).ok()) {
    return Status::AlreadyExists("dimension '" + dim.name + "' exists");
  }
  dimensions_.push_back(std::move(dim));
  return Status::OK();
}

Status MdSchema::AddFact(FactDef fact) {
  if (fact.name.empty()) {
    return Status::InvalidArgument("fact name must not be empty");
  }
  if (FindFact(fact.name).ok()) {
    return Status::AlreadyExists("fact '" + fact.name + "' exists");
  }
  for (const DimRole& role : fact.roles) {
    if (!FindDimension(role.dimension).ok()) {
      return Status::NotFound("fact '" + fact.name +
                              "' references unknown dimension '" +
                              role.dimension + "'");
    }
  }
  facts_.push_back(std::move(fact));
  return Status::OK();
}

Result<const DimensionDef*> MdSchema::FindDimension(
    std::string_view name) const {
  for (const DimensionDef& d : dimensions_) {
    if (EqualsIgnoreCase(d.name, name)) return &d;
  }
  return Status::NotFound("no dimension '" + std::string(name) + "'");
}

Result<const FactDef*> MdSchema::FindFact(std::string_view name) const {
  for (const FactDef& f : facts_) {
    if (EqualsIgnoreCase(f.name, name)) return &f;
  }
  return Status::NotFound("no fact '" + std::string(name) + "'");
}

Status MdSchema::Validate() const {
  for (const FactDef& f : facts_) {
    std::unordered_set<std::string> roles;
    for (const DimRole& r : f.roles) {
      if (!roles.insert(ToLower(r.role)).second) {
        return Status::InvalidArgument("fact '" + f.name +
                                       "' has duplicate role '" + r.role +
                                       "'");
      }
      DWQA_RETURN_NOT_OK(FindDimension(r.dimension).status());
    }
    std::unordered_set<std::string> measures;
    for (const MeasureDef& m : f.measures) {
      if (!measures.insert(ToLower(m.name)).second) {
        return Status::InvalidArgument("fact '" + f.name +
                                       "' has duplicate measure '" + m.name +
                                       "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace dw
}  // namespace dwqa
