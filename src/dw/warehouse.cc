#include "dw/warehouse.h"

#include <atomic>

#include "common/string_util.h"
#include "dw/materialized_view.h"

namespace dwqa {
namespace dw {

uint32_t LevelDictionary::Intern(const std::string& value) {
  auto [it, fresh] =
      ordinal_of.try_emplace(value, static_cast<uint32_t>(values.size()));
  if (fresh) values.push_back(value);
  return it->second;
}

uint64_t Warehouse::NextStamp() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Result<Warehouse> Warehouse::Create(MdSchema schema) {
  DWQA_RETURN_NOT_OK(schema.Validate());
  Warehouse wh;
  wh.schema_ = std::move(schema);
  for (const DimensionDef& dim : wh.schema_.dimensions()) {
    std::vector<ColumnDef> cols;
    for (const LevelDef& level : dim.levels) {
      cols.push_back({level.name, ColumnType::kString});
    }
    wh.dim_tables_.emplace_back("dim_" + dim.name, std::move(cols));
    wh.member_index_.emplace_back();
    wh.dictionaries_.emplace_back(dim.levels.size());
  }
  for (const FactDef& fact : wh.schema_.facts()) {
    std::vector<ColumnDef> cols;
    for (const DimRole& role : fact.roles) {
      cols.push_back({"fk_" + role.role, ColumnType::kInt64});
    }
    for (const MeasureDef& m : fact.measures) {
      cols.push_back({m.name, m.type});
    }
    wh.fact_tables_.emplace_back("fact_" + fact.name, std::move(cols));
  }
  return wh;
}

Result<size_t> Warehouse::DimIndex(std::string_view dimension) const {
  const auto& dims = schema_.dimensions();
  for (size_t i = 0; i < dims.size(); ++i) {
    if (EqualsIgnoreCase(dims[i].name, dimension)) return i;
  }
  return Status::NotFound("no dimension '" + std::string(dimension) + "'");
}

Result<size_t> Warehouse::FactIndex(std::string_view fact) const {
  const auto& facts = schema_.facts();
  for (size_t i = 0; i < facts.size(); ++i) {
    if (EqualsIgnoreCase(facts[i].name, fact)) return i;
  }
  return Status::NotFound("no fact '" + std::string(fact) + "'");
}

Result<MemberId> Warehouse::AddMember(std::string_view dimension,
                                      const std::vector<std::string>& path) {
  DWQA_ASSIGN_OR_RETURN(size_t di, DimIndex(dimension));
  if (path.empty() || path.front().empty()) {
    return Status::InvalidArgument("member path must start with a base name");
  }
  const DimensionDef& dim = schema_.dimensions()[di];
  if (path.size() > dim.levels.size()) {
    return Status::InvalidArgument(
        "member path longer than hierarchy of dimension '" + dim.name + "'");
  }
  std::string key = ToLower(path.front());
  auto it = member_index_[di].find(key);
  if (it != member_index_[di].end()) return it->second;

  std::vector<Value> row;
  for (size_t i = 0; i < dim.levels.size(); ++i) {
    if (i < path.size() && !path[i].empty()) {
      row.emplace_back(path[i]);
    } else {
      row.emplace_back();  // null
    }
  }
  DWQA_RETURN_NOT_OK(dim_tables_[di].AppendRow(row));
  MemberId id = static_cast<MemberId>(dim_tables_[di].row_count() - 1);
  member_index_[di].emplace(std::move(key), id);
  for (size_t i = 0; i < dim.levels.size(); ++i) {
    LevelDictionary& dict = dictionaries_[di][i];
    dict.of_member.push_back(dict.Intern(i < path.size() ? path[i] : ""));
  }
  stamp_ = NextStamp();
  return id;
}

Result<MemberId> Warehouse::FindMember(std::string_view dimension,
                                       std::string_view base_name) const {
  DWQA_ASSIGN_OR_RETURN(size_t di, DimIndex(dimension));
  auto it = member_index_[di].find(ToLower(base_name));
  if (it == member_index_[di].end()) {
    return Status::NotFound("dimension '" + std::string(dimension) +
                            "' has no member '" + std::string(base_name) +
                            "'");
  }
  return it->second;
}

Result<std::string> Warehouse::MemberLevelValue(std::string_view dimension,
                                                MemberId member,
                                                std::string_view level) const {
  DWQA_ASSIGN_OR_RETURN(size_t di, DimIndex(dimension));
  DWQA_ASSIGN_OR_RETURN(size_t li,
                        schema_.dimensions()[di].LevelIndex(level));
  const LevelDictionary& dict = dictionaries_[di][li];
  if (member < 0 || static_cast<size_t>(member) >= dict.of_member.size()) {
    return Status::OutOfRange("member id out of range");
  }
  return dict.values[dict.of_member[static_cast<size_t>(member)]];
}

Result<std::vector<std::string>> Warehouse::MemberNames(
    std::string_view dimension) const {
  DWQA_ASSIGN_OR_RETURN(size_t di, DimIndex(dimension));
  std::vector<std::string> out;
  const Table& t = dim_tables_[di];
  for (size_t r = 0; r < t.row_count(); ++r) {
    Value v = t.Get(r, 0);
    out.push_back(v.is_null() ? std::string() : v.as_string());
  }
  return out;
}

Status Warehouse::InsertFact(std::string_view fact,
                             const std::vector<MemberId>& member_per_role,
                             const std::vector<Value>& measures) {
  DWQA_ASSIGN_OR_RETURN(size_t fi, FactIndex(fact));
  const FactDef& def = schema_.facts()[fi];
  if (member_per_role.size() != def.roles.size()) {
    return Status::InvalidArgument(
        "fact '" + def.name + "' expects " +
        std::to_string(def.roles.size()) + " member ids, got " +
        std::to_string(member_per_role.size()));
  }
  if (measures.size() != def.measures.size()) {
    return Status::InvalidArgument(
        "fact '" + def.name + "' expects " +
        std::to_string(def.measures.size()) + " measures, got " +
        std::to_string(measures.size()));
  }
  // Referential integrity: every surrogate key must exist.
  for (size_t i = 0; i < member_per_role.size(); ++i) {
    DWQA_ASSIGN_OR_RETURN(size_t di, DimIndex(def.roles[i].dimension));
    if (member_per_role[i] < 0 ||
        static_cast<size_t>(member_per_role[i]) >=
            dim_tables_[di].row_count()) {
      return Status::InvalidArgument("role '" + def.roles[i].role +
                                     "': member id " +
                                     std::to_string(member_per_role[i]) +
                                     " not registered");
    }
  }
  std::vector<Value> row;
  for (MemberId id : member_per_role) {
    row.emplace_back(static_cast<int64_t>(id));
  }
  for (const Value& m : measures) row.push_back(m);
  DWQA_RETURN_NOT_OK(fact_tables_[fi].AppendRow(row));
  stamp_ = NextStamp();
  // Incremental view maintenance: the delta of this one fact, applied to
  // every bound view of the fact, before the insert returns — views are
  // never staler than the fact tables.
  if (views_ != nullptr) {
    DWQA_RETURN_NOT_OK(
        views_->OnFactInserted(*this, fi, member_per_role, measures));
  }
  return Status::OK();
}

Result<const Table*> Warehouse::FactTable(std::string_view fact) const {
  DWQA_ASSIGN_OR_RETURN(size_t fi, FactIndex(fact));
  return &fact_tables_[fi];
}

Result<const Table*> Warehouse::DimensionTable(
    std::string_view dimension) const {
  DWQA_ASSIGN_OR_RETURN(size_t di, DimIndex(dimension));
  return &dim_tables_[di];
}

Result<size_t> Warehouse::FactRowCount(std::string_view fact) const {
  DWQA_ASSIGN_OR_RETURN(size_t fi, FactIndex(fact));
  return fact_tables_[fi].row_count();
}

}  // namespace dw
}  // namespace dwqa
