#include "dw/olap.h"

#include "common/string_util.h"
#include "common/table_printer.h"
#include "dw/grouping.h"

namespace dwqa {
namespace dw {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLess:
      return "<";
    case CompareOp::kLessEqual:
      return "<=";
    case CompareOp::kGreater:
      return ">";
    case CompareOp::kGreaterEqual:
      return ">=";
    case CompareOp::kEqual:
      return "=";
  }
  return "?";
}

bool EvalCompare(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kLess:
      return lhs < rhs;
    case CompareOp::kLessEqual:
      return lhs <= rhs;
    case CompareOp::kGreater:
      return lhs > rhs;
    case CompareOp::kGreaterEqual:
      return lhs >= rhs;
    case CompareOp::kEqual:
      return lhs == rhs;
  }
  return false;
}

std::string OlapResult::ToDisplayString(size_t max_rows) const {
  TablePrinter printer(headers);
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    std::vector<std::string> cells;
    for (const Value& v : rows[r]) cells.push_back(v.ToString());
    printer.AddRow(std::move(cells));
  }
  std::string out = printer.Render();
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size() - max_rows) +
           " more rows)\n";
  }
  return out;
}

Result<OlapResult> OlapEngine::Execute(const OlapQuery& query) const {
  DWQA_ASSIGN_OR_RETURN(GroupedStates grouped, GroupFacts(*wh_, query));
  return Render(query, grouped);
}

Result<OlapQuery> OlapEngine::ShiftLevel(const OlapQuery& query,
                                         const std::string& role,
                                         int delta) const {
  DWQA_ASSIGN_OR_RETURN(const FactDef* fact,
                        wh_->schema().FindFact(query.fact));
  DWQA_ASSIGN_OR_RETURN(size_t ri, fact->RoleIndex(role));
  DWQA_ASSIGN_OR_RETURN(const DimensionDef* dim,
                        wh_->schema().FindDimension(fact->roles[ri].dimension));
  OlapQuery out = query;
  for (GroupBy& g : out.group_by) {
    if (!EqualsIgnoreCase(g.role, role)) continue;
    DWQA_ASSIGN_OR_RETURN(size_t li, dim->LevelIndex(g.level));
    // Levels are finest-first, so roll-up moves to a *larger* index.
    int target = static_cast<int>(li) + delta;
    if (target < 0) {
      return Status::OutOfRange("already at the base level of '" +
                                dim->name + "'");
    }
    if (target >= static_cast<int>(dim->levels.size())) {
      return Status::OutOfRange("already at the top level of '" +
                                dim->name + "'");
    }
    g.level = dim->levels[static_cast<size_t>(target)].name;
    return out;
  }
  return Status::NotFound("query does not group by role '" + role + "'");
}

Result<OlapQuery> OlapEngine::RollUp(const OlapQuery& query,
                                     const std::string& role) const {
  return ShiftLevel(query, role, +1);
}

Result<OlapQuery> OlapEngine::DrillDown(const OlapQuery& query,
                                        const std::string& role) const {
  return ShiftLevel(query, role, -1);
}

}  // namespace dw
}  // namespace dwqa
