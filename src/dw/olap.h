#ifndef DWQA_DW_OLAP_H_
#define DWQA_DW_OLAP_H_

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "dw/warehouse.h"

namespace dwqa {
namespace dw {

/// One aggregated output of a query ("SUM(Price)").
struct QueryMeasure {
  std::string measure;
  AggFn agg = AggFn::kSum;

  bool operator==(const QueryMeasure&) const = default;
};

/// One grouping axis: a hierarchy level of a dimension role
/// ("destination" at level "City").
struct GroupBy {
  std::string role;
  std::string level;

  bool operator==(const GroupBy&) const = default;
};

/// Slice/dice predicate: keep facts whose member value at `level` of `role`
/// is in `values` (one value = slice, several = dice).
struct Filter {
  std::string role;
  std::string level;
  std::vector<std::string> values;

  bool operator==(const Filter&) const = default;
};

/// Comparison operators of HAVING predicates.
enum class CompareOp { kLess, kLessEqual, kGreater, kGreaterEqual, kEqual };

const char* CompareOpName(CompareOp op);

/// Evaluates `lhs op rhs` — the one comparator both the OLAP engine and the
/// materialized-view reader apply to HAVING predicates.
bool EvalCompare(double lhs, CompareOp op, double rhs);

/// \brief Running aggregate of one measure within one group.
///
/// Shared by every grouping consumer (recompute, views, federation, all on
/// the kernel in dw/grouping.h): a view's groups are byte-identical to a
/// recompute because both sides accumulate through this struct and render
/// through the same Finish().
struct AggState {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  size_t count = 0;

  void Add(double v) {
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    ++count;
  }

  /// Folds another partial aggregate into this one — the merge half of the
  /// split/merge identity the federation layer relies on: accumulating a
  /// row set in partitions and merging the partials lands on the same state
  /// as accumulating the whole set in one pass (exactly so for min/max/
  /// count, and for sums of dyadic-rational measures; within rounding for
  /// arbitrary doubles).
  void Merge(const AggState& other) {
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
  }

  Value Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kSum:
        return Value(sum);
      case AggFn::kCount:
        return Value(static_cast<int64_t>(count));
      case AggFn::kAvg:
        return count == 0 ? Value() : Value(sum / double(count));
      case AggFn::kMin:
        return count == 0 ? Value() : Value(min);
      case AggFn::kMax:
        return count == 0 ? Value() : Value(max);
    }
    return Value();
  }
};

/// Post-aggregation predicate: keep groups whose aggregated measure
/// compares true against `value`. `measure_index` refers to the query's
/// measure list.
struct Having {
  size_t measure_index = 0;
  CompareOp op = CompareOp::kGreater;
  double value = 0.0;

  bool operator==(const Having&) const = default;
};

/// \brief A multidimensional aggregation query over one fact.
struct OlapQuery {
  std::string fact;
  std::vector<QueryMeasure> measures;
  std::vector<GroupBy> group_by;
  std::vector<Filter> filters;
  std::vector<Having> having;

  /// The exact same query: every name spelled alike, every value equal.
  bool operator==(const OlapQuery&) const = default;
};

/// \brief Query result: one row per group; group columns first, then one
/// column per aggregated measure.
struct OlapResult {
  std::vector<std::string> headers;
  std::vector<std::vector<Value>> rows;
  size_t facts_scanned = 0;
  size_t facts_matched = 0;

  std::string ToDisplayString(size_t max_rows = 50) const;
};

/// \brief Hash-aggregation OLAP engine over a star-schema Warehouse, with
/// the classical operations the paper's BI motivation relies on: group-by at
/// any hierarchy level (aggregating "at different levels of detail"),
/// roll-up, drill-down, slice and dice.
class OlapEngine {
 public:
  explicit OlapEngine(const Warehouse* warehouse) : wh_(warehouse) {}

  /// Executes `query`: one scan of the ordinal grouping kernel
  /// (dw/grouping.h), then the rendering of its groups.
  Result<OlapResult> Execute(const OlapQuery& query) const;

  /// Returns `query` with the `role` grouping moved one level coarser
  /// (Airport → City). Fails at the top level.
  Result<OlapQuery> RollUp(const OlapQuery& query,
                           const std::string& role) const;

  /// Returns `query` with the `role` grouping moved one level finer
  /// (City → Airport). Fails at the base level.
  Result<OlapQuery> DrillDown(const OlapQuery& query,
                              const std::string& role) const;

 private:
  Result<OlapQuery> ShiftLevel(const OlapQuery& query,
                               const std::string& role, int delta) const;

  const Warehouse* wh_;
};

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_OLAP_H_
