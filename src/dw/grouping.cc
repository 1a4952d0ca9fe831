#include "dw/grouping.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"

namespace dwqa {
namespace dw {

uint32_t OrdinalGroups::Level::Insert(uint64_t key) {
  if (slots_.empty()) Grow();
  for (;;) {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(key);
    for (; slots_[i].id != kFree; i = (i + 1) & mask) {
      if (slots_[i].key == key) return slots_[i].id;
    }
    if (2 * (size_t{size_} + 1) <= slots_.size()) {
      slots_[i] = {key, size_};
      return size_++;
    }
    Grow();  // Then probe again: the free slot moved.
  }
}

void OrdinalGroups::Level::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kFree) continue;
    size_t i = Home(slot.key);
    while (slots_[i].id != kFree) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

uint32_t OrdinalGroups::Insert(const uint32_t* key) {
  uint64_t id = 0;
  for (Level& level : levels_) id = level.Insert((id << 32) | *key++);
  if (id == size_) {  // A new group.
    ++size_;
    keys_.insert(keys_.end(), key - arity(), key);
    states_.resize(size_ * width_);
  }
  return static_cast<uint32_t>(id);
}

GroupedStates Finish(const OrdinalGroups& groups,
                     const std::vector<const std::vector<std::string>*>& names,
                     const std::vector<size_t>& slots) {
  const size_t n = groups.size();
  const size_t arity = groups.arity();
  GroupedStates out;
  out.values.resize(arity);
  // Per axis, rank the distinct ordinals by their values: one sort over the
  // few distinct values instead of a string comparison per group.
  std::vector<uint32_t> ranks(n * arity), rank_of, distinct;
  for (size_t a = 0; a < arity; ++a) {
    const std::vector<std::string>& axis_names = *names[a];
    rank_of.assign(axis_names.size(), 0);  // 1: seen.
    distinct.clear();
    for (size_t g = 0; g < n; ++g) {
      const uint32_t o = groups.key(g)[a];
      if (rank_of[o] == 0) distinct.push_back(o);
      rank_of[o] = 1;
    }
    std::sort(distinct.begin(), distinct.end(), [&](uint32_t x, uint32_t y) {
      return axis_names[x] < axis_names[y];
    });
    out.values[a].reserve(distinct.size());
    for (uint32_t r = 0; r < distinct.size(); ++r) {
      rank_of[distinct[r]] = r;
      out.values[a].push_back(axis_names[distinct[r]]);
    }
    for (size_t g = 0; g < n; ++g) {
      ranks[g * arity + a] = rank_of[groups.key(g)[a]];
    }
  }
  // Order the groups by rank tuple: an LSD radix sort, one stable counting
  // sort per axis, last axis first.
  std::vector<uint32_t> order(n), next(n), start;
  std::iota(order.begin(), order.end(), 0);
  for (size_t a = arity; a-- > 0;) {
    start.assign(out.values[a].size() + 1, 0);
    for (uint32_t g : order) ++start[ranks[g * arity + a] + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (uint32_t g : order) next[start[ranks[g * arity + a]]++] = g;
    order.swap(next);
  }
  out.width = slots.empty() ? groups.width() : slots.size();
  out.keys.reserve(n * arity);
  out.states.reserve(n * out.width);
  for (uint32_t g : order) {
    out.keys.insert(out.keys.end(), ranks.begin() + g * arity,
                    ranks.begin() + (g + 1) * arity);
    const AggState* states = groups.states(g);
    if (slots.empty()) {
      out.states.insert(out.states.end(), states, states + groups.width());
    } else {
      for (size_t s : slots) out.states.push_back(states[s]);
    }
  }
  return out;
}

Result<FactScan> ScanFacts(const Warehouse& wh, const OlapQuery& query,
                           const std::set<size_t>& excluded) {
  DWQA_ASSIGN_OR_RETURN(const FactDef* fact,
                        wh.schema().FindFact(query.fact));
  DWQA_ASSIGN_OR_RETURN(const Table* ftab, wh.FactTable(query.fact));
  if (query.measures.empty()) {
    return Status::InvalidArgument("OLAP query needs at least one measure");
  }
  std::vector<const Column*> measure_cols;
  for (const QueryMeasure& qm : query.measures) {
    DWQA_ASSIGN_OR_RETURN(size_t mi, fact->MeasureIndex(qm.measure));
    measure_cols.push_back(&ftab->column(fact->roles.size() + mi));
  }
  // An axis (or filter) reads the role's fk column through the dictionary
  // of its level. InsertFact admits registered member ids only, so every
  // fk indexes `of_member`.
  struct Axis {
    const Column* fk;
    const LevelDictionary* dict;
    uint32_t Ordinal(size_t row) const {
      return dict->of_member[static_cast<size_t>(fk->GetInt(row))];
    }
  };
  auto resolve = [&](const std::string& role,
                     const std::string& level) -> Result<Axis> {
    DWQA_ASSIGN_OR_RETURN(size_t ri, fact->RoleIndex(role));
    DWQA_ASSIGN_OR_RETURN(size_t di, wh.DimIndex(fact->roles[ri].dimension));
    DWQA_ASSIGN_OR_RETURN(size_t li,
                          wh.schema().dimensions()[di].LevelIndex(level));
    return Axis{&ftab->column(ri), &wh.Dictionary(di, li)};
  };
  FactScan scan;
  std::vector<Axis> axes;
  for (const GroupBy& g : query.group_by) {
    DWQA_ASSIGN_OR_RETURN(Axis axis, resolve(g.role, g.level));
    axes.push_back(axis);
    scan.names.push_back(&axis.dict->values);
  }
  // A filter is a bitset over its level's ordinals: the case-insensitive
  // value test runs once per distinct value, not once per row.
  struct Predicate {
    Axis axis;
    std::vector<bool> keep;
  };
  std::vector<Predicate> predicates;
  for (const Filter& f : query.filters) {
    DWQA_ASSIGN_OR_RETURN(Axis axis, resolve(f.role, f.level));
    std::unordered_set<std::string> wanted;
    for (const std::string& v : f.values) wanted.insert(ToLower(v));
    Predicate p{axis, {}};
    for (const std::string& v : axis.dict->values) {
      p.keep.push_back(wanted.count(ToLower(v)) > 0);
    }
    predicates.push_back(std::move(p));
  }

  const size_t rows = ftab->row_count();
  std::vector<bool> skip(rows);
  for (size_t r : excluded) {
    if (r < rows) skip[r] = true;
  }
  scan.groups = OrdinalGroups(axes.size(), measure_cols.size());
  scan.facts_scanned = rows - excluded.size();
  std::vector<uint32_t> key(axes.size());
  for (size_t r = 0; r < rows; ++r) {
    if (skip[r]) continue;
    bool keep = true;
    for (const Predicate& p : predicates) {
      if (!p.keep[p.axis.Ordinal(r)]) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    ++scan.facts_matched;
    for (size_t a = 0; a < axes.size(); ++a) key[a] = axes[a].Ordinal(r);
    AggState* states = scan.groups.Upsert(key.data());
    for (size_t m = 0; m < measure_cols.size(); ++m) {
      states[m].Add(measure_cols[m]->GetDouble(r));
    }
  }
  return scan;
}

Result<GroupedStates> GroupFacts(const Warehouse& wh, const OlapQuery& query,
                                 const std::set<size_t>& excluded) {
  DWQA_ASSIGN_OR_RETURN(FactScan scan, ScanFacts(wh, query, excluded));
  GroupedStates grouped = Finish(scan.groups, scan.names);
  grouped.facts_scanned = scan.facts_scanned;
  grouped.facts_matched = scan.facts_matched;
  return grouped;
}

Status ValidateHaving(const OlapQuery& query) {
  for (const Having& h : query.having) {
    if (h.measure_index >= query.measures.size()) {
      return Status::InvalidArgument(
          "HAVING refers to measure index " +
          std::to_string(h.measure_index) + ", query has " +
          std::to_string(query.measures.size()));
    }
  }
  return Status::OK();
}

Result<OlapResult> Render(const OlapQuery& query,
                          const GroupedStates& grouped,
                          const std::vector<size_t>& slots) {
  DWQA_RETURN_NOT_OK(ValidateHaving(query));
  auto slot = [&](size_t m) { return slots.empty() ? m : slots[m]; };
  OlapResult result;
  result.facts_scanned = grouped.facts_scanned;
  result.facts_matched = grouped.facts_matched;
  for (const GroupBy& g : query.group_by) {
    result.headers.push_back(g.role + "." + g.level);
  }
  for (const QueryMeasure& qm : query.measures) {
    result.headers.push_back(std::string(AggFnName(qm.agg)) + "(" +
                             qm.measure + ")");
  }
  const size_t arity = grouped.values.size();
  result.rows.reserve(grouped.size());
  for (size_t g = 0; g < grouped.size(); ++g) {
    const AggState* states = grouped.states.data() + g * grouped.width;
    bool keep = true;
    for (const Having& h : query.having) {
      double aggregated = states[slot(h.measure_index)]
                              .Finish(query.measures[h.measure_index].agg)
                              .ToDouble();
      if (!EvalCompare(aggregated, h.op, h.value)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    std::vector<Value> row;
    row.reserve(arity + query.measures.size());
    for (size_t a = 0; a < arity; ++a) {
      row.emplace_back(grouped.values[a][grouped.keys[g * arity + a]]);
    }
    for (size_t m = 0; m < query.measures.size(); ++m) {
      row.push_back(states[slot(m)].Finish(query.measures[m].agg));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace dw
}  // namespace dwqa
