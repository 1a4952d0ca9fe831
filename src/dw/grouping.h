#ifndef DWQA_DW_GROUPING_H_
#define DWQA_DW_GROUPING_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "dw/olap.h"
#include "dw/warehouse.h"

namespace dwqa {
namespace dw {

/// \file grouping.h
/// \brief The one grouping kernel behind every BI aggregate: the OLAP
/// recompute, the materialized views and the federation merge.
///
/// Facts are grouped by integer ordinals, never by strings. A fact row's
/// foreign keys map through the warehouse's LevelDictionary of each axis to
/// value ordinals, filters are per-ordinal bitsets, and AggStates fold in
/// fact-row order under a hash index over the ordinal tuple. Strings appear
/// only at the end: Finish() sorts each axis's distinct values once and
/// orders the groups by those ranks, which is exactly the order of a
/// std::map over the rendered key vector, so every answer is byte-identical
/// to string-keyed grouping.

/// \brief Ordinal-keyed grouping state: one key tuple and `width` AggStates
/// per group, groups in first-seen order.
///
/// The index has one hash level per axis, mapping (id of the key prefix,
/// next ordinal) to the id of the longer prefix: a lookup is one integer
/// probe per axis whatever the arity. Arity 0 has exactly one group.
/// Each level is a flat open-addressing table (linear probing, power-of-two
/// capacity, at most half full), so a new group allocates nothing but the
/// amortized growth of flat arrays.
class OrdinalGroups {
 public:
  /// Groups keyed by `arity` ordinals, each holding `width` states.
  explicit OrdinalGroups(size_t arity = 0, size_t width = 0)
      : levels_(arity), width_(width) {}

  /// The id of the group keyed `key` (arity ordinals), created when new.
  uint32_t Insert(const uint32_t* key);
  /// The `width` states of the group keyed `key`, created empty when new.
  AggState* Upsert(const uint32_t* key) {
    const size_t group = Insert(key);  // May grow states_.
    return states_.data() + group * width_;
  }

  size_t arity() const { return levels_.size(); }  ///< Axes per key.
  size_t width() const { return width_; }          ///< States per group.
  size_t size() const { return size_; }            ///< Groups so far.
  /// The key tuple of group `group`.
  const uint32_t* key(size_t group) const {
    return keys_.data() + group * arity();
  }
  /// The `width` states of group `group`.
  const AggState* states(size_t group) const {
    return states_.data() + group * width_;
  }

 private:
  /// One axis of the index: (prefix id << 32 | ordinal) -> prefix id, ids
  /// numbered in first-seen order.
  class Level {
   public:
    /// The id of `key`, the next id when new.
    uint32_t Insert(uint64_t key);

   private:
    static constexpr uint32_t kFree = UINT32_MAX;
    struct Slot {
      uint64_t key = 0;
      uint32_t id = kFree;
    };
    /// The first slot probed for `key` (Fibonacci hashing: the product's
    /// high bits mix prefix and ordinal).
    size_t Home(uint64_t key) const {
      return (key * 0x9E3779B97F4A7C15ull) >> shift_;
    }
    /// Doubles the table (16 slots when empty) and re-places every entry.
    void Grow();

    std::vector<Slot> slots_;
    uint32_t size_ = 0;  ///< Entries, and so the next id.
    int shift_ = 64;     ///< 64 - log2(capacity): hash bits kept.
  };

  std::vector<Level> levels_;
  size_t width_;
  size_t size_ = 0;
  std::vector<uint32_t> keys_;
  std::vector<AggState> states_;
};

/// \brief A finished grouping: self-contained (it holds its own values, not
/// ordinals of some dictionary) and sorted in rendered-key order.
struct GroupedStates {
  /// Per axis: the distinct values the groups take, ascending.
  std::vector<std::vector<std::string>> values;
  /// Per group, per axis: the index of the group's value in `values`.
  std::vector<uint32_t> keys;
  /// Per group: `width` states.
  std::vector<AggState> states;
  size_t width = 0;          ///< States per group.
  size_t facts_scanned = 0;  ///< Fact rows the grouping read.
  size_t facts_matched = 0;  ///< Of those, rows the filters kept.

  /// Number of groups.
  size_t size() const { return width == 0 ? 0 : states.size() / width; }
};

/// Sorts `groups` into GroupedStates. `names[a]` maps axis `a`'s ordinals to
/// their values (distinct ordinals must name distinct values); `slots`
/// selects and orders the state columns kept (empty keeps all).
GroupedStates Finish(const OrdinalGroups& groups,
                     const std::vector<const std::vector<std::string>*>& names,
                     const std::vector<size_t>& slots = {});

/// \brief One fact scan, before Finish(): the ordinal-keyed groups and the
/// dictionary values their ordinals index (borrowed from the warehouse).
struct FactScan {
  OrdinalGroups groups;  ///< One state per query measure.
  /// Per axis: the level dictionary's values (ordinal -> value).
  std::vector<const std::vector<std::string>*> names;
  size_t facts_scanned = 0;  ///< Fact rows read (exclusions not counted).
  size_t facts_matched = 0;  ///< Of those, rows the filters kept.
};

/// Scans `query.fact` of `wh`: filters, then groups by `query.group_by`,
/// folding one state per query measure in fact-row order. Rows in
/// `excluded` (a conflict policy removed them) are skipped. HAVING and the
/// aggregate functions are ignored: they apply at Render().
Result<FactScan> ScanFacts(const Warehouse& wh, const OlapQuery& query,
                           const std::set<size_t>& excluded = {});

/// ScanFacts() then Finish().
Result<GroupedStates> GroupFacts(const Warehouse& wh, const OlapQuery& query,
                                 const std::set<size_t>& excluded = {});

/// Fails when a HAVING predicate names a measure the query does not have.
Status ValidateHaving(const OlapQuery& query);

/// Renders `grouped` as the answer to `query`: headers, HAVING, then one
/// AggState::Finish per measure. Query measure `m` reads state column
/// `slots[m]` (empty: column `m`).
Result<OlapResult> Render(const OlapQuery& query,
                          const GroupedStates& grouped,
                          const std::vector<size_t>& slots = {});

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_GROUPING_H_
