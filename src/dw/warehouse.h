#ifndef DWQA_DW_WAREHOUSE_H_
#define DWQA_DW_WAREHOUSE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dw/schema.h"
#include "dw/table.h"

namespace dwqa {
namespace dw {

class ViewCatalog;

/// Surrogate key of a dimension member (row in the dimension table).
using MemberId = int32_t;
constexpr MemberId kInvalidMember = -1;

/// \brief The value ordinals of one (dimension, level): every distinct value
/// the level takes, interned once in first-registration order.
///
/// Append-only: AddMember extends it and an ordinal never changes meaning,
/// so ordinal-keyed state (the grouping kernel's, a view's) stays valid as
/// members arrive.
struct LevelDictionary {
  std::vector<uint32_t> of_member;  ///< Member id -> value ordinal.
  std::vector<std::string> values;  ///< Ordinal -> value ("" when null).
  std::unordered_map<std::string, uint32_t> ordinal_of;  ///< The inverse.

  /// The ordinal of `value`, appended to `values` when new.
  uint32_t Intern(const std::string& value);
};

/// \brief Star-schema storage for one MdSchema.
///
/// Physical layout: one denormalized dimension table per dimension (one
/// column per hierarchy level, one row per base-level member) and one fact
/// table per fact (one int64 surrogate-key column per dimension role plus
/// the measure columns).
class Warehouse {
 public:
  /// Builds the physical tables for `schema` (validated first).
  static Result<Warehouse> Create(MdSchema schema);

  const MdSchema& schema() const { return schema_; }

  /// Registers (or finds) a member from its level path, finest level first:
  /// {"El Prat", "Barcelona", "Catalonia", "Spain"} for an Airport member.
  /// The path may be shorter than the hierarchy (missing coarse levels stay
  /// null). Re-registration with a consistent path returns the existing id.
  Result<MemberId> AddMember(std::string_view dimension,
                             const std::vector<std::string>& path);

  /// Finds a member by its base-level name.
  Result<MemberId> FindMember(std::string_view dimension,
                              std::string_view base_name) const;

  /// Position of `dimension` in schema().dimensions() (case-insensitive).
  Result<size_t> DimIndex(std::string_view dimension) const;
  /// Position of `fact` in schema().facts() (case-insensitive).
  Result<size_t> FactIndex(std::string_view fact) const;

  /// The value dictionary of level `level_index` of dimension `dim_index`
  /// (positions in schema(); unchecked).
  const LevelDictionary& Dictionary(size_t dim_index,
                                    size_t level_index) const {
    return dictionaries_[dim_index][level_index];
  }

  /// Value of `member` at `level` of `dimension` ("" when null).
  Result<std::string> MemberLevelValue(std::string_view dimension,
                                       MemberId member,
                                       std::string_view level) const;

  /// All base-level member names of a dimension (insertion order).
  Result<std::vector<std::string>> MemberNames(
      std::string_view dimension) const;

  /// Appends a fact row: one member id per declared role (in declaration
  /// order) and one value per measure.
  Status InsertFact(std::string_view fact,
                    const std::vector<MemberId>& member_per_role,
                    const std::vector<Value>& measures);

  /// The fact table for `fact` (read-only view used by the OLAP engine).
  Result<const Table*> FactTable(std::string_view fact) const;

  /// The dimension table for `dimension`.
  Result<const Table*> DimensionTable(std::string_view dimension) const;

  /// Number of rows of a fact table.
  Result<size_t> FactRowCount(std::string_view fact) const;

  /// Attaches a materialized-view catalog: every subsequent InsertFact
  /// routes its delta through ViewCatalog::OnFactInserted (incremental
  /// maintenance). The catalog is caller-owned and must outlive the
  /// warehouse. The pointer travels with warehouse moves; the catalog never
  /// points back, so moving the warehouse (recovery does, repeatedly) is
  /// safe. Null detaches.
  void AttachViews(ViewCatalog* views) { views_ = views; }

  /// The attached view catalog (null = none). BI readers consult it first;
  /// the cost estimator reads its cardinalities.
  ViewCatalog* views() const { return views_; }

  /// A process-wide tag of the warehouse's content. Create, every AddMember
  /// that registers a member and every InsertFact take a fresh one from one
  /// counter, so two different contents never share a stamp — not even a
  /// warehouse move-assigned over another at the same address. A copy
  /// shares its source's stamp until either changes. Caches of derived
  /// state (the federation's conflict resolutions) key on it.
  uint64_t stamp() const { return stamp_; }

 private:
  Warehouse() = default;

  /// The next value of the process-wide stamp counter.
  static uint64_t NextStamp();

  ViewCatalog* views_ = nullptr;
  uint64_t stamp_ = NextStamp();

  MdSchema schema_;
  /// Parallel to schema_.dimensions().
  std::vector<Table> dim_tables_;
  /// dimension index -> base-name (lowercased) -> member id.
  std::vector<std::unordered_map<std::string, MemberId>> member_index_;
  /// dimension index -> level index -> value dictionary.
  std::vector<std::vector<LevelDictionary>> dictionaries_;
  /// Parallel to schema_.facts().
  std::vector<Table> fact_tables_;
};

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_WAREHOUSE_H_
