#ifndef DWQA_DW_TABLE_H_
#define DWQA_DW_TABLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dw/value.h"

namespace dwqa {
namespace dw {

/// \brief A typed column: contiguous storage of one attribute.
///
/// Values are stored in a type-homogeneous vector (columnar layout); nulls
/// are tracked in a parallel validity vector. Appends are type-checked.
class Column {
 public:
  Column(std::string name, ColumnType type)
      : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  /// Appends `v`, which must be null or match the column type.
  Status Append(const Value& v);

  /// Cell accessor (null Value if invalid row or stored null).
  Value Get(size_t row) const;

  /// Fast numeric view for aggregation (0.0 where null / non-numeric).
  double GetDouble(size_t row) const;

  /// Typed int64 read (0 where null or not an int64 column): the grouping
  /// kernel reads foreign keys through it without building a Value.
  int64_t GetInt(size_t row) const {
    return row < ints_.size() && valid_[row] ? ints_[row] : 0;
  }

 private:
  std::string name_;
  ColumnType type_;
  std::vector<bool> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Date> dates_;
};

/// \brief Name and type of one table column.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kString;
};

/// \brief A columnar table: the physical storage unit of the warehouse
/// (dimension tables and fact tables) and the shape of OLAP results.
class Table {
 public:
  Table() = default;
  Table(std::string name, std::vector<ColumnDef> columns);

  const std::string& name() const { return name_; }
  size_t row_count() const { return row_count_; }
  size_t column_count() const { return columns_.size(); }

  /// Index of the column called `name`, or NotFound.
  Result<size_t> ColumnIndex(std::string_view name) const;

  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends one row; `row` must have one value per column.
  Status AppendRow(const std::vector<Value>& row);

  Value Get(size_t row, size_t col) const { return columns_[col].Get(row); }

  /// Renders the table for display (used by examples and benches).
  std::string ToDisplayString(size_t max_rows = 50) const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  size_t row_count_ = 0;
};

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_TABLE_H_
