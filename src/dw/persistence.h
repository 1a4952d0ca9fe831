#ifndef DWQA_DW_PERSISTENCE_H_
#define DWQA_DW_PERSISTENCE_H_

#include <functional>
#include <string>

#include "common/io.h"
#include "common/result.h"
#include "dw/warehouse.h"

namespace dwqa {
namespace dw {

/// \brief Text serialization of a multidimensional schema.
///
/// Line-based, tab-separated (names may contain spaces but not tabs):
///
///   dimension<TAB>Airport
///   level<TAB>Airport
///   level<TAB>City
///   fact<TAB>LastMinuteSales
///   role<TAB>destination<TAB>Airport
///   measure<TAB>Price<TAB>double<TAB>SUM
class SchemaSerde {
 public:
  static std::string ToText(const MdSchema& schema);
  static Result<MdSchema> FromText(const std::string& text);
};

/// \brief Directory-based warehouse persistence.
///
/// Layout: `schema.txt` plus one denormalized CSV per fact
/// (`fact_<Name>.csv`, the CsvEtl format) and one CSV per dimension table
/// (`dim_<Name>.csv`, so members without facts survive). Load rebuilds the
/// warehouse; surrogate keys are reassigned but all level values, member
/// sets and fact rows round-trip exactly.
///
/// All I/O goes through a common/io Fs (null = the real filesystem) so the
/// crash-point harness can interpose. Save writes each file atomically
/// (temp + fsync + rename): a crash mid-save leaves every file either its
/// old or its new version, never a torn half-write.
class WarehousePersistence {
 public:
  /// One file of a saved warehouse: its name inside the directory and its
  /// bytes.
  struct File {
    std::string name;
    std::string bytes;
  };

  /// Renders the files Save writes, `schema.txt`, then one CSV per
  /// dimension and one per fact, and hands each to `sink` as soon as it is
  /// rendered, so one file's bytes are in memory at a time. Stops at the
  /// first error, the sink's included.
  static Status Render(const Warehouse& warehouse,
                       const std::function<Status(const File&)>& sink);
  /// Writes Render's files into `dir`, each with WriteFileAtomic.
  static Status Save(const Warehouse& warehouse, const std::string& dir,
                     Fs* fs = nullptr);
  static Result<Warehouse> Load(const std::string& dir, Fs* fs = nullptr);
};

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_PERSISTENCE_H_
