#include "dw/persistence.h"

#include <set>

#include "common/csv.h"
#include "common/string_util.h"
#include "dw/csv_etl.h"
#include "dw/etl.h"

namespace dwqa {
namespace dw {

namespace {

Result<ColumnType> ColumnTypeFromName(const std::string& name) {
  if (name == "int64") return ColumnType::kInt64;
  if (name == "double") return ColumnType::kDouble;
  if (name == "string") return ColumnType::kString;
  if (name == "date") return ColumnType::kDate;
  return Status::InvalidArgument("unknown column type '" + name + "'");
}

Result<AggFn> AggFnFromName(const std::string& name) {
  for (AggFn fn : {AggFn::kSum, AggFn::kCount, AggFn::kAvg, AggFn::kMin,
                   AggFn::kMax}) {
    if (name == AggFnName(fn)) return fn;
  }
  return Status::InvalidArgument("unknown aggregation '" + name + "'");
}

/// Filesystem-safe file stem for a schema object name.
std::string Slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

}  // namespace

std::string SchemaSerde::ToText(const MdSchema& schema) {
  std::string out;
  for (const DimensionDef& dim : schema.dimensions()) {
    out += "dimension\t" + dim.name + "\n";
    for (const LevelDef& level : dim.levels) {
      out += "level\t" + level.name + "\n";
    }
  }
  for (const FactDef& fact : schema.facts()) {
    out += "fact\t" + fact.name + "\n";
    for (const DimRole& role : fact.roles) {
      out += "role\t" + role.role + "\t" + role.dimension + "\n";
    }
    for (const MeasureDef& m : fact.measures) {
      out += "measure\t" + m.name + "\t" +
             std::string(ColumnTypeName(m.type)) + "\t" +
             AggFnName(m.default_agg) + "\n";
    }
  }
  return out;
}

Result<MdSchema> SchemaSerde::FromText(const std::string& text) {
  MdSchema schema;
  // Accumulate the current dimension or fact; flush when the next object
  // starts or at EOF.
  DimensionDef dim;
  FactDef fact;
  enum class Mode { kNone, kDimension, kFact } mode = Mode::kNone;
  auto flush = [&]() -> Status {
    if (mode == Mode::kDimension) {
      DWQA_RETURN_NOT_OK(schema.AddDimension(std::move(dim)));
      dim = DimensionDef();
    } else if (mode == Mode::kFact) {
      DWQA_RETURN_NOT_OK(schema.AddFact(std::move(fact)));
      fact = FactDef();
    }
    mode = Mode::kNone;
    return Status::OK();
  };
  size_t line_no = 0;
  auto malformed = [&](const std::string& why) {
    return Status::InvalidArgument("schema line " + std::to_string(line_no) +
                                   ": " + why);
  };
  // Duplicate names are rejected at the line that re-declares them, so the
  // error points at the offending line rather than the later flush point.
  std::set<std::string> dim_names;
  std::set<std::string> fact_names;
  std::set<std::string> level_names;

  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = Split(line, '\t');
    const std::string& kind = fields[0];
    if (kind == "dimension") {
      if (fields.size() != 2 || fields[1].empty()) {
        return malformed("malformed dimension line");
      }
      if (!dim_names.insert(fields[1]).second) {
        return malformed("duplicate dimension '" + fields[1] + "'");
      }
      DWQA_RETURN_NOT_OK(flush());
      mode = Mode::kDimension;
      dim.name = fields[1];
      level_names.clear();
    } else if (kind == "level") {
      if (mode != Mode::kDimension) {
        return malformed("level outside a dimension");
      }
      if (fields.size() != 2 || fields[1].empty()) {
        return malformed("malformed level line");
      }
      if (!level_names.insert(fields[1]).second) {
        return malformed("duplicate level '" + fields[1] +
                         "' in dimension '" + dim.name + "'");
      }
      dim.levels.push_back({fields[1]});
    } else if (kind == "fact") {
      if (fields.size() != 2 || fields[1].empty()) {
        return malformed("malformed fact line");
      }
      if (!fact_names.insert(fields[1]).second) {
        return malformed("duplicate fact '" + fields[1] + "'");
      }
      DWQA_RETURN_NOT_OK(flush());
      mode = Mode::kFact;
      fact.name = fields[1];
    } else if (kind == "role") {
      if (mode != Mode::kFact) return malformed("role outside a fact");
      if (fields.size() != 3 || fields[1].empty() || fields[2].empty()) {
        return malformed("malformed role line");
      }
      fact.roles.push_back({fields[1], fields[2]});
    } else if (kind == "measure") {
      if (mode != Mode::kFact) return malformed("measure outside a fact");
      if (fields.size() != 4 || fields[1].empty()) {
        return malformed("malformed measure line");
      }
      MeasureDef m;
      m.name = fields[1];
      auto type = ColumnTypeFromName(fields[2]);
      if (!type.ok()) return malformed(type.status().message());
      m.type = *type;
      auto agg = AggFnFromName(fields[3]);
      if (!agg.ok()) return malformed(agg.status().message());
      m.default_agg = *agg;
      fact.measures.push_back(std::move(m));
    } else {
      return malformed("unknown schema line kind '" + kind + "'");
    }
  }
  DWQA_RETURN_NOT_OK(flush());
  DWQA_RETURN_NOT_OK(schema.Validate());
  return schema;
}

Status WarehousePersistence::Render(
    const Warehouse& wh, const std::function<Status(const File&)>& sink) {
  DWQA_RETURN_NOT_OK(sink({"schema.txt", SchemaSerde::ToText(wh.schema())}));
  for (const DimensionDef& dim : wh.schema().dimensions()) {
    DWQA_ASSIGN_OR_RETURN(const Table* table, wh.DimensionTable(dim.name));
    DWQA_RETURN_NOT_OK(
        sink({"dim_" + Slug(dim.name) + ".csv", CsvEtl::ExportTable(*table)}));
  }
  for (const FactDef& fact : wh.schema().facts()) {
    DWQA_ASSIGN_OR_RETURN(std::string csv, CsvEtl::ExportFact(wh,
                                                              fact.name));
    DWQA_RETURN_NOT_OK(
        sink({"fact_" + Slug(fact.name) + ".csv", std::move(csv)}));
  }
  return Status::OK();
}

Status WarehousePersistence::Save(const Warehouse& wh, const std::string& dir,
                                  Fs* fs) {
  fs = FsOrReal(fs);
  DWQA_RETURN_NOT_OK(fs->CreateDirs(dir));
  return Render(wh, [&](const File& file) {
    return WriteFileAtomic(fs, dir + "/" + file.name, file.bytes);
  });
}

Result<Warehouse> WarehousePersistence::Load(const std::string& dir,
                                             Fs* fs) {
  fs = FsOrReal(fs);
  DWQA_ASSIGN_OR_RETURN(std::string schema_text,
                        fs->ReadFile(dir + "/schema.txt"));
  DWQA_ASSIGN_OR_RETURN(MdSchema schema,
                        SchemaSerde::FromText(schema_text));
  DWQA_ASSIGN_OR_RETURN(Warehouse wh, Warehouse::Create(std::move(schema)));

  // Dimension members first, preserving insertion order (surrogate keys
  // are reassigned but identical because order is preserved).
  for (const DimensionDef& dim : wh.schema().dimensions()) {
    std::string file = "dim_" + Slug(dim.name) + ".csv";
    DWQA_ASSIGN_OR_RETURN(std::string csv, fs->ReadFile(dir + "/" + file));
    auto parsed = Csv::Parse(csv);
    if (!parsed.ok()) {
      return Status::InvalidArgument("malformed '" + file +
                                     "': " + parsed.status().message());
    }
    const auto& rows = *parsed;
    if (rows.empty()) {
      return Status::InvalidArgument("'" + file +
                                     "' is empty or truncated: missing "
                                     "header row");
    }
    for (size_t r = 1; r < rows.size(); ++r) {
      std::vector<std::string> path = rows[r];
      while (!path.empty() && path.back().empty()) path.pop_back();
      if (path.empty()) {
        return Status::InvalidArgument("'" + file + "' row " +
                                       std::to_string(r + 1) +
                                       ": empty member row in dimension '" +
                                       dim.name + "'");
      }
      if (path.size() > dim.levels.size()) {
        return Status::InvalidArgument(
            "'" + file + "' row " + std::to_string(r + 1) + ": member path "
            "has " + std::to_string(path.size()) + " levels, dimension '" +
            dim.name + "' defines " + std::to_string(dim.levels.size()));
      }
      Status st = wh.AddMember(dim.name, path).status();
      if (!st.ok()) {
        return Status::InvalidArgument("'" + file + "' row " +
                                       std::to_string(r + 1) + ": " +
                                       st.message());
      }
    }
  }
  for (const FactDef& fact : wh.schema().facts()) {
    std::string file = "fact_" + Slug(fact.name) + ".csv";
    DWQA_ASSIGN_OR_RETURN(std::string csv, fs->ReadFile(dir + "/" + file));
    auto records = CsvEtl::ImportFactRecords(wh.schema(), fact.name, csv);
    if (!records.ok()) {
      return Status::InvalidArgument("malformed '" + file +
                                     "': " + records.status().message());
    }
    EtlLoader loader(&wh);
    DWQA_ASSIGN_OR_RETURN(LoadReport report,
                          loader.LoadBatch(fact.name, *records));
    if (report.rows_rejected > 0) {
      return Status::InvalidArgument(
          "'" + file + "': reload rejected " +
          std::to_string(report.rows_rejected) + " rows of fact '" +
          fact.name + "': " +
          (report.errors.empty() ? "" : report.errors.front()));
    }
  }
  return wh;
}

}  // namespace dw
}  // namespace dwqa
