#include "dw/federation/merge_warehouses.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "dw/grouping.h"

namespace dwqa {
namespace dw {
namespace fed {

namespace {

constexpr char kKeySep = '\x1f';

std::string RenderMeasures(const FactMapping& fact,
                           const std::vector<double>& values) {
  std::vector<std::string> parts;
  for (size_t m = 0; m < fact.measures.size(); ++m) {
    parts.push_back(fact.measures[m].local_measure + "=" +
                    FormatDouble(values[m], 4));
  }
  return Join(parts, ";");
}

QuarantineRecord MakeConflictRecord(const FactMapping& fact,
                                    const std::string& side,
                                    const std::string& fact_name,
                                    size_t row, const std::string& key,
                                    const std::vector<double>& values) {
  QuarantineRecord record;
  record.attribute = fact.local_fact;
  record.value = RenderMeasures(fact, values);
  // The key carries the full provenance; pick its date and place parts into
  // the record's dedicated fields so quarantine reports read like the
  // Step-5 validator's (location = the member, not the whole key).
  for (const std::string& part : Split(key, kKeySep)) {
    if (record.date_iso.empty() && Date::FromIsoString(part).ok()) {
      record.date_iso = part;
    } else if (StartsWith(part, "http://") ||
               StartsWith(part, "https://")) {
      if (record.url.empty()) record.url = part;
    } else if (record.location.empty()) {
      record.location = part;
    }
  }
  if (record.url.empty()) {
    record.url = "dw://" + side + "/" + fact_name + "#row" +
                 std::to_string(row);
  }
  record.reason = "FederationConflict";
  record.detail = "cross-warehouse measure disagreement under policy "
                  "'quarantine' (" + side + " row " + std::to_string(row) +
                  " of '" + fact_name + "', key " +
                  ReplaceAll(key, std::string(1, kKeySep), "|") + ")";
  return record;
}

}  // namespace

const char* ConflictPolicyName(ConflictPolicy policy) {
  switch (policy) {
    case ConflictPolicy::kPreferLocal:
      return "prefer_local";
    case ConflictPolicy::kPreferFresher:
      return "prefer_fresher";
    case ConflictPolicy::kQuarantine:
      return "quarantine";
  }
  return "?";
}

Result<ConflictResolution> ResolveConflicts(const Warehouse& local,
                                            const Warehouse& remote,
                                            const SchemaMapping& mapping,
                                            const FactMapping& fact,
                                            const MergePolicy& policy) {
  ConflictResolution resolution;
  // Without a complete key the two fact tables do not share a key space:
  // the merge is purely additive and there is nothing to resolve.
  if (!fact.key_complete) return resolution;

  DWQA_ASSIGN_OR_RETURN(const FactDef* lf,
                        local.schema().FindFact(fact.local_fact));
  DWQA_ASSIGN_OR_RETURN(const FactDef* rf,
                        remote.schema().FindFact(fact.remote_fact));
  DWQA_ASSIGN_OR_RETURN(const Table* ltab, local.FactTable(fact.local_fact));
  DWQA_ASSIGN_OR_RETURN(const Table* rtab,
                        remote.FactTable(fact.remote_fact));

  // Key each row by ordinals: per mapped role, every distinct base value of
  // either side is lowercased (and, remotely, canonicalized through the
  // member map) once and interned into one id space, so a row's key is a
  // tuple of ids read through the fk columns.
  struct Side {
    const Table* tab;
    std::vector<const Column*> fks;           ///< Per mapped role.
    std::vector<std::vector<uint32_t>> ids;   ///< Member id -> key-part id.
    std::vector<const Column*> measures;      ///< Per mapped measure.
    std::vector<std::vector<size_t>> rows_of;  ///< Key -> its rows.
  };
  Side lside{ltab, {}, {}, {}, {}}, rside{rtab, {}, {}, {}, {}};
  std::vector<LevelDictionary> names(fact.roles.size());  // of_member unused.
  for (size_t p = 0; p < fact.roles.size(); ++p) {
    auto add = [&](const Warehouse& wh, const FactDef* def,
                   const std::string& role, Side* side,
                   const DimensionMapping* translate) -> Status {
      DWQA_ASSIGN_OR_RETURN(size_t ri, def->RoleIndex(role));
      DWQA_ASSIGN_OR_RETURN(size_t di, wh.DimIndex(def->roles[ri].dimension));
      const LevelDictionary& base = wh.Dictionary(di, 0);
      std::vector<uint32_t> of_value;
      for (const std::string& value : base.values) {
        std::string v = ToLower(value);
        if (translate != nullptr) {
          auto it = translate->member_map.find(v);
          if (it != translate->member_map.end()) v = ToLower(it->second);
        }
        of_value.push_back(names[p].Intern(v));
      }
      side->fks.push_back(&side->tab->column(ri));
      side->ids.emplace_back();
      for (uint32_t o : base.of_member) side->ids.back().push_back(of_value[o]);
      return Status::OK();
    };
    const RoleMapping& rm = fact.roles[p];
    DWQA_ASSIGN_OR_RETURN(size_t lri, lf->RoleIndex(rm.local_role));
    DWQA_RETURN_NOT_OK(add(local, lf, rm.local_role, &lside, nullptr));
    DWQA_RETURN_NOT_OK(
        add(remote, rf, rm.remote_role, &rside,
            mapping.FindLocalDimension(lf->roles[lri].dimension)));
  }
  for (const MeasureMapping& mm : fact.measures) {
    DWQA_ASSIGN_OR_RETURN(size_t lm, lf->MeasureIndex(mm.local_measure));
    DWQA_ASSIGN_OR_RETURN(size_t rm, rf->MeasureIndex(mm.remote_measure));
    lside.measures.push_back(&ltab->column(lf->roles.size() + lm));
    rside.measures.push_back(&rtab->column(rf->roles.size() + rm));
  }

  OrdinalGroups keys(fact.roles.size());
  std::vector<uint32_t> key(fact.roles.size());
  for (Side* side : {&lside, &rside}) {
    for (size_t r = 0; r < side->tab->row_count(); ++r) {
      for (size_t p = 0; p < key.size(); ++p) {
        key[p] = side->ids[p][static_cast<size_t>(side->fks[p]->GetInt(r))];
      }
      const uint32_t id = keys.Insert(key.data());
      side->rows_of.resize(keys.size());
      side->rows_of[id].push_back(r);
    }
  }
  lside.rows_of.resize(keys.size());
  rside.rows_of.resize(keys.size());
  // One row's measures, remote values converted into local units.
  auto measures_of = [&](const Side& side, size_t r) {
    std::vector<double> values;
    for (size_t m = 0; m < fact.measures.size(); ++m) {
      double v = side.measures[m]->GetDouble(r);
      values.push_back(&side == &lside ? v : v * fact.measures[m].conversion);
    }
    return values;
  };

  // The keys both sides hold, in the order of their rendered form (the
  // lowercased parts joined by kKeySep) — the order quarantine records are
  // written in.
  std::vector<std::pair<std::string, uint32_t>> shared;
  for (uint32_t id = 0; id < keys.size(); ++id) {
    if (lside.rows_of[id].empty() || rside.rows_of[id].empty()) continue;
    std::vector<std::string> key_parts;
    for (size_t p = 0; p < names.size(); ++p) {
      key_parts.push_back(names[p].values[keys.key(id)[p]]);
    }
    shared.emplace_back(Join(key_parts, std::string(1, kKeySep)), id);
  }
  std::sort(shared.begin(), shared.end());

  const bool remote_fresher =
      policy.remote_refresh_iso > policy.local_refresh_iso;
  for (const auto& [key, id] : shared) {
    const std::vector<size_t>& lrows = lside.rows_of[id];
    const std::vector<size_t>& rrows = rside.rows_of[id];
    ++resolution.stats.keys_in_both;
    std::vector<std::vector<double>> lvals, rvals;
    for (size_t r : lrows) lvals.push_back(measures_of(lside, r));
    for (size_t r : rrows) rvals.push_back(measures_of(rside, r));
    std::sort(lvals.begin(), lvals.end());
    std::sort(rvals.begin(), rvals.end());
    if (lvals == rvals) {
      // The remote warehouse carries the same observations: keep one copy.
      for (size_t r : rrows) resolution.remote_excluded.insert(r);
      resolution.stats.deduplicated_rows += rrows.size();
      continue;
    }
    ++resolution.stats.conflicting_keys;
    switch (policy.conflicts) {
      case ConflictPolicy::kPreferLocal:
        for (size_t r : rrows) resolution.remote_excluded.insert(r);
        resolution.stats.remote_rows_dropped += rrows.size();
        break;
      case ConflictPolicy::kPreferFresher:
        if (remote_fresher) {
          for (size_t r : lrows) resolution.local_excluded.insert(r);
          resolution.stats.local_rows_dropped += lrows.size();
        } else {
          for (size_t r : rrows) resolution.remote_excluded.insert(r);
          resolution.stats.remote_rows_dropped += rrows.size();
        }
        break;
      case ConflictPolicy::kQuarantine:
        for (size_t i = 0; i < lrows.size(); ++i) {
          resolution.local_excluded.insert(lrows[i]);
          resolution.quarantine.push_back(MakeConflictRecord(
              fact, "local", fact.local_fact, lrows[i], key,
              measures_of(lside, lrows[i])));
        }
        for (size_t i = 0; i < rrows.size(); ++i) {
          resolution.remote_excluded.insert(rrows[i]);
          resolution.quarantine.push_back(MakeConflictRecord(
              fact, "remote", fact.remote_fact, rrows[i], key,
              measures_of(rside, rrows[i])));
        }
        resolution.stats.local_rows_dropped += lrows.size();
        resolution.stats.remote_rows_dropped += rrows.size();
        resolution.stats.quarantined_rows +=
            lrows.size() + rrows.size();
        break;
    }
  }
  return resolution;
}

Result<Warehouse> MergeWarehouses(const Warehouse& local,
                                  const Warehouse& remote,
                                  const SchemaMapping& mapping,
                                  const MergePolicy& policy,
                                  QuarantineStore* quarantine,
                                  MergeWarehousesReport* report) {
  DWQA_ASSIGN_OR_RETURN(Warehouse merged,
                        Warehouse::Create(local.schema()));
  MergeWarehousesReport local_report;

  // 1. Re-register every local member in dimension-table row order, so the
  // surrogate keys of the merged warehouse coincide with the local ones and
  // local fact rows can be copied verbatim.
  size_t local_member_rows = 0;
  for (const DimensionDef& dim : local.schema().dimensions()) {
    DWQA_ASSIGN_OR_RETURN(const Table* dtab, local.DimensionTable(dim.name));
    local_member_rows += dtab->row_count();
    for (size_t r = 0; r < dtab->row_count(); ++r) {
      std::vector<std::string> path;
      for (size_t c = 0; c < dim.levels.size(); ++c) {
        path.push_back(dtab->Get(r, c).ToString());
      }
      while (!path.empty() && path.back().empty()) path.pop_back();
      DWQA_RETURN_NOT_OK(merged.AddMember(dim.name, path).status());
    }
  }

  // 2. Resolve conflicts per key-complete fact mapping — the same
  // exclusions the FederatedEngine applies at query time.
  std::map<std::string, ConflictResolution> resolutions;
  for (const FactMapping& fm : mapping.facts) {
    DWQA_ASSIGN_OR_RETURN(
        ConflictResolution resolution,
        ResolveConflicts(local, remote, mapping, fm, policy));
    if (quarantine != nullptr) {
      for (const QuarantineRecord& record : resolution.quarantine) {
        quarantine->Add(record);
      }
    }
    local_report.conflicts[fm.local_fact] = resolution.stats;
    resolutions[ToLower(fm.local_fact)] = std::move(resolution);
  }

  // 3. Copy every kept local fact row (surrogate keys unchanged).
  for (const FactDef& fact : local.schema().facts()) {
    DWQA_ASSIGN_OR_RETURN(const Table* ftab, local.FactTable(fact.name));
    auto rit = resolutions.find(ToLower(fact.name));
    const std::set<size_t>* excluded =
        rit == resolutions.end() ? nullptr : &rit->second.local_excluded;
    for (size_t r = 0; r < ftab->row_count(); ++r) {
      if (excluded != nullptr && excluded->count(r)) continue;
      std::vector<MemberId> members;
      for (size_t c = 0; c < fact.roles.size(); ++c) {
        members.push_back(static_cast<MemberId>(ftab->Get(r, c).as_int()));
      }
      std::vector<Value> measures;
      for (size_t m = 0; m < fact.measures.size(); ++m) {
        measures.push_back(ftab->Get(r, fact.roles.size() + m));
      }
      DWQA_RETURN_NOT_OK(merged.InsertFact(fact.name, members, measures));
      ++local_report.local_facts_kept;
    }
  }

  // 4. Register the "(unattributed)" sentinel for every dimension that
  // backs an unmapped local role of a mapped fact: remote facts roll up
  // into the sentinel along those axes instead of dropping them.
  for (const FactMapping& fm : mapping.facts) {
    if (fm.unmapped_local_roles.empty()) continue;
    DWQA_ASSIGN_OR_RETURN(const FactDef* lf,
                          local.schema().FindFact(fm.local_fact));
    for (const std::string& role : fm.unmapped_local_roles) {
      DWQA_ASSIGN_OR_RETURN(size_t ri, lf->RoleIndex(role));
      const std::string& dim_name = lf->roles[ri].dimension;
      DWQA_ASSIGN_OR_RETURN(const DimensionDef* dim,
                            local.schema().FindDimension(dim_name));
      std::vector<std::string> path(dim->levels.size(), kUnattributedMember);
      DWQA_RETURN_NOT_OK(merged.AddMember(dim_name, path).status());
    }
  }

  // 5. Translate remote-only members of every mapped dimension whose base
  // levels aligned: mapped local levels take the remote value, unmapped
  // local levels stay null.
  for (const DimensionMapping& dm : mapping.dimensions) {
    DWQA_ASSIGN_OR_RETURN(const DimensionDef* ld,
                          local.schema().FindDimension(dm.local_dimension));
    DWQA_ASSIGN_OR_RETURN(
        const DimensionDef* rd,
        remote.schema().FindDimension(dm.remote_dimension));
    const LevelMapping* base = dm.FindLocalLevel(ld->levels.front().name);
    if (base == nullptr ||
        ToLower(base->remote_level) != ToLower(rd->levels.front().name)) {
      local_report.notes.push_back(
          "dimension '" + dm.local_dimension +
          "': base levels did not align — remote members not merged");
      continue;
    }
    DWQA_ASSIGN_OR_RETURN(const Table* rdtab,
                          remote.DimensionTable(dm.remote_dimension));
    for (size_t r = 0; r < rdtab->row_count(); ++r) {
      std::string base_value = rdtab->Get(r, 0).ToString();
      if (base_value.empty()) continue;
      if (dm.member_map.count(ToLower(base_value))) continue;  // Shared.
      std::vector<std::string> path;
      for (const LevelDef& level : ld->levels) {
        const LevelMapping* lm = dm.FindLocalLevel(level.name);
        if (lm == nullptr) {
          path.push_back("");
          continue;
        }
        DWQA_ASSIGN_OR_RETURN(
            std::string v,
            remote.MemberLevelValue(dm.remote_dimension,
                                    static_cast<MemberId>(r),
                                    lm->remote_level));
        path.push_back(std::move(v));
      }
      while (!path.empty() && path.back().empty()) path.pop_back();
      DWQA_RETURN_NOT_OK(merged.AddMember(dm.local_dimension, path).status());
    }
  }

  // 6. Insert every kept remote fact row, members translated through the
  // member maps (or the sentinel) and measures converted into local units.
  // Each remote member is translated once, into a per-role table of merged
  // ids (kInvalidMember: no merged member carries its base value).
  for (const FactMapping& fm : mapping.facts) {
    DWQA_ASSIGN_OR_RETURN(const FactDef* lf,
                          local.schema().FindFact(fm.local_fact));
    DWQA_ASSIGN_OR_RETURN(const FactDef* rf,
                          remote.schema().FindFact(fm.remote_fact));
    DWQA_ASSIGN_OR_RETURN(const Table* rtab,
                          remote.FactTable(fm.remote_fact));
    if (rtab->row_count() == 0) continue;
    struct RoleTranslation {
      const Column* fk = nullptr;          ///< Remote fk (null: sentinel).
      MemberId sentinel = kInvalidMember;  ///< Unmapped role's member.
      std::vector<MemberId> merged_of;     ///< Remote member -> merged.
    };
    std::vector<RoleTranslation> roles;
    for (const DimRole& role : lf->roles) {
      const std::string& dim_name = role.dimension;
      RoleTranslation t;
      const RoleMapping* rm = fm.FindLocalRole(role.role);
      if (rm == nullptr) {
        DWQA_ASSIGN_OR_RETURN(t.sentinel,
                              merged.FindMember(dim_name, kUnattributedMember));
        roles.push_back(std::move(t));
        continue;
      }
      DWQA_ASSIGN_OR_RETURN(size_t rri, rf->RoleIndex(rm->remote_role));
      DWQA_ASSIGN_OR_RETURN(size_t rdi,
                            remote.DimIndex(rf->roles[rri].dimension));
      const LevelDictionary& base = remote.Dictionary(rdi, 0);
      const DimensionMapping* dm = mapping.FindLocalDimension(dim_name);
      t.fk = &rtab->column(rri);
      for (uint32_t ordinal : base.of_member) {
        const std::string* base_value = &base.values[ordinal];
        if (dm != nullptr) {
          auto it = dm->member_map.find(ToLower(*base_value));
          if (it != dm->member_map.end()) base_value = &it->second;
        }
        auto found = merged.FindMember(dim_name, *base_value);
        t.merged_of.push_back(found.ok() ? *found : kInvalidMember);
      }
      roles.push_back(std::move(t));
    }
    struct MeasureTranslation {
      const Column* column;  ///< Remote measure column.
      double conversion;     ///< Remote unit -> local unit.
      bool integral;         ///< The local measure is int64 (rounded).
    };
    std::vector<MeasureTranslation> measure_cols;
    for (const MeasureDef& md : lf->measures) {
      const MeasureMapping* mm = fm.FindLocalMeasure(md.name);
      DWQA_ASSIGN_OR_RETURN(size_t rmi, rf->MeasureIndex(mm->remote_measure));
      measure_cols.push_back({&rtab->column(rf->roles.size() + rmi),
                              mm->conversion,
                              md.type == ColumnType::kInt64});
    }
    const ConflictResolution& resolution =
        resolutions[ToLower(fm.local_fact)];
    std::vector<MemberId> members(roles.size());
    for (size_t r = 0; r < rtab->row_count(); ++r) {
      if (resolution.remote_excluded.count(r)) continue;
      bool resolvable = true;
      for (size_t c = 0; c < roles.size() && resolvable; ++c) {
        const RoleTranslation& t = roles[c];
        members[c] = t.fk == nullptr
                         ? t.sentinel
                         : t.merged_of[static_cast<size_t>(t.fk->GetInt(r))];
        resolvable = members[c] != kInvalidMember;
      }
      if (!resolvable) {
        local_report.notes.push_back(
            "fact '" + fm.remote_fact + "' row " + std::to_string(r) +
            ": a remote member could not be translated — row skipped");
        continue;
      }
      std::vector<Value> measures;
      for (const MeasureTranslation& m : measure_cols) {
        double v = m.column->GetDouble(r) * m.conversion;
        // An int64 local measure keeps its column type (rounded).
        measures.push_back(m.integral
                               ? Value(static_cast<int64_t>(std::llround(v)))
                               : Value(v));
      }
      DWQA_RETURN_NOT_OK(
          merged.InsertFact(fm.local_fact, members, measures));
      ++local_report.remote_facts_merged;
    }
  }

  for (const FactDef& rfact : remote.schema().facts()) {
    bool mapped = false;
    for (const FactMapping& fm : mapping.facts) {
      if (ToLower(fm.remote_fact) == ToLower(rfact.name)) mapped = true;
    }
    if (!mapped) {
      local_report.notes.push_back("remote fact '" + rfact.name +
                                   "' has no mapping — not merged");
    }
  }

  size_t merged_member_rows = 0;
  for (const DimensionDef& dim : merged.schema().dimensions()) {
    DWQA_ASSIGN_OR_RETURN(const Table* dtab,
                          merged.DimensionTable(dim.name));
    merged_member_rows += dtab->row_count();
  }
  local_report.members_added = merged_member_rows - local_member_rows;

  if (report != nullptr) *report = std::move(local_report);
  return merged;
}

}  // namespace fed
}  // namespace dw
}  // namespace dwqa
