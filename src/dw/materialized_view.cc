#include "dw/materialized_view.h"

#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/metric_names.h"
#include "common/string_util.h"

namespace dwqa {
namespace dw {

/// \brief One resolved view: the definition bound to schema indexes plus
/// the materialized aggregation state.
///
/// The state is the grouping kernel's (dw/grouping.h): AggStates keyed by
/// the ordinals of the warehouse's level dictionaries, folded through the
/// same AggState::Add as a recompute. Answer() finishes and renders it with
/// the kernel's Finish() and Render(), which is what makes a view answer
/// byte-identical to a recompute.
struct ViewCatalog::BoundView {
  ViewDefinition def;
  size_t fact_index = 0;      ///< Index into schema().facts().
  struct Axis {
    size_t role_index = 0;    ///< Role position == fk column of the fact table.
    size_t dim_index = 0;     ///< Dimension the role references.
    size_t level_index = 0;   ///< Hierarchy level this axis groups at.
    /// The level dictionary's values up to the highest ordinal absorbed —
    /// the view's own copy, as the catalog never points back at its
    /// warehouse.
    std::vector<std::string> names;
  };
  std::vector<Axis> axes;
  /// Covered measures: lowercased name -> slot in `measure_slots`.
  std::unordered_map<std::string, size_t> measure_slot_by_name;
  /// Slot -> measure position within the fact's measure list.
  std::vector<size_t> measure_slots;
  /// One AggState per covered measure slot, keyed by level ordinals.
  OrdinalGroups groups;
  size_t facts_absorbed = 0;
};

namespace {

std::string ViewName(const std::string& fact,
                     const std::vector<GroupBy>& axes) {
  std::string name = fact + "/";
  for (size_t i = 0; i < axes.size(); ++i) {
    if (i > 0) name += "+";
    name += axes[i].role + "." + axes[i].level;
  }
  return name;
}

}  // namespace

std::vector<ViewDefinition> DeriveViewsFromSchema(const MdSchema& schema) {
  // Conformed levels: a level name recurring across dimensions, or any
  // level of a dimension referenced by roles of more than one fact. These
  // are the join points of the star schema — the axes dashboards group on.
  std::unordered_map<std::string, std::set<std::string>> dims_per_level;
  for (const DimensionDef& dim : schema.dimensions()) {
    for (const LevelDef& level : dim.levels) {
      dims_per_level[ToLower(level.name)].insert(ToLower(dim.name));
    }
  }
  std::unordered_map<std::string, std::set<std::string>> facts_per_dim;
  for (const FactDef& fact : schema.facts()) {
    for (const DimRole& role : fact.roles) {
      facts_per_dim[ToLower(role.dimension)].insert(ToLower(fact.name));
    }
  }
  auto conformed = [&](const std::string& dimension,
                       const std::string& level) {
    if (dims_per_level[ToLower(level)].size() >= 2) return true;
    return facts_per_dim[ToLower(dimension)].size() >= 2;
  };

  std::vector<ViewDefinition> views;
  for (const FactDef& fact : schema.facts()) {
    // Single-axis views: every (role, hierarchy level) — the roll-up
    // ladder of each dimension, precomputed at every rung.
    for (const DimRole& role : fact.roles) {
      auto dim = schema.FindDimension(role.dimension);
      if (!dim.ok()) continue;  // Validate() rejects this schema anyway.
      for (const LevelDef& level : (*dim)->levels) {
        ViewDefinition def;
        def.fact = fact.name;
        def.group_by = {{role.role, level.name}};
        def.name = ViewName(fact.name, def.group_by);
        views.push_back(std::move(def));
      }
    }
    // Two-axis dashboard slices: pairs of roles at conformed levels
    // (City × Date and friends) — exactly the shapes the BI layer joins.
    for (size_t i = 0; i < fact.roles.size(); ++i) {
      for (size_t j = i + 1; j < fact.roles.size(); ++j) {
        const DimRole& a = fact.roles[i];
        const DimRole& b = fact.roles[j];
        auto dim_a = schema.FindDimension(a.dimension);
        auto dim_b = schema.FindDimension(b.dimension);
        if (!dim_a.ok() || !dim_b.ok()) continue;
        for (const LevelDef& la : (*dim_a)->levels) {
          if (!conformed(a.dimension, la.name)) continue;
          for (const LevelDef& lb : (*dim_b)->levels) {
            if (!conformed(b.dimension, lb.name)) continue;
            ViewDefinition def;
            def.fact = fact.name;
            def.group_by = {{a.role, la.name}, {b.role, lb.name}};
            def.name = ViewName(fact.name, def.group_by);
            views.push_back(std::move(def));
          }
        }
      }
    }
  }
  return views;
}

ViewCatalog::ViewCatalog() = default;
ViewCatalog::~ViewCatalog() = default;

Status ViewCatalog::Define(ViewDefinition def) {
  if (def.fact.empty()) {
    return Status::InvalidArgument("view definition needs a fact");
  }
  if (def.group_by.empty()) {
    return Status::InvalidArgument("view '" + def.name +
                                   "' needs at least one grouping axis");
  }
  if (def.name.empty()) def.name = ViewName(def.fact, def.group_by);
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const ViewDefinition& existing : definitions_) {
    if (EqualsIgnoreCase(existing.name, def.name)) {
      return Status::AlreadyExists("view '" + def.name + "' already defined");
    }
  }
  definitions_.push_back(std::move(def));
  return Status::OK();
}

Status ViewCatalog::DefineAll(std::vector<ViewDefinition> defs) {
  for (ViewDefinition& def : defs) {
    DWQA_RETURN_NOT_OK(Define(std::move(def)));
  }
  return Status::OK();
}

Result<std::unique_ptr<ViewCatalog::BoundView>> ViewCatalog::Resolve(
    const Warehouse& wh, const ViewDefinition& def) const {
  auto view = std::make_unique<BoundView>();
  view->def = def;
  DWQA_ASSIGN_OR_RETURN(view->fact_index, wh.FactIndex(def.fact));
  const FactDef& fact = wh.schema().facts()[view->fact_index];
  for (const GroupBy& g : def.group_by) {
    BoundView::Axis axis;
    DWQA_ASSIGN_OR_RETURN(axis.role_index, fact.RoleIndex(g.role));
    DWQA_ASSIGN_OR_RETURN(axis.dim_index,
                          wh.DimIndex(fact.roles[axis.role_index].dimension));
    DWQA_ASSIGN_OR_RETURN(
        axis.level_index,
        wh.schema().dimensions()[axis.dim_index].LevelIndex(g.level));
    view->axes.push_back(std::move(axis));
  }
  std::vector<std::string> covered = def.measures;
  if (covered.empty()) {
    for (const MeasureDef& m : fact.measures) covered.push_back(m.name);
  }
  for (const std::string& name : covered) {
    DWQA_ASSIGN_OR_RETURN(size_t mi, fact.MeasureIndex(name));
    std::string key = ToLower(name);
    if (view->measure_slot_by_name.count(key)) continue;
    view->measure_slot_by_name.emplace(std::move(key),
                                       view->measure_slots.size());
    view->measure_slots.push_back(mi);
  }
  if (view->measure_slots.empty()) {
    return Status::InvalidArgument("view '" + def.name +
                                   "' covers no measures");
  }
  return view;
}

Status ViewCatalog::RebuildOne(const Warehouse& wh, BoundView* view) const {
  // The kernel's scan over the view's axes and covered measures.
  const FactDef& fact = wh.schema().facts()[view->fact_index];
  OlapQuery scan_query;
  scan_query.fact = fact.name;
  scan_query.group_by = view->def.group_by;
  for (size_t mi : view->measure_slots) {
    scan_query.measures.push_back({fact.measures[mi].name});
  }
  DWQA_ASSIGN_OR_RETURN(FactScan scan, ScanFacts(wh, scan_query));
  view->groups = std::move(scan.groups);
  view->facts_absorbed = scan.facts_scanned;
  for (size_t a = 0; a < view->axes.size(); ++a) {
    view->axes[a].names = *scan.names[a];
  }
  return Status::OK();
}

Status ViewCatalog::Bind(const Warehouse& wh) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<std::unique_ptr<BoundView>> bound;
  for (const ViewDefinition& def : definitions_) {
    DWQA_ASSIGN_OR_RETURN(std::unique_ptr<BoundView> view, Resolve(wh, def));
    DWQA_RETURN_NOT_OK(RebuildOne(wh, view.get()));
    bound.push_back(std::move(view));
  }
  views_ = std::move(bound);
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter(kMetricViewRebuilds, {},
                     "Full rebuild scans of the view catalog (Bind/recovery)")
        ->Increment();
    metrics_
        ->GetGauge(kMetricViewCount, {}, "Views currently bound")
        ->Set(static_cast<double>(views_.size()));
    size_t groups = 0;
    for (const auto& view : views_) groups += view->groups.size();
    metrics_
        ->GetGauge(kMetricViewGroups, {},
                   "Aggregate groups materialized across all views")
        ->Set(static_cast<double>(groups));
  }
  return Status::OK();
}

Status ViewCatalog::Register(const Warehouse& wh, ViewDefinition def) {
  DWQA_RETURN_NOT_OK(Define(def));
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (def.name.empty()) def.name = ViewName(def.fact, def.group_by);
  DWQA_ASSIGN_OR_RETURN(std::unique_ptr<BoundView> view, Resolve(wh, def));
  DWQA_RETURN_NOT_OK(RebuildOne(wh, view.get()));
  views_.push_back(std::move(view));
  if (metrics_ != nullptr) {
    metrics_->GetGauge(kMetricViewCount, {}, "Views currently bound")
        ->Set(static_cast<double>(views_.size()));
  }
  return Status::OK();
}

const ViewCatalog::BoundView* ViewCatalog::Match(
    const OlapQuery& query) const {
  // Filters need base facts; views keep only aggregation state.
  if (!query.filters.empty()) return nullptr;
  if (query.measures.empty()) return nullptr;  // Execute's error path.
  for (const auto& view : views_) {
    if (!EqualsIgnoreCase(view->def.fact, query.fact)) continue;
    if (view->axes.size() != query.group_by.size()) continue;
    bool axes_match = true;
    for (size_t i = 0; i < view->axes.size(); ++i) {
      if (!EqualsIgnoreCase(query.group_by[i].role,
                            view->def.group_by[i].role) ||
          !EqualsIgnoreCase(query.group_by[i].level,
                            view->def.group_by[i].level)) {
        axes_match = false;
        break;
      }
    }
    if (!axes_match) continue;
    bool covered = true;
    for (const QueryMeasure& qm : query.measures) {
      if (!view->measure_slot_by_name.count(ToLower(qm.measure))) {
        covered = false;
        break;
      }
    }
    if (covered) return view.get();
  }
  return nullptr;
}

Result<GroupedStates> ViewCatalog::Group(const OlapQuery& query) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const BoundView* view = Match(query);
  if (view == nullptr) {
    if (metrics_ != nullptr) {
      metrics_
          ->GetCounter(kMetricViewMisses, {},
                       "View lookups that missed (recompute fallback)")
          ->Increment();
    }
    return Status::NotFound("no materialized view covers the query over '" +
                            query.fact + "'");
  }
  // Mirror Execute's HAVING validation so a matched-but-malformed query
  // fails identically on both paths.
  DWQA_RETURN_NOT_OK(ValidateHaving(query));
  std::vector<const std::vector<std::string>*> names;
  for (const BoundView::Axis& axis : view->axes) names.push_back(&axis.names);
  // Slot of each query measure within the view's state vector.
  std::vector<size_t> slots;
  for (const QueryMeasure& qm : query.measures) {
    slots.push_back(view->measure_slot_by_name.at(ToLower(qm.measure)));
  }
  GroupedStates grouped = Finish(view->groups, names, slots);
  // Every absorbed fact was scanned and (with no filters) matched —
  // identical to a full recompute over the same fact table.
  grouped.facts_scanned = view->facts_absorbed;
  grouped.facts_matched = view->facts_absorbed;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter(kMetricViewReads, {{"view", view->def.name}},
                     "Queries answered from a matching materialized view")
        ->Increment();
  }
  return grouped;
}

Result<OlapResult> ViewCatalog::Answer(const OlapQuery& query) const {
  DWQA_ASSIGN_OR_RETURN(GroupedStates grouped, Group(query));
  return Render(query, grouped);
}

Result<size_t> ViewCatalog::EstimateGroups(const OlapQuery& query) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const BoundView* view = Match(query);
  if (view == nullptr) {
    return Status::NotFound("no materialized view covers the query over '" +
                            query.fact + "'");
  }
  return view->groups.size();
}

Status ViewCatalog::OnFactInserted(const Warehouse& wh, size_t fact_index,
                                   const std::vector<MemberId>& member_per_role,
                                   const std::vector<Value>& measures) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (views_.empty()) return Status::OK();  // Not bound yet.
  Histogram* latency =
      metrics_ != nullptr
          ? metrics_->GetHistogram(
                kMetricViewMaintainLatency, {}, {},
                "Per-fact incremental maintenance latency across all views")
          : nullptr;
  ScopedLatencyTimer timer(latency);
  Span span(trace_, "view.maintain");
  size_t touched = 0;
  std::vector<uint32_t> key;
  for (const auto& view : views_) {
    if (view->fact_index != fact_index) continue;
    key.resize(view->axes.size());
    for (size_t a = 0; a < view->axes.size(); ++a) {
      BoundView::Axis& axis = view->axes[a];
      const LevelDictionary& dict =
          wh.Dictionary(axis.dim_index, axis.level_index);
      key[a] = dict.of_member[member_per_role[axis.role_index]];
      // A value the view has not seen yet: extend its copy of the names.
      while (axis.names.size() <= key[a]) {
        axis.names.push_back(dict.values[axis.names.size()]);
      }
    }
    AggState* states = view->groups.Upsert(key.data());
    for (size_t s = 0; s < view->measure_slots.size(); ++s) {
      states[s].Add(measures[view->measure_slots[s]].ToDouble());
    }
    ++view->facts_absorbed;
    ++touched;
  }
  maintenance_updates_ += touched;
  span.Annotate("views", static_cast<double>(touched));
  if (metrics_ != nullptr && touched > 0) {
    metrics_
        ->GetCounter(kMetricViewMaintenanceUpdates, {},
                     "Per-view delta applications (one per view touched "
                     "per inserted fact)")
        ->Increment(static_cast<double>(touched));
  }
  return Status::OK();
}

size_t ViewCatalog::view_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return views_.empty() ? definitions_.size() : views_.size();
}

std::vector<ViewStats> ViewCatalog::StatsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ViewStats> stats;
  for (const auto& view : views_) {
    ViewStats s;
    s.name = view->def.name;
    s.fact = view->def.fact;
    s.groups = view->groups.size();
    s.facts_absorbed = view->facts_absorbed;
    stats.push_back(std::move(s));
  }
  return stats;
}

uint64_t ViewCatalog::maintenance_updates() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return maintenance_updates_;
}

void ViewCatalog::set_metrics(MetricRegistry* metrics) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  metrics_ = metrics;
}

void ViewCatalog::set_trace_recorder(TraceRecorder* trace) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  trace_ = trace;
}

}  // namespace dw
}  // namespace dwqa
