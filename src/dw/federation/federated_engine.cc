#include "dw/federation/federated_engine.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <utility>

#include "common/metric_names.h"
#include "common/string_util.h"
#include "dw/cost_estimator.h"
#include "dw/grouping.h"
#include "dw/materialized_view.h"

namespace dwqa {
namespace dw {
namespace fed {

namespace {

/// How one original group-by axis is reconstructed from a sub-result.
enum class AxisKind {
  kValue,            ///< Sub-result carries the value verbatim.
  kValueTranslated,  ///< Carried value, canonicalized through a member map.
  kSentinel,         ///< Axis absent remotely: the "(unattributed)" member.
  kNull,             ///< Level absent remotely: remote members are null.
};

struct AxisPlan {
  AxisKind kind = AxisKind::kValue;
  /// The dimension mapping whose member map canonicalizes remote base
  /// spellings (kValueTranslated only).
  const DimensionMapping* dim = nullptr;
};

/// One member warehouse's share of a federated query.
struct SubPlan {
  std::string name;
  /// 0 for the local member, i + 1 for remote i: whose chaos injector a
  /// read probes (the local one may be re-armed after planning).
  size_t member = 0;
  const Warehouse* warehouse = nullptr;
  OlapQuery subquery;
  std::vector<AxisPlan> axes;       ///< One per original group-by axis.
  std::vector<double> conversions;  ///< Per underlying measure, remote→local.
  /// Fact rows a conflict policy removed (null: none), shared with the
  /// plan's conflict resolution.
  std::shared_ptr<const std::set<size_t>> excluded;
  /// A filter proved this member's share empty: exact zero contribution,
  /// no sub-query dispatched.
  bool zero_contribution = false;
};

/// Runs one member's sub-query through the grouping kernel, shipping
/// finished AggStates rather than rendered rows. A conflict policy's
/// excluded rows exist only in the base facts, so such a member scans;
/// otherwise it is view-first (each member honors its own
/// materialized-view catalog) with a scan fallback.
Result<GroupedStates> RunSubquery(const SubPlan& plan) {
  if (plan.excluded == nullptr) {
    if (plan.warehouse->views() != nullptr) {
      Result<GroupedStates> from_view =
          plan.warehouse->views()->Group(plan.subquery);
      if (from_view.ok()) return from_view;
    }
    return GroupFacts(*plan.warehouse, plan.subquery);
  }
  return GroupFacts(*plan.warehouse, plan.subquery, *plan.excluded);
}

/// The merged spelling of remote base value `value` of mapped dimension
/// `dim`, as MergeWarehouses gives it: the member map's canonical spelling
/// when the map names the value, and then, when a local member matches
/// case-insensitively, that member's own spelling — the merge folds the
/// remote member into it, because AddMember and FindMember ignore case.
/// A remote-only value keeps its spelling.
const std::string& MergedSpelling(const Warehouse& local,
                                  const DimensionMapping& dim,
                                  const std::string& value) {
  const std::string* spelling = &value;
  auto mapped = dim.member_map.find(ToLower(value));
  if (mapped != dim.member_map.end()) spelling = &mapped->second;
  auto member = local.FindMember(dim.local_dimension, *spelling);
  if (!member.ok()) return *spelling;
  const LevelDictionary& base =
      local.Dictionary(*local.DimIndex(dim.local_dimension), 0);
  return base.values[base.of_member[static_cast<size_t>(*member)]];
}

/// At most this many query shapes keep a stored read (BiAnalysis reads
/// two).
constexpr size_t kMaxStoredReads = 16;

/// `rows` as a shared set that keeps `owner` alive, or null when empty.
std::shared_ptr<const std::set<size_t>> SharedRows(
    const std::shared_ptr<const ConflictResolution>& owner,
    const std::set<size_t>& rows) {
  if (rows.empty()) return nullptr;
  return std::shared_ptr<const std::set<size_t>>(owner, &rows);
}

}  // namespace

/// Everything a read does before it probes a member. It depends only on the
/// query, the policy, the member list and the members' stamps, so it is
/// stored with the read's groups and reused while none of them changed.
struct FederatedEngine::Plan {
  /// The local member's share first, then each addressable remote's.
  std::vector<SubPlan> subs;
  /// Remotes the query cannot address, in registration order, and whether
  /// each counts as a "skipped" sub-query.
  std::vector<std::pair<CoverageGap, bool>> gaps;
  /// What resolving each key-complete fact mapping found, counted per read.
  std::vector<ConflictStats> conflicts;
  size_t width = 0;          ///< Distinct underlying measures.
  std::vector<size_t> slots;  ///< Per query measure: its state column.
};

const char* CoverageName(const FederatedCoverage& coverage) {
  if (coverage.answered == 0) return "failed";
  return coverage.full() ? "full" : "partial";
}

FederatedEngine::FederatedEngine(const Warehouse* local,
                                 std::string local_name)
    : local_(local), local_name_(std::move(local_name)) {}

Status FederatedEngine::AddRemote(std::string name, const Warehouse* remote,
                                  SchemaMapping mapping,
                                  FaultInjector* chaos) {
  if (remote == nullptr) {
    return Status::InvalidArgument("remote warehouse must not be null");
  }
  if (EqualsIgnoreCase(name, local_name_)) {
    return Status::AlreadyExists("member name '" + name +
                                 "' collides with the local warehouse");
  }
  for (const Remote& r : remotes_) {
    if (EqualsIgnoreCase(r.name, name)) {
      return Status::AlreadyExists("member name '" + name +
                                   "' already registered");
    }
  }
  remotes_.push_back({std::move(name), remote, std::move(mapping), chaos});
  std::lock_guard<std::mutex> lock(reads_mu_);
  reads_.clear();
  return Status::OK();
}

void FederatedEngine::set_policy(MergePolicy policy) {
  std::lock_guard<std::mutex> lock(reads_mu_);
  policy_ = std::move(policy);
  reads_.clear();
}

std::pair<std::shared_ptr<const FederatedEngine::Plan>,
          std::shared_ptr<const FederatedGroups>>
FederatedEngine::FindRead(const OlapQuery& query,
                          const std::vector<uint64_t>& stamps) const {
  std::lock_guard<std::mutex> lock(reads_mu_);
  for (auto it = reads_.begin(); it != reads_.end(); ++it) {
    if (it->query != query) continue;
    if (it->stamps != stamps) break;
    std::rotate(reads_.begin(), it, it + 1);
    return {reads_.front().plan, reads_.front().groups};
  }
  return {};
}

void FederatedEngine::StoreRead(
    const OlapQuery& query, std::vector<uint64_t> stamps,
    std::shared_ptr<const Plan> plan,
    std::shared_ptr<const FederatedGroups> groups) const {
  std::lock_guard<std::mutex> lock(reads_mu_);
  auto it = std::find_if(reads_.begin(), reads_.end(),
                         [&](const StoredRead& r) { return r.query == query; });
  if (it == reads_.end()) {
    if (reads_.size() == kMaxStoredReads) reads_.pop_back();
    reads_.push_back({query, {}, nullptr, nullptr});
    it = reads_.end() - 1;
  }
  it->stamps = std::move(stamps);
  it->plan = std::move(plan);
  it->groups = std::move(groups);
  std::rotate(reads_.begin(), it, it + 1);
}

Result<FederatedResult> FederatedEngine::Execute(
    const OlapQuery& query) const {
  DWQA_ASSIGN_OR_RETURN(std::shared_ptr<const FederatedGroups> groups,
                        GroupShared(query));
  FederatedResult out;
  DWQA_ASSIGN_OR_RETURN(out.result,
                        Render(query, groups->grouped, groups->slots));
  out.coverage = groups->coverage;
  return out;
}

Result<std::shared_ptr<const FederatedEngine::Plan>> FederatedEngine::MakePlan(
    const OlapQuery& query) const {
  // Validate the query against the local schema (the federation's query
  // vocabulary), mirroring the OLAP engine's resolution errors.
  DWQA_ASSIGN_OR_RETURN(const FactDef* lfact,
                        local_->schema().FindFact(query.fact));
  DWQA_RETURN_NOT_OK(ValidateHaving(query));

  auto plan = std::make_shared<Plan>();
  // Distinct underlying measures, in first-mention order; every original
  // measure indexes into this list.
  std::vector<std::string> underlying;
  for (const QueryMeasure& qm : query.measures) {
    DWQA_RETURN_NOT_OK(lfact->MeasureIndex(qm.measure).status());
    size_t slot = underlying.size();
    for (size_t u = 0; u < underlying.size(); ++u) {
      if (EqualsIgnoreCase(underlying[u], qm.measure)) slot = u;
    }
    if (slot == underlying.size()) underlying.push_back(qm.measure);
    plan->slots.push_back(slot);
  }
  plan->width = underlying.size();
  // The axis/filter vocabulary must resolve locally too; `land` then says
  // how a local (role, level) lands on a remote member: on the sentinel
  // (no role), on nulls (no level) or on a mapped level, where a pair of
  // base levels carries member spellings the member map canonicalizes.
  struct Landing {
    const RoleMapping* role = nullptr;
    const DimensionMapping* dim = nullptr;
    const LevelMapping* level = nullptr;
    bool base_pair = false;
  };
  auto local_level = [&](const std::string& role, const std::string& level)
      -> Result<const DimensionDef*> {
    DWQA_ASSIGN_OR_RETURN(size_t ri, lfact->RoleIndex(role));
    DWQA_ASSIGN_OR_RETURN(
        const DimensionDef* dim,
        local_->schema().FindDimension(lfact->roles[ri].dimension));
    DWQA_RETURN_NOT_OK(dim->LevelIndex(level).status());
    return dim;
  };
  auto land = [&](const Remote& r, const FactMapping& fm,
                  const std::string& role,
                  const std::string& level) -> Result<Landing> {
    DWQA_ASSIGN_OR_RETURN(const DimensionDef* ld, local_level(role, level));
    Landing l;
    l.role = fm.FindLocalRole(role);
    if (l.role != nullptr) l.dim = r.mapping.FindLocalDimension(ld->name);
    if (l.dim == nullptr) return Landing{};
    l.level = l.dim->FindLocalLevel(level);
    if (l.level == nullptr) return l;
    DWQA_ASSIGN_OR_RETURN(
        const DimensionDef* rd,
        r.warehouse->schema().FindDimension(l.dim->remote_dimension));
    l.base_pair =
        EqualsIgnoreCase(level, ld->levels.front().name) &&
        EqualsIgnoreCase(l.level->remote_level, rd->levels.front().name);
    return l;
  };
  for (const GroupBy& g : query.group_by) {
    DWQA_RETURN_NOT_OK(local_level(g.role, g.level).status());
  }
  for (const Filter& f : query.filters) {
    DWQA_RETURN_NOT_OK(local_level(f.role, f.level).status());
  }

  // One sub-query measure per underlying measure: sub-queries ship whole
  // AggStates, so the aggregate function is only applied after the merge.
  auto state_measures = [](const std::vector<std::string>& names) {
    std::vector<QueryMeasure> measures;
    for (const std::string& name : names) measures.push_back({name});
    return measures;
  };

  SubPlan local_sub;
  local_sub.name = local_name_;
  local_sub.warehouse = local_;
  local_sub.subquery.fact = query.fact;
  local_sub.subquery.measures = state_measures(underlying);
  local_sub.subquery.group_by = query.group_by;
  local_sub.subquery.filters = query.filters;
  local_sub.axes.assign(query.group_by.size(), AxisPlan{});
  local_sub.conversions.assign(underlying.size(), 1.0);
  plan->subs.push_back(std::move(local_sub));

  for (size_t ri = 0; ri < remotes_.size(); ++ri) {
    const Remote& r = remotes_[ri];
    const FactMapping* fm = r.mapping.FindLocalFact(query.fact);
    if (fm == nullptr) {
      plan->gaps.push_back(
          {{r.name, "no schema mapping for fact '" + query.fact + "'"},
           true});
      continue;
    }
    SubPlan sub;
    sub.name = r.name;
    sub.member = ri + 1;
    sub.warehouse = r.warehouse;
    sub.subquery.fact = fm->remote_fact;
    std::vector<std::string> remote_measures;
    for (const std::string& name : underlying) {
      const MeasureMapping* mm = fm->FindLocalMeasure(name);
      // FactMapping guarantees every local measure maps; guarded anyway.
      if (mm == nullptr) break;
      remote_measures.push_back(mm->remote_measure);
      sub.conversions.push_back(mm->conversion);
    }
    if (remote_measures.size() != underlying.size()) {
      plan->gaps.push_back({{r.name, "a queried measure is not mapped"},
                            false});
      continue;
    }
    sub.subquery.measures = state_measures(remote_measures);

    for (const GroupBy& g : query.group_by) {
      DWQA_ASSIGN_OR_RETURN(Landing l, land(r, *fm, g.role, g.level));
      if (l.role == nullptr || l.level == nullptr) {
        sub.axes.push_back(
            {l.role == nullptr ? AxisKind::kSentinel : AxisKind::kNull});
        continue;
      }
      sub.subquery.group_by.push_back(
          {l.role->remote_role, l.level->remote_level});
      sub.axes.push_back({l.base_pair ? AxisKind::kValueTranslated
                                      : AxisKind::kValue,
                          l.base_pair ? l.dim : nullptr});
    }

    for (const Filter& f : query.filters) {
      if (sub.zero_contribution) break;
      DWQA_ASSIGN_OR_RETURN(Landing l, land(r, *fm, f.role, f.level));
      auto contains = [&](const std::string& needle) {
        for (const std::string& v : f.values) {
          if (EqualsIgnoreCase(v, needle)) return true;
        }
        return false;
      };
      if (l.role == nullptr) {
        // Every remote fact sits on the sentinel along this axis: the
        // filter either passes all remote rows or none of them.
        if (!contains(kUnattributedMember)) sub.zero_contribution = true;
        continue;
      }
      if (l.level == nullptr) {
        // Remote members are null at this level ("" after rendering).
        if (!contains("")) sub.zero_contribution = true;
        continue;
      }
      Filter translated{l.role->remote_role, l.level->remote_level, {}};
      if (!l.base_pair) {
        translated.values = f.values;  // Vocabularies agree above base.
      } else {
        for (const std::string& v : f.values) {
          // Remote spellings whose canonical local form is this value…
          for (const auto& [remote_lower, canonical] : l.dim->member_map) {
            if (EqualsIgnoreCase(canonical, v)) {
              translated.values.push_back(remote_lower);
            }
          }
          // …plus the value itself unless it is a remote spelling of a
          // *different* local member (then matching it would double count).
          if (!l.dim->member_map.count(ToLower(v))) {
            translated.values.push_back(v);
          }
        }
      }
      sub.subquery.filters.push_back(std::move(translated));
    }

    if (fm->key_complete) {
      DWQA_ASSIGN_OR_RETURN(
          ConflictResolution resolved,
          ResolveConflicts(*local_, *r.warehouse, r.mapping, *fm, policy_));
      resolved.quarantine.clear();  // The engine never routes them anywhere.
      auto resolution =
          std::make_shared<const ConflictResolution>(std::move(resolved));
      plan->conflicts.push_back(resolution->stats);
      sub.excluded = SharedRows(resolution, resolution->remote_excluded);
      // The local member skips the union of every remote's local
      // exclusions; a single contributor is shared, not copied.
      auto local_rows = SharedRows(resolution, resolution->local_excluded);
      std::shared_ptr<const std::set<size_t>>& local_excluded =
          plan->subs.front().excluded;
      if (local_excluded == nullptr) {
        local_excluded = std::move(local_rows);
      } else if (local_rows != nullptr) {
        auto rows = std::make_shared<std::set<size_t>>(*local_excluded);
        rows->insert(local_rows->begin(), local_rows->end());
        local_excluded = std::move(rows);
      }
    }
    plan->subs.push_back(std::move(sub));
  }

  return std::shared_ptr<const Plan>(std::move(plan));
}

Result<std::shared_ptr<const FederatedGroups>> FederatedEngine::GroupShared(
    const OlapQuery& query) const {
  if (local_ == nullptr) {
    return Status::InvalidArgument("federation has no local warehouse");
  }
  if (query.measures.empty()) {
    return Status::InvalidArgument("OLAP query needs at least one measure");
  }

  // The federation state this read answers: every member's stamp.
  std::vector<uint64_t> stamps = {local_->stamp()};
  for (const Remote& r : remotes_) stamps.push_back(r.warehouse->stamp());

  FederatedGroups out;
  auto count_subquery = [&](const std::string& member, const char* outcome) {
    if (metrics_ == nullptr) return;
    metrics_
        ->GetCounter(kMetricFedSubqueries,
                     {{"warehouse", member}, {"outcome", outcome}})
        ->Increment();
  };
  Span plan_span(trace_, "fed.plan");
  plan_span.Annotate("fact", query.fact);
  plan_span.Annotate("members",
                     static_cast<double>(1 + remotes_.size()));

  // ---- Plan: the stored read's at these stamps, or planned afresh.
  auto [plan, stored] = FindRead(query, stamps);
  if (plan == nullptr) {
    DWQA_ASSIGN_OR_RETURN(plan, MakePlan(query));
  }
  out.coverage.warehouses_total = 1 + remotes_.size();
  for (const auto& [gap, skipped] : plan->gaps) {
    out.coverage.missing.push_back(gap);
    if (skipped) count_subquery(gap.warehouse, "skipped");
  }
  // Conflicts are counted per read, as if resolved afresh.
  if (metrics_ != nullptr) {
    const std::string policy_name = ConflictPolicyName(policy_.conflicts);
    auto bump = [&](const char* resolved, size_t n) {
      if (n == 0) return;
      metrics_
          ->GetCounter(kMetricFedConflicts,
                       {{"policy", policy_name}, {"resolution", resolved}})
          ->Increment(static_cast<double>(n));
    };
    for (const ConflictStats& stats : plan->conflicts) {
      bump("deduplicated", stats.deduplicated_rows);
      bump("quarantined", stats.quarantined_rows);
      if (policy_.conflicts != ConflictPolicy::kQuarantine) {
        bump("remote", stats.remote_rows_dropped);
        bump("local", stats.local_rows_dropped);
      }
    }
  }
  if (trace_ != nullptr) {
    CostEstimator estimator;
    for (const SubPlan& sub : plan->subs) {
      auto estimate = estimator.Estimate(*sub.warehouse, sub.subquery);
      if (estimate.ok()) {
        plan_span.Annotate(sub.name + ".cost_units", estimate->cost_units);
      }
    }
  }

  // ---- Probes: each member's chaos injector, serially (injectors are not
  // thread-safe) and in plan order on every read, reused or not, so fault
  // streams and coverage do not depend on what the engine stored.
  std::vector<const SubPlan*> live;
  bool lost_member = false;
  for (const SubPlan& sub : plan->subs) {
    if (sub.zero_contribution) {
      // The translated filter proved this member's share empty: exact.
      ++out.coverage.answered;
      count_subquery(sub.name, "skipped");
      continue;
    }
    FaultInjector* chaos =
        sub.member == 0 ? local_chaos_ : remotes_[sub.member - 1].chaos;
    if (chaos != nullptr) {
      Status chaos_status;
      {
        std::lock_guard<std::mutex> lock(chaos_mu_);
        chaos_status = chaos->Hit(kFaultPointFedSubquery);
      }
      if (!chaos_status.ok()) {
        out.coverage.missing.push_back({sub.name, chaos_status.message()});
        count_subquery(sub.name, "error");
        lost_member = true;
        continue;
      }
    }
    live.push_back(&sub);
  }

  // ---- Reuse: every member is reachable and none changed since this
  // query was last answered without losing a member, so that answer is
  // this one.
  if (!lost_member && stored != nullptr) {
    for (const SubPlan* sub : live) count_subquery(sub->name, "reused");
    if (metrics_ != nullptr) {
      metrics_
          ->GetCounter(kMetricFedQueries,
                       {{"coverage", CoverageName(stored->coverage)}})
          ->Increment();
    }
    plan_span.Annotate("reused", 1.0);
    return stored;
  }
  plan_span.End();

  // ---- Fan-out: dispatch the probed sub-queries on the pool. Workers
  // receive no recorder and no injector.
  Span fanout_span(trace_, "fed.fanout");
  struct Dispatched {
    const SubPlan* sub;
    std::future<Result<GroupedStates>> future;
  };
  std::vector<Dispatched> dispatched;
  for (const SubPlan* sub : live) {
    Histogram* latency =
        metrics_ == nullptr
            ? nullptr
            : metrics_->GetHistogram(kMetricFedSubqueryLatency,
                                     {{"warehouse", sub->name}});
    auto task = [sub, latency]() -> Result<GroupedStates> {
      ScopedLatencyTimer timer(latency);
      return RunSubquery(*sub);
    };
    Dispatched d{sub, pool_ != nullptr
                           ? pool_->Submit(task)
                           : std::async(std::launch::deferred, task)};
    dispatched.push_back(std::move(d));
  }

  std::vector<std::pair<const SubPlan*, GroupedStates>> sub_results;
  for (Dispatched& d : dispatched) {
    Result<GroupedStates> result = d.future.get();
    if (!result.ok()) {
      out.coverage.missing.push_back(
          {d.sub->name, result.status().message()});
      count_subquery(d.sub->name, "error");
      lost_member = true;
      continue;
    }
    ++out.coverage.answered;
    count_subquery(d.sub->name, "ok");
    sub_results.emplace_back(d.sub, std::move(*result));
  }
  fanout_span.Annotate("answered",
                       static_cast<double>(out.coverage.answered));
  fanout_span.Annotate("missing",
                       static_cast<double>(out.coverage.missing.size()));
  fanout_span.End();

  if (out.coverage.answered == 0) {
    if (metrics_ != nullptr) {
      metrics_
          ->GetCounter(kMetricFedQueries, {{"coverage", "failed"}})
          ->Increment();
    }
    std::string reasons;
    for (const CoverageGap& gap : out.coverage.missing) {
      if (!reasons.empty()) reasons += "; ";
      reasons += gap.warehouse + ": " + gap.reason;
    }
    return Status::Unavailable("federation: no member could answer (" +
                               reasons + ")");
  }

  // ---- Merge: translate each sub-result's distinct values into one merged
  // dictionary per axis (remote base spellings canonicalized through the
  // member map and the local members once per value, not once per row),
  // convert remote units, and fold with AggState::Merge — the exact
  // arithmetic a single-warehouse scan would have run. Sub-results arrive
  // sorted, so groups that canonicalize together fold in rendered-key
  // order.
  Span merge_span(trace_, "fed.merge");
  Histogram* merge_latency =
      metrics_ == nullptr
          ? nullptr
          : metrics_->GetHistogram(kMetricFedMergeLatency);
  size_t groups_merged = 0;
  {
    ScopedLatencyTimer merge_timer(merge_latency);
    const size_t arity = query.group_by.size();
    std::vector<LevelDictionary> names(arity);  // of_member unused.
    OrdinalGroups merged(arity, plan->width);
    std::vector<uint32_t> key(arity);
    size_t facts_scanned = 0, facts_matched = 0;
    for (const auto& [from, sub] : sub_results) {
      facts_scanned += sub.facts_scanned;
      facts_matched += sub.facts_matched;
      // Per query axis: the merged ordinal of each of the sub-result's
      // values, or of the one constant an absent axis contributes.
      std::vector<std::vector<uint32_t>> translated(arity);
      std::vector<size_t> sub_axis(arity, SIZE_MAX);
      size_t pos = 0;
      for (size_t a = 0; a < arity; ++a) {
        const AxisPlan& axis = from->axes[a];
        if (axis.kind == AxisKind::kSentinel ||
            axis.kind == AxisKind::kNull) {
          translated[a].push_back(names[a].Intern(
              axis.kind == AxisKind::kSentinel ? kUnattributedMember : ""));
          continue;
        }
        sub_axis[a] = pos;
        for (const std::string& v : sub.values[pos]) {
          translated[a].push_back(names[a].Intern(
              axis.kind == AxisKind::kValueTranslated
                  ? MergedSpelling(*local_, *axis.dim, v)
                  : v));
        }
        ++pos;
      }
      const size_t sub_arity = sub.values.size();
      for (size_t g = 0; g < sub.size(); ++g) {
        for (size_t a = 0; a < arity; ++a) {
          key[a] = sub_axis[a] == SIZE_MAX
                       ? translated[a][0]
                       : translated[a][sub.keys[g * sub_arity + sub_axis[a]]];
        }
        AggState* states = merged.Upsert(key.data());
        for (size_t u = 0; u < plan->width; ++u) {
          AggState st = sub.states[g * sub.width + u];
          if (st.count == 0) continue;  // Empty share, nothing to fold.
          double conv = from->conversions[u];
          st.sum *= conv;
          st.min *= conv;
          st.max *= conv;
          states[u].Merge(st);
        }
        ++groups_merged;
      }
    }
    std::vector<const std::vector<std::string>*> name_ptrs;
    for (const LevelDictionary& dict : names) name_ptrs.push_back(&dict.values);
    out.grouped = Finish(merged, name_ptrs);
    out.grouped.facts_scanned = facts_scanned;
    out.grouped.facts_matched = facts_matched;
    out.slots = plan->slots;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter(kMetricFedGroupsMerged)
        ->Increment(static_cast<double>(groups_merged));
    metrics_
        ->GetCounter(kMetricFedQueries,
                     {{"coverage", CoverageName(out.coverage)}})
        ->Increment();
  }
  merge_span.Annotate("groups", static_cast<double>(out.grouped.size()));
  merge_span.Annotate("coverage", CoverageName(out.coverage));
  merge_span.End();
  auto merged = std::make_shared<const FederatedGroups>(std::move(out));
  // A read that lost a member is not this state's answer: never stored.
  if (!lost_member) {
    StoreRead(query, std::move(stamps), std::move(plan), merged);
  }
  return merged;
}

}  // namespace fed
}  // namespace dw
}  // namespace dwqa
