#ifndef DWQA_DW_MATERIALIZED_VIEW_H_
#define DWQA_DW_MATERIALIZED_VIEW_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/trace.h"
#include "dw/grouping.h"
#include "dw/olap.h"

namespace dwqa {
namespace dw {

/// \brief Definition of one materialized OLAP view: a cube slice of one
/// fact, grouped at fixed hierarchy levels, covering a set of measures.
///
/// A view materializes the *aggregation state* (sum/min/max/count per
/// group), not a finished result, so one view answers SUM, COUNT, AVG, MIN
/// and MAX over any covered measure — and any HAVING predicate — without
/// touching base facts.
struct ViewDefinition {
  /// Unique catalog key ("LastMinuteSales/destination.City+date.Date").
  std::string name;
  /// The fact this view aggregates.
  std::string fact;
  /// Grouping axes, in query order (a query matches only with the same
  /// axis sequence).
  std::vector<GroupBy> group_by;
  /// Covered measure names. Empty covers every measure of the fact.
  std::vector<std::string> measures;
};

/// Derives the view set from the multidimensional schema itself (after
/// Pardillo & Mazón's ontology-driven design): one single-axis view per
/// (role, hierarchy level) of every fact, plus two-axis dashboard slices
/// pairing *conformed* levels — levels that recur across dimensions, or
/// belong to a dimension shared by several facts (City, Date in the flight
/// schema). The conformed levels are exactly where BI dashboards join, so
/// they are where precomputation pays.
std::vector<ViewDefinition> DeriveViewsFromSchema(const MdSchema& schema);

/// Summary of one bound view (introspection for tests/benches/health).
struct ViewStats {
  std::string name;
  std::string fact;
  size_t groups = 0;          ///< Materialized groups.
  size_t facts_absorbed = 0;  ///< Fact rows folded into the state.
};

/// \brief The catalog of materialized views attached to one Warehouse.
///
/// Lifecycle: Define() the view set (no warehouse needed — recovery defines
/// views before any fact exists), Warehouse::AttachViews(), then Bind() to
/// resolve every definition against the schema and rebuild state from the
/// facts already loaded. From then on Warehouse::InsertFact routes every
/// appended fact through OnFactInserted (delta-based incremental
/// maintenance), so Answer() is always as fresh as the fact tables.
///
/// Thread-safety: a single catalog-wide shared_mutex makes readers
/// snapshot-consistent — Answer()/EstimateGroups()/StatsSnapshot() take it
/// shared and observe a fact-aligned state; OnFactInserted/Bind take it
/// exclusive and apply each fact's delta to every view atomically. The
/// `views` ctest label races concurrent BI reads against maintenance under
/// TSan to pin this contract.
///
/// The catalog never points back at its warehouse (every operation that
/// needs one takes it as a parameter), so the warehouse can be moved freely
/// — Recovery::Open moves it several times — while the attach pointer
/// travels along.
class ViewCatalog {
 public:
  ViewCatalog();
  ~ViewCatalog();
  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Records a definition (unresolved). Fails on a duplicate name or an
  /// empty fact/axis list.
  Status Define(ViewDefinition def);

  /// Define() for a whole derived set.
  Status DefineAll(std::vector<ViewDefinition> defs);

  /// Resolves every definition against `wh`'s schema and rebuilds all view
  /// state from the facts currently loaded — the from-scratch path that
  /// bootstraps a catalog and that recovery uses after loading a snapshot.
  /// Idempotent: a re-Bind discards and rebuilds.
  Status Bind(const Warehouse& wh);

  /// Define + Bind of one extra view against an already-bound warehouse.
  Status Register(const Warehouse& wh, ViewDefinition def);

  /// Answers `query` from a matching view, byte-identical to
  /// OlapEngine::Execute on the same warehouse: the view's ordinal-keyed
  /// states go through the same Finish() (groups sorted by their rendered
  /// key) and Render() (HAVING, AggState::Finish) as a recompute, with the
  /// same facts_scanned/facts_matched. NotFound when no view covers the
  /// query (callers fall back to a recompute); queries with filters always
  /// miss (slices need base facts).
  Result<OlapResult> Answer(const OlapQuery& query) const;

  /// Answer() before rendering: the matching view's finished states, one
  /// column per query measure. The federation ships these instead of
  /// rendered rows.
  Result<GroupedStates> Group(const OlapQuery& query) const;

  /// Group cardinality of the view that would answer `query` — the
  /// cost estimator's rows-touched figure. NotFound when no view matches.
  Result<size_t> EstimateGroups(const OlapQuery& query) const;

  /// Incremental maintenance hook, called by Warehouse::InsertFact after
  /// the fact row is appended: folds the fact's delta into every view of
  /// `fact_index`, under the exclusive lock (one span `view.maintain` per
  /// fact when a trace recorder is set).
  Status OnFactInserted(const Warehouse& wh, size_t fact_index,
                        const std::vector<MemberId>& member_per_role,
                        const std::vector<Value>& measures);

  /// \name Introspection
  /// @{
  size_t view_count() const;
  std::vector<ViewStats> StatsSnapshot() const;
  /// Total per-view delta applications since construction.
  uint64_t maintenance_updates() const;
  /// @}

  /// Receives the dwqa_view_* series (null = observability off).
  void set_metrics(MetricRegistry* metrics);
  /// Trace recorder for `view.maintain` spans (null = tracing off). The
  /// Step-5 feed points this at the per-question recorder while it loads.
  void set_trace_recorder(TraceRecorder* trace);

 private:
  struct BoundView;

  /// Resolves `def` against the schema into a bound view with empty state.
  Result<std::unique_ptr<BoundView>> Resolve(const Warehouse& wh,
                                             const ViewDefinition& def) const;
  /// The grouping kernel's scan of the view's fact table into its
  /// aggregation state.
  Status RebuildOne(const Warehouse& wh, BoundView* view) const;
  /// The bound view matching `query`, or null. Caller holds `mu_`.
  const BoundView* Match(const OlapQuery& query) const;

  mutable std::shared_mutex mu_;
  std::vector<ViewDefinition> definitions_;
  std::vector<std::unique_ptr<BoundView>> views_;  ///< Empty until Bind().
  uint64_t maintenance_updates_ = 0;
  MetricRegistry* metrics_ = nullptr;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_MATERIALIZED_VIEW_H_
