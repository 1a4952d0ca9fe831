#ifndef DWQA_DW_FEDERATION_FEDERATED_ENGINE_H_
#define DWQA_DW_FEDERATION_FEDERATED_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dw/federation/merge_warehouses.h"
#include "dw/federation/schema_mapping.h"
#include "dw/grouping.h"
#include "dw/olap.h"
#include "dw/warehouse.h"

namespace dwqa {
namespace dw {
namespace fed {

/// \file federated_engine.h
/// \brief Query-time federation: plan a BI query against the schema
/// mappings, fan per-warehouse sub-queries out on the ThreadPool, merge
/// the partial aggregates with the shared AggState arithmetic.
///
/// Each sub-query ships the *aggregation state* (sum/count/min/max per
/// group and measure) rather than finished values, so the merged answer is
/// byte-identical to the same query over the MergeWarehouses oracle — the
/// same split/merge identity the materialized views rely on, stretched
/// across warehouses. Per-warehouse failures (chaos or real) degrade into
/// a typed partial-coverage annotation instead of an error; only the loss
/// of every member warehouse fails the query.

/// \brief One member warehouse that could not contribute to an answer.
struct CoverageGap {
  std::string warehouse;  ///< Member name ("local", "partner", ...).
  std::string reason;     ///< Human-readable failure reason.
};

/// \brief Which member warehouses an answer actually covers.
struct FederatedCoverage {
  size_t warehouses_total = 0;  ///< Members the plan addressed.
  size_t answered = 0;          ///< Members whose share is exact.
  std::vector<CoverageGap> missing;  ///< The members that are not.

  /// True when every member contributed.
  bool full() const { return answered == warehouses_total; }
};

/// "full", "partial", or "failed" (nothing answered).
const char* CoverageName(const FederatedCoverage& coverage);

/// \brief A federated answer: the merged OLAP result plus its coverage.
struct FederatedResult {
  OlapResult result;            ///< Merged rows, oracle-identical shape.
  FederatedCoverage coverage;   ///< Which members the rows cover.
};

/// \brief A federated answer before rendering: the merged groups, which
/// state column each query measure reads, and the coverage.
/// Render(query, grouped, slots) is FederatedResult::result.
struct FederatedGroups {
  GroupedStates grouped;       ///< Merged groups, in rendered-key order.
  std::vector<size_t> slots;   ///< Per query measure: its state column.
  FederatedCoverage coverage;  ///< Which members the groups cover.
};

/// \brief The federation planner/executor over one local warehouse and any
/// number of mapped remote warehouses.
///
/// A query is answered once per federation state. The engine stores, for
/// the last few query shapes, the read's plan (sub-queries, the conflict
/// policy's exclusions and counts, structural coverage gaps) beside its
/// merged groups, under the Warehouse::stamp() of the local and of every
/// remote member. A read looks its query up at the current stamps and plans,
/// resolving conflicts, only when no entry matches. It then counts and
/// probes each member's chaos injector in plan order; when every probe
/// passes and an entry matched, the stored groups are returned, with no
/// sub-query and no merge. A read that lost a member (chaos or a failed
/// sub-query) runs off a matching entry's plan but is never stored.
/// set_policy() and AddRemote() drop every entry.
///
/// Thread-safety: GroupShared/Execute are const and safe to call
/// concurrently (chaos injectors are probed, and the store is read and
/// filled, under internal mutexes; metrics instruments are lock-free;
/// sub-queries go through the view catalogs' shared locks; a stored plan
/// and its groups are immutable and shared). The trace recorder is the
/// exception — TraceRecorder parenting assumes one logical flow of control,
/// so set one only where Execute calls are serialized (the serving layer
/// holds its tenant lock) and leave it null for concurrent use. Pool
/// workers never touch the recorder or the injectors.
class FederatedEngine {
 public:
  /// Engine over `local` (not owned, must outlive the engine), reported in
  /// coverage under `local_name`.
  explicit FederatedEngine(const Warehouse* local,
                           std::string local_name = "local");

  /// Registers a remote member warehouse (not owned) under `name`, reached
  /// through `mapping` (local→remote). `chaos` (optional, not owned) is
  /// probed at `fed.subquery` before each dispatch — NOT thread-safe by
  /// itself, so the engine serializes all probes internally. Drops every
  /// stored answer.
  Status AddRemote(std::string name, const Warehouse* remote,
                   SchemaMapping mapping, FaultInjector* chaos = nullptr);

  /// Arms a chaos injector on the local member as well.
  void set_local_chaos(FaultInjector* chaos) { local_chaos_ = chaos; }

  /// Pool the sub-queries fan out on (null = inline, serial execution).
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Receives the dwqa_fed_* series (null = observability off).
  void set_metrics(MetricRegistry* metrics) { metrics_ = metrics; }

  /// Recorder for `fed.plan` / `fed.fanout` / `fed.merge` spans. See the
  /// class comment: only safe when Execute calls are serialized.
  void set_trace_recorder(TraceRecorder* trace) { trace_ = trace; }

  /// Conflict policy applied to key-complete fact mappings at query time —
  /// keep it equal to the MergeWarehouses policy for oracle identity.
  /// Drops every stored read.
  void set_policy(MergePolicy policy);

  /// Registered remote members.
  size_t remote_count() const { return remotes_.size(); }
  /// The schema mapping of remote member `i`.
  const SchemaMapping& mapping(size_t i) const { return remotes_[i].mapping; }

  /// Plans, fans out and merges `query` (spelled against the *local*
  /// schema) into finished groups, without rendering them — or hands out
  /// the stored groups of the same query while no member changed. The
  /// result is shared with the engine's store, never copied. Fails only on
  /// an invalid query or when no member could answer.
  Result<std::shared_ptr<const FederatedGroups>> GroupShared(
      const OlapQuery& query) const;

  /// GroupShared() then Render(). Headers, group ordering and values are
  /// byte-identical to OlapEngine::Execute over the MergeWarehouses oracle
  /// when coverage is full.
  Result<FederatedResult> Execute(const OlapQuery& query) const;

 private:
  struct Remote {
    std::string name;
    const Warehouse* warehouse = nullptr;
    SchemaMapping mapping;
    FaultInjector* chaos = nullptr;
  };

  /// What a read of one query at one federation state does before it
  /// probes a member. Defined in the .cc.
  struct Plan;

  /// The plan and finished groups of one query and the member stamps
  /// (local first, then each remote's) they were computed from.
  struct StoredRead {
    OlapQuery query;
    std::vector<uint64_t> stamps;
    std::shared_ptr<const Plan> plan;
    std::shared_ptr<const FederatedGroups> groups;
  };

  /// Plans `query` against the current members and policy: validates it,
  /// translates it per member and resolves each key-complete fact
  /// mapping's conflicts.
  Result<std::shared_ptr<const Plan>> MakePlan(const OlapQuery& query) const;
  /// The stored plan and groups of `query` at exactly `stamps`, or nulls.
  std::pair<std::shared_ptr<const Plan>, std::shared_ptr<const FederatedGroups>>
  FindRead(const OlapQuery& query, const std::vector<uint64_t>& stamps) const;
  /// Stores `plan` and `groups` as the read of `query` at `stamps`,
  /// evicting the least recently used shape beyond the bound.
  void StoreRead(const OlapQuery& query, std::vector<uint64_t> stamps,
                 std::shared_ptr<const Plan> plan,
                 std::shared_ptr<const FederatedGroups> groups) const;

  const Warehouse* local_;
  std::string local_name_;
  std::vector<Remote> remotes_;
  FaultInjector* local_chaos_ = nullptr;
  ThreadPool* pool_ = nullptr;
  MetricRegistry* metrics_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  MergePolicy policy_;
  /// Serializes chaos-injector probes (FaultInjector mutates its RNG).
  mutable std::mutex chaos_mu_;
  /// Guards `reads_`.
  mutable std::mutex reads_mu_;
  /// Stored reads, one per query shape, most recently used first.
  mutable std::vector<StoredRead> reads_;
};

}  // namespace fed
}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_DW_FEDERATION_FEDERATED_ENGINE_H_
