#ifndef DWQA_SERVE_SERVER_H_
#define DWQA_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/circuit_breaker.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "integration/pipeline.h"
#include "serve/admission.h"
#include "serve/answer_cache.h"
#include "serve/protocol.h"

namespace dwqa {
namespace serve {

/// \brief One tenant's registration: the state its pipeline serves from
/// (all caller-owned, must outlive the server) plus the tenant-scoped
/// resilience knobs of the serving layer.
struct ServeTenantConfig {
  /// Tenant name — the `tenant=` routing key of every request.
  std::string name;
  /// The tenant's warehouse (fed by `feed`, read by `bi`).
  dw::Warehouse* warehouse = nullptr;
  /// The tenant's multidimensional UML model (pipeline Steps 1–3).
  const ontology::UmlModel* uml = nullptr;
  /// The tenant's document corpus, indexed at registration time.
  const ir::DocumentStore* docs = nullptr;
  /// Mutable alias of `docs` enabling the `ingest` endpoint: ingest
  /// appends documents here and incrementally indexes them (a segmented
  /// append, never a rebuild). Null (the default) leaves the corpus
  /// immutable and ingest requests are rejected as BadRequest.
  ir::DocumentStore* ingest_docs = nullptr;
  /// The five-step pipeline configuration (per-tenant ontology/corpus
  /// state, resilience machinery, durability root).
  integration::PipelineConfig pipeline;
  /// The tenant's answer cache (TTL, byte cap).
  AnswerCacheConfig cache;
  /// Serve-side fault injection on the ask path (chaos tests/benches):
  /// rules at `web.fetch` fire per live ask attempt, exactly like the
  /// Step-5 feed's fetch faults.
  FaultConfig fault;
  /// Retry schedule of a live ask against those transient faults.
  RetryPolicy retry;
  /// Ask-path circuit breaker: repeated whole-ask failures trip it, and
  /// tripped tenants fast-fail with kCircuitOpen (or a stale cached
  /// answer) instead of burning retry budget per request.
  BreakerConfig breaker;
  /// Federated query engine whose local member is this tenant's warehouse
  /// (caller-owned, must outlive the server; null = tenant not federated).
  /// `bi` requests with `scope=federated` fan out through it; the engine's
  /// remotes, pool, policy and metrics are entirely the caller's wiring.
  dw::fed::FederatedEngine* federation = nullptr;
};

/// \brief Server-wide tuning.
struct ServerConfig {
  /// Admission control: bounded queue, cost budget, per-tenant concurrency
  /// and rate limits.
  AdmissionConfig admission;
  /// Fact rows one admission cost unit buys when estimating a `bi`
  /// request's cost from the tenant's warehouse (view group cardinality
  /// when a materialized view covers the aggregates, full fact scan
  /// otherwise) — so recompute-path BI requests weigh more and the cost
  /// budget sheds them first under load, never below the flat cost of 4
  /// a `bi` request admits at without an estimate. 0 disables estimation.
  double bi_rows_per_cost_unit = 1000.0;
  /// Estimated-cost ceiling of one `bi` request (0 = unlimited). Above
  /// it the request degrades one ladder rung to view-only answering, and
  /// is shed with a typed kOverloaded `bi_cost` rejection when the
  /// tenant's views cannot cover the analysis.
  double max_bi_cost = 0.0;
};

/// \brief The QA-as-a-service front-end: a long-lived, multi-tenant
/// request/response server over the five-step pipeline.
///
/// Each tenant owns an IntegrationPipeline (its own MetricRegistry,
/// ontology, corpus, warehouse and resilience state — full isolation), an
/// answer cache, a serve-side circuit breaker and a fault injector. The
/// server owns the admission controller and a registry of server-level
/// series (`dwqa_serve_*`).
///
/// Request lifecycle: `health`/`metrics` are never admission-controlled
/// (the server must stay observable under overload). Everything else is
/// admitted against the bounded queue / cost budget / tenant concurrency /
/// token bucket and either executed or shed with a typed rejection
/// (`Overloaded`, `CircuitOpen`, `Draining`, `DeadlineExceeded`) — a
/// caller can always tell "back off" from "broken".
///
/// Thread-safety: `Handle` may be called from concurrent callers after all
/// tenants are registered (`AddTenant` itself is not concurrent with
/// serving). `ask` requests of one tenant run concurrently under a shared
/// corpus lock; `ingest` takes that lock exclusively while it appends to
/// the segmented indexes and bumps the tenant's corpus generation, so asks
/// never observe a half-indexed document;
/// `feed` and `bi` serialize on a per-tenant mutex because they touch the
/// warehouse.
class QaServer {
 public:
  explicit QaServer(ServerConfig config = {});

  /// Registers a tenant: builds its pipeline (Steps 1–4) and indexes its
  /// corpus. Call before serving; not thread-safe against Handle.
  Status AddTenant(const ServeTenantConfig& tenant);

  /// Admits and executes one request, returning its response — the
  /// synchronous core that ServeStream and tests drive. Thread-safe once
  /// tenants are registered.
  Response Handle(const Request& request);

  /// Serves framed requests from `in` until EOF, a framing error, or a
  /// requested drain, one at a time: each is read, handled and its
  /// response framed to `out` before the next is read. Then drains.
  Status ServeStream(std::istream& in, std::ostream& out);

  /// Asks the server to drain: only an atomic store, safe to call from a
  /// signal handler (the example binary wires SIGTERM here). New requests
  /// are rejected with the typed `Draining` code; in-flight requests run
  /// to completion.
  void RequestDrain() { drain_requested_.store(true); }

  /// Blocks until the admission controller is idle, then flushes each
  /// durable tenant (IntegrationPipeline::FlushDurability: a snapshot of
  /// its warehouse and feed progress). A request admitted after the drain
  /// flag is set sees it and is rejected without executing. Every fed
  /// question is already durable at its commit, so the flush only shortens
  /// the next recovery. Implies RequestDrain; idempotent.
  Status Drain();

  /// True once a drain was requested (late arrivals are being rejected).
  bool draining() const { return drain_requested_.load(); }

  /// \name Introspection for tests and benches
  /// @{
  /// The server-level registry (`dwqa_serve_*` series).
  MetricRegistry* metrics() { return &metrics_; }
  /// A tenant's pipeline (null for an unknown name).
  integration::IntegrationPipeline* tenant_pipeline(const std::string& name);
  /// A tenant's answer cache (null for an unknown name).
  AnswerCache* tenant_cache(const std::string& name);
  /// The logical clock: one tick per request seen.
  uint64_t now_tick() const { return tick_.load(); }
  /// Advances the logical clock (tests age cache entries this way).
  void AdvanceTicks(uint64_t ticks) { tick_.fetch_add(ticks); }
  /// Requests currently admitted and unfinished (the admission depth).
  size_t inflight() const;
  /// @}

 private:
  struct Tenant {
    ServeTenantConfig config;
    std::unique_ptr<integration::IntegrationPipeline> pipeline;
    AnswerCache cache;
    /// Serve-side ask breaker (the pipeline's own breakers keep guarding
    /// the feed path).
    CircuitBreaker breaker;
    FaultInjector fault;
    /// Serializes feed/bi/health access to the pipeline + warehouse.
    std::mutex state_mu;
    /// Guards the corpus + QA indexes: asks and feeds read under a shared
    /// lock, ingest appends under an exclusive one. Always acquired after
    /// state_mu when both are held.
    std::shared_mutex corpus_mu;
    /// Serializes breaker admissions/outcomes on the ask path.
    std::mutex breaker_mu;
    /// Serializes the fault injector's RNG stream on the ask path.
    std::mutex chaos_mu;
    /// Corpus generation: each ingest bumps it under the exclusive
    /// corpus_mu, so an ask reading it under the shared lock learns which
    /// corpus its answer was computed on. Negative cache entries are valid
    /// for exactly one generation.
    std::atomic<uint64_t> generation{0};

    Tenant(AnswerCacheConfig cache_config, BreakerConfig breaker_config,
           FaultConfig fault_config)
        : cache(cache_config), breaker(breaker_config),
          fault(std::move(fault_config)) {}
  };

  Tenant* FindTenant(const std::string& name);

  /// Executes an admitted request (no admission bookkeeping inside).
  Response Execute(Tenant* tenant, const Request& request, uint64_t tick);
  Response ExecuteAsk(Tenant* tenant, const Request& request,
                      uint64_t tick);
  Response ExecuteFeed(Tenant* tenant, const Request& request);
  Response ExecuteBi(Tenant* tenant, const Request& request);
  /// The scope=federated branch of `bi` (caller holds the tenant's
  /// state_mu): fans both aggregates across the tenant's federation and
  /// annotates the response with typed per-member coverage.
  Response ExecuteBiFederated(Tenant* tenant, const Request& request);
  Response ExecuteIngest(Tenant* tenant, const Request& request);
  Response HandleHealth(const Request& request);
  Response HandleMetrics(const Request& request);

  /// Estimated admission cost of `request`. For `bi`, consults the
  /// per-query cost estimator against the tenant's warehouse (briefly
  /// under its state lock); every other endpoint is a static weight.
  double CostOf(Tenant* tenant, const Request& request);

  /// \name Response builders
  /// @{
  Response MakeBase(const Request& request) const;
  Response MakeReject(const Request& request, RejectKind kind,
                      const std::string& reason, const std::string& detail);
  Response MakeError(const Request& request, const Status& status) const;
  /// A response carrying a cached answer block (moved out of `lookup`).
  Response MakeCached(const Request& request, CacheLookup lookup,
                      Tenant* tenant);
  /// @}

  /// Counts the request's terminal outcome into
  /// `dwqa_serve_requests_total{endpoint, outcome}`.
  void CountOutcome(const Request& request, const Response& response);

  /// Endpoints and terminal outcomes ("ok", "rejected", "error") that
  /// index the per-request series slots.
  static constexpr size_t kEndpointCount =
      static_cast<size_t>(Endpoint::kMetrics) + 1;
  static constexpr size_t kOutcomeCount = 3;

  ServerConfig config_;
  /// Declared before every component holding a pointer to it.
  MetricRegistry metrics_;
  /// `dwqa_serve_request_latency_ms{endpoint}` and
  /// `dwqa_serve_requests_total{endpoint, outcome}`, resolved on first use
  /// so a request takes no registry lock for them.
  std::array<MetricSlot<Histogram>, kEndpointCount> latency_slots_;
  std::array<std::array<MetricSlot<Counter>, kOutcomeCount>, kEndpointCount>
      request_slots_;
  AdmissionController admission_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::atomic<uint64_t> tick_{0};
  std::atomic<bool> drain_requested_{false};
  /// Set by the first Drain, which alone flushes durability.
  std::atomic<bool> durability_flushed_{false};
};

}  // namespace serve
}  // namespace dwqa

#endif  // DWQA_SERVE_SERVER_H_
