#include "serve/server.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/metric_names.h"
#include "common/string_util.h"
#include "dw/cost_estimator.h"
#include "integration/bi_analysis.h"
#include "qa/degradation.h"

namespace dwqa {
namespace serve {

namespace {

/// The deterministic answer block of one AnswerSet — what the response
/// carries and the cache stores. Only the best candidate is serialized:
/// the serving layer answers questions, the feed endpoint is how a client
/// gets the full candidate list into the warehouse.
std::vector<std::pair<std::string, std::string>> AnswerFields(
    const qa::AnswerSet& set) {
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back("degradation",
                      qa::DegradationLevelName(set.degradation));
  if (set.empty()) {
    fields.emplace_back("answered", "0");
    if (!set.unanswered_reason.empty()) {
      fields.emplace_back("unanswered_reason", set.unanswered_reason);
    }
    return fields;
  }
  const qa::AnswerCandidate& best = set.best();
  fields.emplace_back("answered", "1");
  fields.emplace_back("answer", best.answer_text);
  fields.emplace_back("score", FormatDouble(best.score, 4));
  if (best.has_value) {
    fields.emplace_back("value", FormatDouble(best.value, 2));
    if (!best.unit.empty()) fields.emplace_back("unit", best.unit);
  }
  if (!best.location.empty()) fields.emplace_back("location", best.location);
  if (best.date.has_value()) {
    fields.emplace_back("date", best.date->ToIsoString());
  }
  if (!best.url.empty()) fields.emplace_back("url", best.url);
  return fields;
}

/// Appends what both `bi` responses report of `report`: the joined days,
/// the correlation and best range as fields, every range as a payload line.
void AddBiReport(const integration::BiReport& report, Response* response) {
  auto& fields = response->answer;
  fields.emplace_back("joined_days", std::to_string(report.joined_days));
  fields.emplace_back("correlation",
                      FormatDouble(report.pearson_temperature_tickets, 4));
  fields.emplace_back("best_low_c", FormatDouble(report.best.low_c, 1));
  fields.emplace_back("best_high_c", FormatDouble(report.best.high_c, 1));
  fields.emplace_back("best_avg_tickets",
                      FormatDouble(report.best.avg_tickets, 2));
  fields.emplace_back("best_observations",
                      std::to_string(report.best.observations));
  std::ostringstream ranges;
  for (const auto& range : report.ranges) {
    ranges << "[" << FormatDouble(range.low_c, 1) << ", "
           << FormatDouble(range.high_c, 1)
           << ") avg_tickets=" << FormatDouble(range.avg_tickets, 2)
           << " observations=" << range.observations << "\n";
  }
  response->payload = ranges.str();
}

/// Admission cost of one `ingest` request (preprocess + linguistic
/// analysis + two index appends for one document); an `ask`, and each
/// question of a `feed`, costs 1.
constexpr double kIngestCost = 2.0;

/// Admission cost of one `bi` request when no estimate is available, and
/// the floor under every estimate.
constexpr double kBiCost = 4.0;

/// The payload of a `Draining` rejection.
constexpr char kDrainingDetail[] =
    "server is draining; finish in-flight work is guaranteed, new requests "
    "are not accepted";

/// Every shed-reason label the serving layer emits, for the health report.
constexpr const char* kShedReasons[] = {
    "queue_full",    "cost_budget",       "tenant_concurrency",
    "rate_limited",  "draining",          "circuit_open",
    "deadline_exceeded", "unknown_tenant", "bad_request",
};

}  // namespace

QaServer::QaServer(ServerConfig config)
    : config_(config), admission_(config.admission) {
  admission_.set_metrics(&metrics_);
  metrics_
      .GetGauge(kMetricServeDraining, {},
                "1 while the server is draining or drained, 0 while accepting")
      ->Set(0.0);
}

Status QaServer::AddTenant(const ServeTenantConfig& tenant) {
  DWQA_RETURN_NOT_OK(config_.admission.Validate());
  if (tenant.name.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  if (tenants_.count(tenant.name) > 0) {
    return Status::AlreadyExists("tenant '" + tenant.name +
                                 "' already registered");
  }
  if (tenant.warehouse == nullptr || tenant.uml == nullptr ||
      tenant.docs == nullptr) {
    return Status::InvalidArgument(
        "tenant '" + tenant.name +
        "' needs a warehouse, a UML model and a document corpus");
  }
  if (tenant.ingest_docs != nullptr && tenant.ingest_docs != tenant.docs) {
    return Status::InvalidArgument(
        "tenant '" + tenant.name +
        "': ingest_docs must alias docs — ingest appends to the same store "
        "the indexes were built from");
  }
  DWQA_RETURN_NOT_OK(tenant.cache.Validate());
  DWQA_RETURN_NOT_OK(tenant.retry.Validate());
  DWQA_RETURN_NOT_OK(tenant.breaker.Validate());
  auto state = std::make_unique<Tenant>(tenant.cache, tenant.breaker,
                                        tenant.fault);
  state->config = tenant;
  state->pipeline = std::make_unique<integration::IntegrationPipeline>(
      tenant.warehouse, tenant.uml, tenant.pipeline);
  DWQA_RETURN_NOT_OK(state->pipeline->RunAll(tenant.docs));
  if (tenant.federation != nullptr) {
    state->pipeline->AttachFederation(tenant.federation);
  }
  state->cache.set_metrics(&metrics_, tenant.name);
  // The serve-side ask breaker reports into the tenant's own registry, so
  // its `dwqa_breaker_*{breaker="serve.ask"}` series sit next to the
  // pipeline breakers it complements.
  state->breaker.set_metrics(state->pipeline->metrics(), "serve.ask");
  tenants_.emplace(tenant.name, std::move(state));
  return Status::OK();
}

QaServer::Tenant* QaServer::FindTenant(const std::string& name) {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

integration::IntegrationPipeline* QaServer::tenant_pipeline(
    const std::string& name) {
  Tenant* tenant = FindTenant(name);
  return tenant == nullptr ? nullptr : tenant->pipeline.get();
}

AnswerCache* QaServer::tenant_cache(const std::string& name) {
  Tenant* tenant = FindTenant(name);
  return tenant == nullptr ? nullptr : &tenant->cache;
}

size_t QaServer::inflight() const { return admission_.depth(); }

double QaServer::CostOf(Tenant* tenant, const Request& request) {
  switch (request.endpoint) {
    case Endpoint::kFeed:
      return std::max<double>(1.0,
                              static_cast<double>(request.questions.size()));
    case Endpoint::kBi: {
      if (config_.bi_rows_per_cost_unit <= 0.0 || tenant == nullptr) {
        return kBiCost;
      }
      // Rows-touched estimate from table/view cardinalities — a dashboard
      // a materialized view covers admits at its group count (cheap and
      // flat as facts stream in); a recompute admits at the full fact
      // scan, so it is the first thing the cost budget sheds.
      dw::CostEstimator estimator({config_.bi_rows_per_cost_unit, 1.0});
      std::lock_guard<std::mutex> lock(tenant->state_mu);
      auto estimate = integration::BiAnalysis::EstimateCost(
          tenant->pipeline->warehouse(), estimator);
      if (!estimate.ok()) return kBiCost;
      // kBiCost stays the floor: a small warehouse admits at the flat
      // weight it always did; only genuinely expensive scans weigh more.
      return std::max(kBiCost, estimate->cost_units);
    }
    case Endpoint::kIngest:
      return kIngestCost;
    default:
      return 1.0;
  }
}

Response QaServer::MakeBase(const Request& request) const {
  Response response;
  response.id = request.id;
  response.endpoint = EndpointName(request.endpoint);
  response.status = "ok";
  response.code = "OK";
  return response;
}

Response QaServer::MakeReject(const Request& request, RejectKind kind,
                              const std::string& reason,
                              const std::string& detail) {
  metrics_
      .GetCounter(kMetricServeRejections, {{"reason", reason}},
                  "Admissions the server refused, by reason")
      ->Increment();
  Response response = MakeBase(request);
  response.status = "rejected";
  response.code = RejectKindName(kind);
  response.reason = reason;
  response.payload = detail;
  return response;
}

Response QaServer::MakeError(const Request& request,
                             const Status& status) const {
  Response response = MakeBase(request);
  response.status = "error";
  response.code = StatusCodeToString(status.code());
  response.payload = status.message();
  return response;
}

Response QaServer::MakeCached(const Request& request, CacheLookup lookup,
                              Tenant* tenant) {
  Response response = MakeBase(request);
  response.cached = true;
  response.stale = lookup.stale;
  // Copied here, outside the cache lock: the entry is shared and immutable.
  response.answer = lookup.entry->answer;
  if (lookup.stale) {
    metrics_
        .GetCounter(kMetricServeStaleServed, {{"tenant", tenant->config.name}},
                    "Stale cached answers served because the live path had "
                    "already degraded past them")
        ->Increment();
  }
  return response;
}

void QaServer::CountOutcome(const Request& request,
                            const Response& response) {
  static constexpr const char* kOutcomes[kOutcomeCount] = {"ok", "rejected",
                                                           "error"};
  auto resolve = [&] {
    return metrics_.GetCounter(
        kMetricServeRequests,
        {{"endpoint", EndpointName(request.endpoint)},
         {"outcome", response.status}},
        "Requests the server saw, by endpoint and terminal outcome");
  };
  auto& slots = request_slots_[static_cast<size_t>(request.endpoint)];
  for (size_t outcome = 0; outcome < kOutcomeCount; ++outcome) {
    if (response.status == kOutcomes[outcome]) {
      slots[outcome].Get(resolve)->Increment();
      return;
    }
  }
  resolve()->Increment();
}

Response QaServer::Handle(const Request& request) {
  // One tick per request seen — the logical clock of cache TTLs and token
  // buckets (rejected requests advance it too: overload is traffic).
  uint64_t tick = tick_.fetch_add(1) + 1;
  Response response;
  if (request.endpoint == Endpoint::kHealth) {
    response = HandleHealth(request);
  } else if (request.endpoint == Endpoint::kMetrics) {
    response = HandleMetrics(request);
  } else if (draining()) {
    response = MakeReject(request, RejectKind::kDraining, "draining",
                          kDrainingDetail);
  } else {
    Tenant* tenant = FindTenant(request.tenant);
    if (tenant == nullptr) {
      response = MakeReject(request, RejectKind::kUnknownTenant,
                            "unknown_tenant",
                            "no tenant '" + request.tenant + "' registered");
    } else if (request.endpoint == Endpoint::kAsk &&
               request.questions.size() != 1) {
      response = MakeReject(request, RejectKind::kBadRequest, "bad_request",
                            "ask takes exactly one question");
    } else if (request.endpoint == Endpoint::kFeed &&
               request.questions.empty()) {
      response = MakeReject(request, RejectKind::kBadRequest, "bad_request",
                            "feed needs at least one question");
    } else if (request.endpoint == Endpoint::kIngest &&
               request.doc_content.empty()) {
      response = MakeReject(request, RejectKind::kBadRequest, "bad_request",
                            "ingest needs document content in the payload "
                            "section (after the blank line)");
    } else {
      double cost = CostOf(tenant, request);
      AdmissionDecision admitted =
          admission_.Admit(request.tenant, cost, tick);
      if (!admitted.status.ok()) {
        // The controller already counted the shed under its reason; compose
        // the typed kOverloaded response without double counting.
        response = MakeBase(request);
        response.status = "rejected";
        response.code = RejectKindName(RejectKind::kOverloaded);
        response.reason = admitted.reason;
        response.payload = admitted.status.message();
      } else if (draining()) {
        // A Drain whose flag the check above missed either counted this
        // admission, and waits for its release, or set the flag before the
        // Admit and is seen here: nothing executes behind a drain.
        admission_.Release(request.tenant, cost);
        response = MakeReject(request, RejectKind::kDraining, "draining",
                              kDrainingDetail);
      } else {
        response = Execute(tenant, request, tick);
        admission_.Release(request.tenant, cost);
      }
    }
  }
  CountOutcome(request, response);
  return response;
}

Response QaServer::Execute(Tenant* tenant, const Request& request,
                           uint64_t tick) {
  Histogram* latency =
      latency_slots_[static_cast<size_t>(request.endpoint)].Get([&] {
        return metrics_.GetHistogram(
            kMetricServeRequestLatency,
            {{"endpoint", EndpointName(request.endpoint)}}, {},
            "Wall-clock latency of executed requests");
      });
  ScopedLatencyTimer timer(latency);
  switch (request.endpoint) {
    case Endpoint::kAsk:
      return ExecuteAsk(tenant, request, tick);
    case Endpoint::kFeed:
      return ExecuteFeed(tenant, request);
    case Endpoint::kBi:
      return ExecuteBi(tenant, request);
    case Endpoint::kIngest:
      return ExecuteIngest(tenant, request);
    default:
      return MakeError(request,
                       Status::InvalidArgument(
                           "health/metrics bypass Execute by construction"));
  }
}

Response QaServer::ExecuteAsk(Tenant* tenant, const Request& request,
                              uint64_t tick) {
  const std::string& question = request.questions.front();
  const std::string key = NormalizeQuestion(question);

  CacheLookup lookup;
  if (!request.no_cache) {
    lookup = tenant->cache.Get(key, tick, tenant->generation.load());
  }
  if (lookup.found && !lookup.stale) {
    return MakeCached(request, std::move(lookup), tenant);
  }

  // Breaker admission before any live work. A half-open probe gets exactly
  // one attempt (mirroring the feed path): hammering a recovering backend
  // with a full retry schedule is how half-open storms start.
  bool allowed = false;
  bool half_open_probe = false;
  {
    std::lock_guard<std::mutex> lock(tenant->breaker_mu);
    allowed = tenant->breaker.Allow();
    half_open_probe =
        allowed && tenant->breaker.state() == BreakerState::kHalfOpen;
  }
  if (!allowed) {
    // Fast-fail — but a cached answer, even a stale one, beats a refusal.
    if (lookup.found) return MakeCached(request, std::move(lookup), tenant);
    return MakeReject(request, RejectKind::kCircuitOpen, "circuit_open",
                      "tenant '" + request.tenant +
                          "' ask breaker is open (cool-down in progress)");
  }

  // The per-request deadline: the client's budget (none = unlimited)
  // threaded into the QA engine's ledger, so a slow request sheds via the
  // degradation ladder instead of stalling a worker.
  DeadlineConfig deadline_config;
  if (request.budget > 0.0) deadline_config.budget = request.budget;
  Deadline deadline(deadline_config);

  RetryPolicy policy = tenant->config.retry;
  if (half_open_probe) policy.max_attempts = 1;

  RetryStats stats;
  // Shared corpus lock: concurrent asks proceed together, an in-flight
  // ingest's index append is never observed half-done.
  std::shared_lock<std::shared_mutex> corpus_lock(tenant->corpus_mu);
  // Ingest bumps the generation under the exclusive lock, so this is the
  // generation of the corpus the answer is computed on.
  const uint64_t generation = tenant->generation.load();
  Result<qa::AnswerSet> asked = RetryResultCall<qa::AnswerSet>(
      policy,
      [&]() -> Result<qa::AnswerSet> {
        {
          std::lock_guard<std::mutex> lock(tenant->chaos_mu);
          DWQA_RETURN_NOT_OK(tenant->fault.Hit(kFaultPointFetch));
        }
        return tenant->pipeline->aliqan()->AskWith(question, nullptr,
                                                   &deadline);
      },
      &stats, &deadline, kFaultPointFetch);
  corpus_lock.unlock();
  MirrorRetryStats(tenant->pipeline->metrics(), "serve.ask", stats,
                   !asked.ok());

  // Breaker outcome. Deadline exhaustion with no transient failure seen is
  // a client-sized budget, not backend sickness — recording it as a failure
  // would let one impatient client trip the breaker for everyone.
  bool backend_healthy =
      asked.ok() ||
      (asked.status().IsDeadlineExceeded() && stats.transient_failures == 0);
  {
    std::lock_guard<std::mutex> lock(tenant->breaker_mu);
    if (backend_healthy) {
      tenant->breaker.RecordSuccess();
    } else {
      tenant->breaker.RecordFailure();
    }
  }

  if (!asked.ok()) {
    // Stale-while-degraded: an expired answer beats both a deadline trip
    // and a transient-exhausted failure.
    if (lookup.found) return MakeCached(request, std::move(lookup), tenant);
    if (asked.status().IsDeadlineExceeded()) {
      return MakeReject(request, RejectKind::kDeadlineExceeded,
                        "deadline_exceeded", asked.status().message());
    }
    return MakeError(request, asked.status());
  }

  const qa::AnswerSet& set = *asked;
  // An IR-only pointer or an unanswered set (an empty one at any rung):
  // only a newer corpus generation can improve it.
  const bool negative =
      set.empty() || set.degradation > qa::DegradationLevel::kRelaxedPattern;
  if (negative && lookup.found && lookup.entry->level < set.degradation) {
    // The live ladder dropped below the cached rung — stale-while-degraded
    // serves the better (if older) answer.
    return MakeCached(request, std::move(lookup), tenant);
  }
  Response response = MakeBase(request);
  response.answer = AnswerFields(set);
  // Cache only what the corpus answers: a set the deadline cut short is
  // what a starved request could afford, and must never be served to an
  // unstarved one. A negative entry is stamped with its generation and
  // stops being served at the next ingest; a positive one lives by the TTL.
  if (!request.no_cache && !deadline.exhausted()) {
    CachedAnswer entry;
    entry.answer = response.answer;
    entry.level = set.degradation;
    entry.generation = generation;
    entry.negative = negative;
    tenant->cache.Put(key, std::move(entry), tick);
  }
  return response;
}

Response QaServer::ExecuteFeed(Tenant* tenant, const Request& request) {
  std::lock_guard<std::mutex> lock(tenant->state_mu);
  // Feed reads the QA indexes (Step-5 asks questions): shared corpus lock,
  // acquired after state_mu per the documented order.
  std::shared_lock<std::shared_mutex> corpus_lock(tenant->corpus_mu);
  Result<integration::FeedReport> fed = tenant->pipeline->RunStep5(
      request.questions, request.fact_name, request.attribute);
  if (!fed.ok()) return MakeError(request, fed.status());
  const integration::FeedReport& report = *fed;
  Response response = MakeBase(request);
  auto& fields = response.answer;
  fields.emplace_back("questions_asked",
                      std::to_string(report.questions_asked));
  fields.emplace_back("questions_answered",
                      std::to_string(report.questions_answered));
  fields.emplace_back("questions_failed",
                      std::to_string(report.questions_failed));
  fields.emplace_back("facts_extracted",
                      std::to_string(report.facts_extracted));
  fields.emplace_back("rows_loaded", std::to_string(report.rows_loaded));
  fields.emplace_back("rows_deduplicated",
                      std::to_string(report.rows_deduplicated));
  fields.emplace_back("rows_quarantined",
                      std::to_string(report.rows_quarantined));
  fields.emplace_back("retries", std::to_string(report.retries));
  fields.emplace_back("breaker_rejections",
                      std::to_string(report.breaker_rejections));
  fields.emplace_back("deadline_exhausted",
                      report.deadline_exhausted ? "1" : "0");
  for (const auto& [level, count] : report.questions_by_degradation) {
    fields.emplace_back(
        std::string("level_") + qa::DegradationLevelName(level),
        std::to_string(count));
  }
  return response;
}

Response QaServer::ExecuteBi(Tenant* tenant, const Request& request) {
  std::lock_guard<std::mutex> lock(tenant->state_mu);
  if (request.scope == "federated") return ExecuteBiFederated(tenant, request);
  const dw::Warehouse& wh = tenant->pipeline->warehouse();
  // Degradation ladder: estimate first. A request whose estimated cost
  // clears max_bi_cost drops one rung to view-only answering (precomputed
  // aggregates, never a base-fact scan); when the tenant's views cannot
  // cover the analysis either, it is shed with a typed rejection —
  // expensive queries go first, cheap view reads keep flowing.
  integration::BiMode mode = integration::BiMode::kViewFirst;
  dw::CostEstimate estimate;
  if (config_.bi_rows_per_cost_unit > 0.0) {
    dw::CostEstimator estimator({config_.bi_rows_per_cost_unit, 1.0});
    auto estimated = integration::BiAnalysis::EstimateCost(wh, estimator);
    if (estimated.ok()) {
      estimate = *estimated;
      if (config_.max_bi_cost > 0.0 &&
          estimate.cost_units > config_.max_bi_cost && !estimate.from_view) {
        mode = integration::BiMode::kViewOnly;
      }
    }
  }
  Result<integration::BiReport> analyzed =
      integration::BiAnalysis::SalesVsTemperature(
          wh, "LastMinuteSales", "Weather", 5.0, mode);
  if (!analyzed.ok()) {
    if (mode == integration::BiMode::kViewOnly &&
        analyzed.status().IsUnavailable()) {
      return MakeReject(
          request, RejectKind::kOverloaded, "bi_cost",
          "estimated cost " + FormatDouble(estimate.cost_units, 1) +
              " exceeds max_bi_cost " +
              FormatDouble(config_.max_bi_cost, 1) +
              " and no materialized view covers the analysis");
    }
    return MakeError(request, analyzed.status());
  }
  const integration::BiReport& report = *analyzed;
  Response response = MakeBase(request);
  auto& fields = response.answer;
  fields.emplace_back("bi_mode", integration::BiModeName(mode));
  fields.emplace_back("cost_estimate",
                      FormatDouble(estimate.cost_units, 1));
  fields.emplace_back("estimated_rows",
                      std::to_string(estimate.estimated_rows));
  fields.emplace_back("sales_from_view",
                      report.sales_from_view ? "1" : "0");
  fields.emplace_back("weather_from_view",
                      report.weather_from_view ? "1" : "0");
  AddBiReport(report, &response);
  return response;
}

Response QaServer::ExecuteBiFederated(Tenant* tenant,
                                      const Request& request) {
  // Caller holds state_mu: federated analyses serialize with local bi/feed
  // requests of this tenant, which is also what makes the engine's trace
  // recorder (if the embedder set one) safe here.
  dw::fed::FederatedEngine* federation = tenant->pipeline->federation();
  if (federation == nullptr) {
    return MakeReject(request, RejectKind::kBadRequest, "bad_request",
                      "tenant '" + request.tenant +
                          "' has no federation attached; scope=federated "
                          "is unavailable");
  }
  Result<integration::FederatedBiReport> analyzed =
      integration::BiAnalysis::SalesVsTemperatureFederated(*federation);
  if (!analyzed.ok()) return MakeError(request, analyzed.status());
  const integration::FederatedBiReport& fed = *analyzed;
  Response response = MakeBase(request);
  auto& fields = response.answer;
  fields.emplace_back("bi_mode", "federated");
  fields.emplace_back("coverage", fed.full() ? "full" : "partial");
  fields.emplace_back(
      "fed_members",
      std::to_string(fed.sales_coverage.warehouses_total));
  fields.emplace_back("sales_coverage",
                      dw::fed::CoverageName(fed.sales_coverage));
  fields.emplace_back("weather_coverage",
                      dw::fed::CoverageName(fed.weather_coverage));
  // One typed line per member gap, so a partial answer always says whose
  // share is missing and why.
  for (const dw::fed::CoverageGap& gap : fed.sales_coverage.missing) {
    fields.emplace_back("fed_missing",
                        "sales/" + gap.warehouse + ": " + gap.reason);
  }
  for (const dw::fed::CoverageGap& gap : fed.weather_coverage.missing) {
    fields.emplace_back("fed_missing",
                        "weather/" + gap.warehouse + ": " + gap.reason);
  }
  AddBiReport(fed.report, &response);
  return response;
}

Response QaServer::ExecuteIngest(Tenant* tenant, const Request& request) {
  ir::DocumentStore* store = tenant->config.ingest_docs;
  if (store == nullptr) {
    return MakeReject(request, RejectKind::kBadRequest, "bad_request",
                      "tenant '" + request.tenant +
                          "' was registered without a mutable document "
                          "store; ingest is disabled");
  }
  ir::DocFormat format = ir::DocFormat::kPlainText;
  if (request.doc_format == "html") format = ir::DocFormat::kHtml;
  if (request.doc_format == "xml") format = ir::DocFormat::kXml;
  // Exclusive corpus lock: the append and its indexation are atomic with
  // respect to asks/feeds — either the document is fully searchable or not
  // yet visible. The new corpus is a new generation, bumped before the
  // lock is released and whatever the ingest returned (a failed one may
  // have indexed part of its work): cached unanswered and IR-only answers
  // stop being served, since the new page may answer them. Positive
  // answers are not invalidated; they age out via TTL (or a client asks
  // with nocache=1 for a live-fresh view).
  std::unique_lock<std::shared_mutex> corpus_lock(tenant->corpus_mu);
  store->Add(request.doc_url, request.doc_title, format,
             request.doc_content);
  Result<size_t> ingested = tenant->pipeline->IngestNewDocuments();
  tenant->generation.fetch_add(1);
  if (!ingested.ok()) return MakeError(request, ingested.status());
  Response response = MakeBase(request);
  response.answer.emplace_back("ingested", std::to_string(*ingested));
  response.answer.emplace_back("documents", std::to_string(store->size()));
  return response;
}

Response QaServer::HandleHealth(const Request& request) {
  Response response = MakeBase(request);
  auto& fields = response.answer;
  fields.emplace_back("draining", draining() ? "1" : "0");
  fields.emplace_back("tick", std::to_string(tick_.load()));
  fields.emplace_back("queue_depth", std::to_string(admission_.depth()));
  fields.emplace_back("queued_cost",
                      FormatDouble(admission_.queued_cost(), 0));
  fields.emplace_back("tenants", std::to_string(tenants_.size()));
  std::ostringstream body;
  for (auto& [name, tenant] : tenants_) {
    if (!request.tenant.empty() && request.tenant != name) continue;
    std::string ask_breaker;
    {
      std::lock_guard<std::mutex> lock(tenant->breaker_mu);
      ask_breaker = BreakerStateName(tenant->breaker.state());
    }
    integration::PipelineHealth health;
    {
      std::lock_guard<std::mutex> lock(tenant->state_mu);
      health = tenant->pipeline->Health();
    }
    body << "tenant " << name << ": ask_breaker=" << ask_breaker
         << " breakers_open=" << health.breakers_open
         << " inflight=" << admission_.tenant_inflight(name)
         << " generation=" << tenant->generation.load()
         << " cache_entries=" << tenant->cache.size()
         << " cache_bytes=" << tenant->cache.bytes();
    for (const char* result : {"hit", "stale", "miss"}) {
      body << " cache_" << result << "="
           << FormatDouble(
                  metrics_.Value(kMetricServeCacheLookups,
                                 {{"tenant", name}, {"result", result}}),
                  0);
    }
    body << " cache_evictions="
         << FormatDouble(metrics_.Value(kMetricServeCacheEvictions,
                                        {{"tenant", name}}),
                         0)
         << " stale_served="
         << FormatDouble(
                metrics_.Value(kMetricServeStaleServed, {{"tenant", name}}),
                0)
         << "\n";
  }
  body << "shed";
  for (const char* reason : kShedReasons) {
    body << " " << reason << "="
         << FormatDouble(
                metrics_.Value(kMetricServeRejections, {{"reason", reason}}),
                0);
  }
  body << "\n";
  response.payload = body.str();
  return response;
}

Response QaServer::HandleMetrics(const Request& request) {
  Response response = MakeBase(request);
  // One exposition: each tenant's pipeline series carry a `tenant` label,
  // so the families of all registries merge into one block each.
  std::vector<MetricSnapshot> series = metrics_.Snapshot();
  for (auto& [name, tenant] : tenants_) {
    if (!request.tenant.empty() && request.tenant != name) continue;
    for (MetricSnapshot& snap : tenant->pipeline->metrics()->Snapshot()) {
      snap.labels["tenant"] = name;
      series.push_back(std::move(snap));
    }
  }
  std::sort(series.begin(), series.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  response.payload = RenderPrometheus(series);
  return response;
}

Status QaServer::Drain() {
  RequestDrain();
  metrics_
      .GetGauge(kMetricServeDraining, {},
                "1 while the server is draining or drained, 0 while accepting")
      ->Set(1.0);
  admission_.WaitIdle();
  if (durability_flushed_.exchange(true)) return Status::OK();
  Status first_failure = Status::OK();
  for (auto& [name, tenant] : tenants_) {
    std::lock_guard<std::mutex> lock(tenant->state_mu);
    Status flushed = tenant->pipeline->FlushDurability();
    if (!flushed.ok() && first_failure.ok()) first_failure = flushed;
  }
  return first_failure;
}

Status QaServer::ServeStream(std::istream& in, std::ostream& out) {
  Framing framing;
  auto write = [&](const Response& response) -> Status {
    return framing.WriteFrame(out, response.Serialize());
  };

  Status termination = Status::OK();
  while (!draining()) {
    Result<std::string> body = framing.ReadFrame(in);
    if (!body.ok()) {
      // Clean EOF ends the session; a framing error is unrecoverable (the
      // stream cannot be resynchronized) and is reported after the drain.
      if (!body.status().IsNotFound()) termination = body.status();
      break;
    }
    Result<Request> parsed = Request::Parse(*body);
    if (!parsed.ok()) {
      // The frame was well-formed, the request inside was not: answer it
      // in order with a typed BadRequest instead of killing the session.
      metrics_
          .GetCounter(kMetricServeRejections, {{"reason", "bad_request"}},
                      "Admissions the server refused, by reason")
          ->Increment();
      Response bad;
      bad.endpoint = "unknown";
      bad.status = "rejected";
      bad.code = RejectKindName(RejectKind::kBadRequest);
      bad.reason = "bad_request";
      bad.payload = parsed.status().message();
      metrics_
          .GetCounter(kMetricServeRequests,
                      {{"endpoint", "unknown"}, {"outcome", bad.status}},
                      "Requests the server saw, by endpoint and terminal "
                      "outcome")
          ->Increment();
      DWQA_RETURN_NOT_OK(write(bad));
      continue;
    }
    DWQA_RETURN_NOT_OK(write(Handle(*parsed)));
  }
  Status drained = Drain();
  if (!termination.ok()) return termination;
  return drained;
}

}  // namespace serve
}  // namespace dwqa
