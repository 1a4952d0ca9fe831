// QaServer tests: multi-tenant serving over real pipelines — ask with
// caching and byte-identical hits, negative entries bound to the corpus
// generation (and the seeded cached ≡ live oracle over interleaved asks
// and ingests), stale-while-degraded fallbacks, typed
// rejections (Overloaded / DeadlineExceeded / CircuitOpen / UnknownTenant /
// BadRequest), the feed and BI endpoints, health/metrics bypassing
// admission, and the retry-pressure mirroring of served asks.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/date.h"
#include "common/metric_names.h"
#include "common/rng.h"
#include "dw/federation/federated_engine.h"
#include "dw/federation/partner_warehouse.h"
#include "dw/materialized_view.h"
#include "integration/last_minute_sales.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace serve {
namespace {

constexpr char kQuestion[] =
    "What is the temperature in Barcelona in January of 2004?";
/// Unanswered over a corpus without the encyclopedia pages, until the El
/// Prat page below is ingested.
constexpr char kElPratQuestion[] = "In which city is El Prat located?";
constexpr char kElPratPage[] =
    "El Prat airport is located in the city of Barcelona.\nEl Prat serves "
    "flights to the whole of Europe.";

/// An answer block the server caches only for its corpus generation.
bool IsNegative(const Response& response) {
  const std::string level = response.AnswerField("degradation");
  return response.AnswerField("answered") == "0" || level == "IrOnly" ||
         level == "Unanswered";
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    web::WebConfig config;
    config.seed = 42;
    config.months = {1};
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
    uml_ = integration::LastMinuteSales::MakeUmlModel();
    wh_a_ = std::make_unique<dw::Warehouse>(
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie());
    wh_b_ = std::make_unique<dw::Warehouse>(
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie());
    ASSERT_TRUE(integration::LastMinuteSales::GenerateSales(
                    wh_a_.get(), web_->weather(), Date(2004, 1, 1), 60)
                    .ok());
  }

  ServeTenantConfig TenantConfig(const std::string& name,
                                 dw::Warehouse* warehouse) {
    ServeTenantConfig tenant;
    tenant.name = name;
    tenant.warehouse = warehouse;
    tenant.uml = &uml_;
    tenant.docs = &web_->documents();
    tenant.pipeline = integration::LastMinuteSales::DefaultPipelineConfig();
    tenant.retry.sleep = false;
    return tenant;
  }

  Request Ask(const std::string& tenant, const std::string& question,
              uint64_t id = 1) {
    Request request;
    request.id = id;
    request.tenant = tenant;
    request.endpoint = Endpoint::kAsk;
    request.questions = {question};
    return request;
  }

  Request LiveAsk(const std::string& tenant, const std::string& question,
                  uint64_t id = 1) {
    Request request = Ask(tenant, question, id);
    request.no_cache = true;
    return request;
  }

  Request Ingest(const std::string& tenant, const std::string& url,
                 const std::string& content, uint64_t id = 1) {
    Request request;
    request.id = id;
    request.tenant = tenant;
    request.endpoint = Endpoint::kIngest;
    request.doc_url = url;
    request.doc_title = url;
    request.doc_content = content;
    return request;
  }

  /// Registers tenant `name` with ingest enabled over `docs`, filled with
  /// the synthetic web minus its encyclopedia and distractor pages (so
  /// kElPratQuestion has no answer yet).
  Status AddIngestTenant(QaServer* server, const std::string& name,
                         ir::DocumentStore* docs) {
    web::WebConfig config;
    config.seed = 42;
    config.encyclopedia = false;
    config.noise_pages = 0;
    DWQA_ASSIGN_OR_RETURN(web::SyntheticWeb web,
                          web::SyntheticWeb::Build(config));
    for (const ir::Document& d : web.documents().documents()) {
      docs->Add(d.url, d.title, d.format, d.raw);
    }
    ServeTenantConfig tenant = TenantConfig(name, wh_a_.get());
    tenant.docs = docs;
    tenant.ingest_docs = docs;
    return server->AddTenant(tenant);
  }

  double CacheLookups(QaServer* server, const char* result) {
    return server->metrics()->Value(kMetricServeCacheLookups,
                                    {{"tenant", "a"}, {"result", result}});
  }

  std::unique_ptr<web::SyntheticWeb> web_;
  ontology::UmlModel uml_;
  std::unique_ptr<dw::Warehouse> wh_a_;
  std::unique_ptr<dw::Warehouse> wh_b_;
};

TEST_F(ServeTest, AskAnswersThenServesByteIdenticalCacheHit) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Response cold = server.Handle(Ask("a", kQuestion, 1));
  ASSERT_EQ(cold.status, "ok") << cold.payload;
  EXPECT_EQ(cold.code, "OK");
  EXPECT_FALSE(cold.cached);
  EXPECT_EQ(cold.AnswerField("answered"), "1");
  EXPECT_EQ(cold.AnswerField("degradation"), "Full");
  EXPECT_FALSE(cold.AnswerField("answer").empty());

  Response hit = server.Handle(Ask("a", kQuestion, 2));
  ASSERT_EQ(hit.status, "ok");
  EXPECT_TRUE(hit.cached);
  EXPECT_FALSE(hit.stale);
  // The acceptance criterion: a cache hit is byte-identical to the cold
  // path's answer block.
  EXPECT_EQ(hit.AnswerBlock(), cold.AnswerBlock());
  EXPECT_EQ(hit.id, 2u);

  // Normalization: case/whitespace/punctuation variants share the entry.
  Response variant = server.Handle(
      Ask("a", "what is THE temperature  in barcelona in January of 2004 ?",
          3));
  EXPECT_TRUE(variant.cached);
  EXPECT_EQ(variant.AnswerBlock(), cold.AnswerBlock());

  // nocache bypasses the cache and still answers identically.
  Request fresh = Ask("a", kQuestion, 4);
  fresh.no_cache = true;
  Response live = server.Handle(fresh);
  ASSERT_EQ(live.status, "ok");
  EXPECT_FALSE(live.cached);
  EXPECT_EQ(live.AnswerBlock(), cold.AnswerBlock());
}

TEST_F(ServeTest, TenantsAreIsolated) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());
  ASSERT_TRUE(server.AddTenant(TenantConfig("b", wh_b_.get())).ok());
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get()))
                  .IsAlreadyExists());

  ASSERT_EQ(server.Handle(Ask("a", kQuestion, 1)).status, "ok");
  // Tenant a's question is not in tenant b's cache, and did not touch
  // tenant b's pipeline registry.
  Response other = server.Handle(Ask("b", kQuestion, 2));
  ASSERT_EQ(other.status, "ok");
  EXPECT_FALSE(other.cached);
  EXPECT_DOUBLE_EQ(
      server.tenant_pipeline("a")->metrics()->Value("dwqa_qa_questions_total"),
      server.tenant_pipeline("b")->metrics()->Value(
          "dwqa_qa_questions_total"));
}

TEST_F(ServeTest, UnknownTenantAndMalformedRequestsGetTypedRejections) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Response unknown = server.Handle(Ask("nobody", kQuestion));
  EXPECT_EQ(unknown.status, "rejected");
  EXPECT_EQ(unknown.code, "UnknownTenant");
  EXPECT_EQ(unknown.reason, "unknown_tenant");

  Request no_question = Ask("a", kQuestion);
  no_question.questions.clear();
  Response bad = server.Handle(no_question);
  EXPECT_EQ(bad.status, "rejected");
  EXPECT_EQ(bad.code, "BadRequest");

  Request two_questions = Ask("a", kQuestion);
  two_questions.questions.push_back("another?");
  EXPECT_EQ(server.Handle(two_questions).code, "BadRequest");

  Request empty_feed;
  empty_feed.tenant = "a";
  empty_feed.endpoint = Endpoint::kFeed;
  EXPECT_EQ(server.Handle(empty_feed).code, "BadRequest");

  EXPECT_DOUBLE_EQ(server.metrics()->Value(kMetricServeRejections,
                                           {{"reason", "unknown_tenant"}}),
                   1.0);
  EXPECT_DOUBLE_EQ(server.metrics()->Value(kMetricServeRejections,
                                           {{"reason", "bad_request"}}),
                   3.0);
}

TEST_F(ServeTest, RateLimitShedsWithTypedOverloaded) {
  ServerConfig config;
  config.admission.rate.capacity = 1.0;
  config.admission.rate.refill_per_tick = 0.0001;
  QaServer server(config);
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Request fresh = Ask("a", kQuestion, 1);
  fresh.no_cache = true;
  ASSERT_EQ(server.Handle(fresh).status, "ok");

  fresh.id = 2;
  Response shed = server.Handle(fresh);
  EXPECT_EQ(shed.status, "rejected");
  EXPECT_EQ(shed.code, "Overloaded");
  EXPECT_EQ(shed.reason, "rate_limited");
  EXPECT_DOUBLE_EQ(server.metrics()->Value(kMetricServeRejections,
                                           {{"reason", "rate_limited"}}),
                   1.0);
  EXPECT_DOUBLE_EQ(
      server.metrics()->Value(kMetricServeRequests,
                              {{"endpoint", "ask"}, {"outcome", "rejected"}}),
      1.0);
}

TEST_F(ServeTest, TinyBudgetEndsInAnswerOrTypedDeadlineRejection) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Request starved = Ask("a", kQuestion);
  starved.no_cache = true;
  starved.budget = 1.0;
  Response response = server.Handle(starved);
  // The robustness contract: a starved request still ends in either a
  // (possibly degraded) answer or the typed DeadlineExceeded rejection —
  // never a hang, never an untyped error.
  if (response.status == "ok") {
    EXPECT_FALSE(response.AnswerField("degradation").empty());
  } else {
    EXPECT_EQ(response.status, "rejected");
    EXPECT_EQ(response.code, "DeadlineExceeded");
    EXPECT_EQ(response.reason, "deadline_exceeded");
  }
}

TEST_F(ServeTest, StaleWhileDegradedServesTheExpiredCacheEntry) {
  ServeTenantConfig tenant = TenantConfig("a", wh_a_.get());
  tenant.cache.ttl_ticks = 1;
  QaServer server;
  ASSERT_TRUE(server.AddTenant(tenant).ok());

  Response cold = server.Handle(Ask("a", kQuestion, 1));
  ASSERT_EQ(cold.status, "ok");
  ASSERT_EQ(cold.AnswerField("answered"), "1");

  // Let the entry outlive its TTL, then starve the live path: the stale
  // entry beats whatever rung the degraded live ask could reach.
  server.AdvanceTicks(10);
  Request starved = Ask("a", kQuestion, 2);
  starved.budget = 1.0;
  Response fallback = server.Handle(starved);
  ASSERT_EQ(fallback.status, "ok");
  EXPECT_TRUE(fallback.cached);
  EXPECT_TRUE(fallback.stale);
  EXPECT_EQ(fallback.AnswerBlock(), cold.AnswerBlock());
  EXPECT_GE(server.metrics()->Value(kMetricServeStaleServed,
                                    {{"tenant", "a"}}),
            1.0);
}

TEST_F(ServeTest, BreakerTripsFastFailsAndMirrorsRetryPressure) {
  ServeTenantConfig tenant = TenantConfig("chaotic", wh_b_.get());
  FaultRule always_down;
  always_down.point = kFaultPointFetch;
  always_down.probability = 1.0;
  tenant.fault.rules = {always_down};
  tenant.retry.max_attempts = 2;
  tenant.breaker.enabled = true;
  tenant.breaker.failure_threshold = 1;
  tenant.breaker.cooldown_attempts = 2;
  QaServer server;
  ASSERT_TRUE(server.AddTenant(tenant).ok());

  // First ask: both attempts hit the armed fault, the request errors, the
  // breaker trips — and the retry pressure is mirrored into the tenant's
  // registry (the satellite fix: RetryStats no longer die inside the
  // request).
  Response down = server.Handle(Ask("chaotic", kQuestion, 1));
  EXPECT_EQ(down.status, "error");
  EXPECT_EQ(down.code, "Unavailable");
  MetricRegistry* registry = server.tenant_pipeline("chaotic")->metrics();
  EXPECT_DOUBLE_EQ(
      registry->Value(kMetricRetryAttempts, {{"stage", "serve.ask"}}), 2.0);
  EXPECT_DOUBLE_EQ(registry->Value(kMetricRetryTransientFailures,
                                   {{"stage", "serve.ask"}}),
                   2.0);
  EXPECT_DOUBLE_EQ(
      registry->Value(kMetricRetryGiveups, {{"stage", "serve.ask"}}), 1.0);

  // While open: fast-fail with the typed CircuitOpen rejection, no retry
  // budget burned (the attempt counters do not move).
  for (uint64_t id = 2; id <= 3; ++id) {
    Response rejected = server.Handle(Ask("chaotic", kQuestion, id));
    EXPECT_EQ(rejected.status, "rejected");
    EXPECT_EQ(rejected.code, "CircuitOpen");
    EXPECT_EQ(rejected.reason, "circuit_open");
  }
  EXPECT_DOUBLE_EQ(
      registry->Value(kMetricRetryAttempts, {{"stage", "serve.ask"}}), 2.0);

  // Cool-down served: the next ask is the half-open probe — one attempt,
  // which the armed fault fails again.
  Response probe = server.Handle(Ask("chaotic", kQuestion, 4));
  EXPECT_EQ(probe.status, "error");
  EXPECT_DOUBLE_EQ(
      registry->Value(kMetricRetryAttempts, {{"stage", "serve.ask"}}), 3.0);
}

TEST_F(ServeTest, FeedThenBiClosesTheLoop) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Request feed;
  feed.id = 1;
  feed.tenant = "a";
  feed.endpoint = Endpoint::kFeed;
  feed.questions = {kQuestion};
  Response fed = server.Handle(feed);
  ASSERT_EQ(fed.status, "ok") << fed.payload;
  EXPECT_EQ(fed.AnswerField("questions_asked"), "1");
  EXPECT_EQ(fed.AnswerField("questions_answered"), "1");
  EXPECT_NE(fed.AnswerField("rows_loaded"), "0");

  Request bi;
  bi.id = 2;
  bi.tenant = "a";
  bi.endpoint = Endpoint::kBi;
  Response analyzed = server.Handle(bi);
  ASSERT_EQ(analyzed.status, "ok") << analyzed.payload;
  EXPECT_NE(analyzed.AnswerField("joined_days"), "0");
  EXPECT_FALSE(analyzed.AnswerField("best_low_c").empty());
  EXPECT_FALSE(analyzed.payload.empty());
}

TEST_F(ServeTest, IngestAppendsToTheCorpusThroughTheServingPath) {
  // Tenant with a mutable store: its own copy of the synthetic web docs.
  ir::DocumentStore docs;
  for (const ir::Document& d : web_->documents().documents()) {
    docs.Add(d.url, d.title, d.format, d.raw);
  }
  ServeTenantConfig tenant = TenantConfig("a", wh_a_.get());
  tenant.docs = &docs;
  tenant.ingest_docs = &docs;
  QaServer server;
  ASSERT_TRUE(server.AddTenant(tenant).ok());

  // First ask builds the index over the initial corpus.
  ASSERT_EQ(server.Handle(Ask("a", kQuestion, 1)).status, "ok");
  const size_t before = docs.size();

  Request ingest;
  ingest.id = 2;
  ingest.tenant = "a";
  ingest.endpoint = Endpoint::kIngest;
  ingest.doc_url = "http://synthetic.test/extra";
  ingest.doc_title = "Extra page";
  ingest.doc_content = "The new terminal of El Prat opened in Barcelona.";
  Response response = server.Handle(ingest);
  ASSERT_EQ(response.status, "ok") << response.payload;
  EXPECT_EQ(response.AnswerField("ingested"), "1");
  EXPECT_EQ(response.AnswerField("documents"), std::to_string(before + 1));
  // The pipeline really appended to its segmented indexes.
  EXPECT_DOUBLE_EQ(server.tenant_pipeline("a")->metrics()->Value(
                       kMetricIndexIngestDocs),
                   1.0);

  // The serving path keeps answering after the corpus grew.
  Request fresh = Ask("a", kQuestion, 3);
  fresh.no_cache = true;
  EXPECT_EQ(server.Handle(fresh).status, "ok");
}

TEST_F(ServeTest, IngestRejectsWhenDisabledEmptyOrMisconfigured) {
  // ingest_docs must alias docs: a separate store is a config error.
  ir::DocumentStore other;
  ServeTenantConfig bad = TenantConfig("x", wh_b_.get());
  bad.ingest_docs = &other;
  QaServer server;
  EXPECT_TRUE(server.AddTenant(bad).IsInvalidArgument());

  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  // Content is mandatory — rejected before touching the tenant.
  Request empty;
  empty.id = 1;
  empty.tenant = "a";
  empty.endpoint = Endpoint::kIngest;
  empty.doc_url = "http://synthetic.test/empty";
  Response no_content = server.Handle(empty);
  EXPECT_EQ(no_content.status, "rejected");
  EXPECT_EQ(no_content.code, "BadRequest");

  // A tenant registered without a mutable store has ingest disabled.
  Request ingest = empty;
  ingest.id = 2;
  ingest.doc_content = "some text";
  Response disabled = server.Handle(ingest);
  EXPECT_EQ(disabled.status, "rejected");
  EXPECT_EQ(disabled.code, "BadRequest");
}

TEST_F(ServeTest, UnansweredAskIsCachedUntilAnIngestAnswersIt) {
  ir::DocumentStore docs;
  QaServer server;
  ASSERT_TRUE(AddIngestTenant(&server, "a", &docs).ok());
  AnswerCache* cache = server.tenant_cache("a");

  Response cold = server.Handle(Ask("a", kElPratQuestion, 1));
  ASSERT_EQ(cold.status, "ok") << cold.payload;
  EXPECT_FALSE(cold.cached);
  ASSERT_TRUE(IsNegative(cold)) << cold.AnswerBlock();
  EXPECT_EQ(cache->size(), 1u);

  // The negative entry is served while the corpus stays as it was, however
  // many ticks pass: the TTL does not apply to it.
  server.AdvanceTicks(10'000);
  Response again = server.Handle(Ask("a", kElPratQuestion, 2));
  EXPECT_TRUE(again.cached);
  EXPECT_FALSE(again.stale);
  EXPECT_EQ(again.AnswerBlock(), cold.AnswerBlock());
  EXPECT_DOUBLE_EQ(CacheLookups(&server, "hit"), 1.0);
  EXPECT_DOUBLE_EQ(CacheLookups(&server, "miss"), 1.0);

  Response ingested = server.Handle(
      Ingest("a", "http://synthetic.test/el-prat", kElPratPage, 3));
  ASSERT_EQ(ingested.status, "ok") << ingested.payload;

  // The ingest made the entry outdated: a counted miss, then a live ask
  // over the grown corpus, which now answers.
  Response answered = server.Handle(Ask("a", kElPratQuestion, 4));
  ASSERT_EQ(answered.status, "ok");
  EXPECT_FALSE(answered.cached);
  EXPECT_EQ(answered.AnswerField("answered"), "1");
  EXPECT_NE(answered.AnswerField("answer").find("Barcelona"),
            std::string::npos)
      << answered.AnswerBlock();
  EXPECT_DOUBLE_EQ(CacheLookups(&server, "hit"), 1.0);
  EXPECT_DOUBLE_EQ(CacheLookups(&server, "miss"), 2.0);
  Response hit = server.Handle(Ask("a", kElPratQuestion, 5));
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.AnswerBlock(), answered.AnswerBlock());

  Request health;
  health.id = 6;
  health.endpoint = Endpoint::kHealth;
  EXPECT_NE(server.Handle(health).payload.find(" generation=1 "),
            std::string::npos);
}

TEST_F(ServeTest, StarvedAskIsNeverCached) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  // Budgets 1 and 2 end in the typed rejection, 3 in a degraded set (an
  // unanswered one, which is a negative entry and outlives any TTL if
  // cached). None of them may be stored.
  for (double budget : {1.0, 2.0, 3.0}) {
    Request starved = Ask("a", kQuestion, 1);
    starved.budget = budget;
    Response response = server.Handle(starved);
    EXPECT_TRUE(response.status == "rejected" ||
                response.AnswerField("degradation") != "Full")
        << "budget " << budget << " was not starved";
    EXPECT_EQ(server.tenant_cache("a")->size(), 0u) << "budget " << budget;
  }

  // So an unstarved ask gets the full answer, never the degraded one.
  Response full = server.Handle(Ask("a", kQuestion, 2));
  ASSERT_EQ(full.status, "ok");
  EXPECT_FALSE(full.cached);
  EXPECT_EQ(full.AnswerField("degradation"), "Full");
  EXPECT_EQ(server.tenant_cache("a")->size(), 1u);
}

TEST_F(ServeTest, NoCacheAskNeverFillsTheCache) {
  ir::DocumentStore docs;
  QaServer server;
  ASSERT_TRUE(AddIngestTenant(&server, "a", &docs).ok());

  for (const char* question : {kQuestion, kElPratQuestion}) {
    ASSERT_EQ(server.Handle(LiveAsk("a", question)).status, "ok");
  }
  EXPECT_EQ(server.tenant_cache("a")->size(), 0u);
  EXPECT_DOUBLE_EQ(server.metrics()->Value(kMetricServeCacheInsertions,
                                           {{"tenant", "a"}}),
                   0.0);
  EXPECT_FALSE(server.Handle(Ask("a", kElPratQuestion, 2)).cached);
}

TEST_F(ServeTest, CachedAnswersEqualLiveAnswersAcrossIngests) {
  // The cached ≡ live oracle. Seeded interleavings of cached asks,
  // nocache asks and ingests on one tenant: every cached negative answer
  // equals a nocache ask at the same generation, every cached positive one
  // equals the live answer of some generation at or before the current
  // one, and live answers at one generation agree.
  const std::vector<std::string> questions = {
      kQuestion,
      kElPratQuestion,
      "What is the capital of Spain?",
      "Which event took place in Barcelona in 1992?",
      "What is the temperature in Madrid in January of 2004?",
      "Who painted the blue horses of the lighthouse?",
  };
  const std::vector<std::string> pages = {
      kElPratPage,
      "Madrid is the capital of Spain.\nMadrid is the largest city of the "
      "country.",
      "The Olympic Games took place in Barcelona in 1992.\nThe Olympic "
      "Games are a famous competition.",
      "The library of Paris holds 9 million books.",
  };
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ir::DocumentStore docs;
    QaServer server;
    ASSERT_TRUE(AddIngestTenant(&server, "a", &docs).ok());
    Rng rng(seed);
    uint64_t generation = 0;
    size_t next_page = 0;
    // (question, generation) -> the live answer block.
    std::map<std::pair<std::string, uint64_t>, std::string> live;
    auto record = [&](const std::string& question, const Response& r) {
      auto [it, inserted] =
          live.emplace(std::make_pair(question, generation), r.AnswerBlock());
      EXPECT_EQ(it->second, r.AnswerBlock())
          << "two live answers at generation " << generation << " to "
          << question;
    };
    size_t cached_negative = 0;
    size_t cached_positive = 0;
    for (uint64_t id = 1; id <= 120; ++id) {
      double draw = rng.NextDouble();
      if (draw < 0.1 && next_page < pages.size()) {
        Response r = server.Handle(Ingest(
            "a", "http://synthetic.test/page" + std::to_string(next_page),
            pages[next_page], id));
        ASSERT_EQ(r.status, "ok") << r.payload;
        ++next_page;
        ++generation;
        continue;
      }
      const std::string& question = questions[rng.NextIndex(questions.size())];
      bool no_cache = draw > 0.8;
      Response r = server.Handle(no_cache ? LiveAsk("a", question, id)
                                          : Ask("a", question, id));
      ASSERT_EQ(r.status, "ok") << r.payload;
      if (!r.cached) {
        record(question, r);
      } else if (IsNegative(r)) {
        ++cached_negative;
        Response now = server.Handle(LiveAsk("a", question, id));
        record(question, now);
        EXPECT_EQ(r.AnswerBlock(), now.AnswerBlock())
            << question << " at generation " << generation;
      } else {
        ++cached_positive;
        bool seen = false;
        for (uint64_t g = 0; g <= generation && !seen; ++g) {
          auto it = live.find({question, g});
          seen = it != live.end() && it->second == r.AnswerBlock();
        }
        EXPECT_TRUE(seen) << question << " at generation " << generation;
      }
    }
    // The oracle is not vacuous: both entry kinds were served, and some
    // negative entry went out of date.
    EXPECT_GT(cached_negative, 0u);
    EXPECT_GT(cached_positive, 0u);
    EXPECT_GT(generation, 0u);
  }
}

TEST_F(ServeTest, HealthAndMetricsBypassAdmissionAndReportTheServer) {
  ServerConfig config;
  config.admission.rate.capacity = 1.0;
  config.admission.rate.refill_per_tick = 0.0001;
  QaServer server(config);
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  // Exhaust the rate budget...
  ASSERT_EQ(server.Handle(Ask("a", kQuestion, 1)).status, "ok");
  ASSERT_EQ(server.Handle(Ask("a", kQuestion, 2)).status, "rejected");

  // ...health and metrics still answer: the server stays observable under
  // overload.
  Request health;
  health.id = 3;
  health.endpoint = Endpoint::kHealth;
  Response healthy = server.Handle(health);
  ASSERT_EQ(healthy.status, "ok");
  EXPECT_EQ(healthy.AnswerField("draining"), "0");
  EXPECT_EQ(healthy.AnswerField("tenants"), "1");
  EXPECT_NE(healthy.payload.find("tenant a:"), std::string::npos);
  EXPECT_NE(healthy.payload.find("rate_limited=1"), std::string::npos);

  Request metrics;
  metrics.id = 4;
  metrics.endpoint = Endpoint::kMetrics;
  Response exported = server.Handle(metrics);
  ASSERT_EQ(exported.status, "ok");
  EXPECT_NE(exported.payload.find("dwqa_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(exported.payload.find("dwqa_qa_questions_total{tenant=\"a\"}"),
            std::string::npos);
}

TEST_F(ServeTest, BiAnswersFromViewsAndMatchesTheRecomputeTenant) {
  // Tenant "viewed" carries a bound derived catalog; tenant "plain" serves
  // the same warehouse contents without one.
  ASSERT_TRUE(integration::LastMinuteSales::GenerateSales(
                  wh_b_.get(), web_->weather(), Date(2004, 1, 1), 60)
                  .ok());
  dw::ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.DefineAll(dw::DeriveViewsFromSchema(wh_a_->schema())).ok());
  wh_a_->AttachViews(&catalog);
  ASSERT_TRUE(catalog.Bind(*wh_a_).ok());

  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("viewed", wh_a_.get())).ok());
  ASSERT_TRUE(server.AddTenant(TenantConfig("plain", wh_b_.get())).ok());
  for (const char* tenant : {"viewed", "plain"}) {
    Request feed;
    feed.id = 1;
    feed.tenant = tenant;
    feed.endpoint = Endpoint::kFeed;
    feed.questions = {kQuestion};
    ASSERT_EQ(server.Handle(feed).status, "ok") << tenant;
  }

  Request bi;
  bi.id = 2;
  bi.endpoint = Endpoint::kBi;
  bi.tenant = "viewed";
  Response viewed = server.Handle(bi);
  ASSERT_EQ(viewed.status, "ok") << viewed.payload;
  EXPECT_EQ(viewed.AnswerField("bi_mode"), "view_first");
  EXPECT_EQ(viewed.AnswerField("sales_from_view"), "1");
  EXPECT_EQ(viewed.AnswerField("weather_from_view"), "1");
  bi.tenant = "plain";
  Response plain = server.Handle(bi);
  ASSERT_EQ(plain.status, "ok") << plain.payload;
  EXPECT_EQ(plain.AnswerField("sales_from_view"), "0");
  EXPECT_EQ(plain.AnswerField("weather_from_view"), "0");

  // Byte-identity at the serving layer: same warehouse contents, same
  // analysis — view-answered or recomputed.
  EXPECT_EQ(viewed.payload, plain.payload);
  for (const char* field : {"joined_days", "correlation", "best_low_c",
                            "best_high_c", "best_avg_tickets",
                            "best_observations"}) {
    EXPECT_EQ(viewed.AnswerField(field), plain.AnswerField(field)) << field;
  }
  // The view-backed estimate touches group cardinalities, not fact rows.
  EXPECT_LT(std::stoul(viewed.AnswerField("estimated_rows")),
            std::stoul(plain.AnswerField("estimated_rows")));
}

TEST_F(ServeTest, ExpensiveBiIsShedFirstWithoutViews) {
  // One cost unit per fact row makes the 60-day sales table expensive;
  // the ceiling degrades the request to view-only, and with no views to
  // fall back on it is shed with the typed bi_cost rejection.
  ServerConfig config;
  config.bi_rows_per_cost_unit = 1.0;
  config.max_bi_cost = 5.0;
  QaServer server(config);
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Request bi;
  bi.id = 1;
  bi.tenant = "a";
  bi.endpoint = Endpoint::kBi;
  Response shed = server.Handle(bi);
  EXPECT_EQ(shed.status, "rejected");
  EXPECT_EQ(shed.code, "Overloaded");
  EXPECT_EQ(shed.reason, "bi_cost");
  EXPECT_NE(shed.payload.find("max_bi_cost"), std::string::npos);

  // An ask on the same tenant still flows: only the expensive analysis
  // shed, not the tenant.
  EXPECT_EQ(server.Handle(Ask("a", kQuestion, 2)).status, "ok");
}

TEST_F(ServeTest, ViewsKeepExpensiveBiUnderTheCeiling) {
  dw::ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.DefineAll(dw::DeriveViewsFromSchema(wh_a_->schema())).ok());
  wh_a_->AttachViews(&catalog);
  ASSERT_TRUE(catalog.Bind(*wh_a_).ok());

  ServerConfig config;
  config.bi_rows_per_cost_unit = 1.0;
  config.max_bi_cost = 5.0;
  QaServer server(config);
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());
  Request feed;
  feed.id = 1;
  feed.tenant = "a";
  feed.endpoint = Endpoint::kFeed;
  feed.questions = {kQuestion};
  ASSERT_EQ(server.Handle(feed).status, "ok");

  // Same pressure as the shed test — but the catalog covers both
  // aggregates, so the estimate stays at group cardinality and the
  // request is answered from views instead of being shed.
  Request bi;
  bi.id = 2;
  bi.tenant = "a";
  bi.endpoint = Endpoint::kBi;
  Response answered = server.Handle(bi);
  ASSERT_EQ(answered.status, "ok") << answered.payload;
  EXPECT_EQ(answered.AnswerField("bi_mode"), "view_first");
  EXPECT_EQ(answered.AnswerField("sales_from_view"), "1");
}

TEST_F(ServeTest, AdmissionCostBudgetWeighsBiByItsEstimate) {
  // Cost budget below the recompute estimate: the admission controller
  // sheds the un-viewed bi before execution with the cost_budget reason.
  ServerConfig config;
  config.bi_rows_per_cost_unit = 1.0;
  config.admission.max_queued_cost = 50.0;
  QaServer server(config);
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Request bi;
  bi.id = 1;
  bi.tenant = "a";
  bi.endpoint = Endpoint::kBi;
  Response shed = server.Handle(bi);
  EXPECT_EQ(shed.status, "rejected");
  EXPECT_EQ(shed.code, "Overloaded");
  EXPECT_EQ(shed.reason, "cost_budget");

  // With views attached the same request weighs its floor cost of 4 and
  // clears the same budget.
  dw::ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.DefineAll(dw::DeriveViewsFromSchema(wh_b_->schema())).ok());
  wh_b_->AttachViews(&catalog);
  ASSERT_TRUE(catalog.Bind(*wh_b_).ok());
  ASSERT_TRUE(server.AddTenant(TenantConfig("b", wh_b_.get())).ok());
  bi.id = 2;
  bi.tenant = "b";
  Response cheap = server.Handle(bi);
  // Empty warehouse: the analysis itself finds nothing to join, but the
  // request was ADMITTED — the estimator weighed the views, not the scan.
  EXPECT_NE(cheap.reason, "cost_budget");
}

TEST_F(ServeTest, BiFederatedScopeWithoutFederationIsRejected) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a", wh_a_.get())).ok());

  Request bi;
  bi.id = 1;
  bi.tenant = "a";
  bi.endpoint = Endpoint::kBi;
  bi.scope = "federated";
  Response rejected = server.Handle(bi);
  EXPECT_EQ(rejected.status, "rejected");
  EXPECT_EQ(rejected.code, "BadRequest");
  EXPECT_NE(rejected.payload.find("no federation attached"),
            std::string::npos)
      << rejected.payload;

  // scope=local is the explicit spelling of the default path, not an error
  // (it may still fail the analysis itself on an unfed warehouse).
  Request local = bi;
  local.id = 2;
  local.scope = "local";
  Response answered = server.Handle(local);
  EXPECT_NE(answered.status, "rejected");
}

TEST_F(ServeTest, BiFederatedFansOutAndAnnotatesCoverage) {
  // A partner warehouse supplies the weather the local tenant never fed:
  // only the federated scope can join sales against it.
  auto partner = std::make_unique<dw::Warehouse>(
      dw::fed::PartnerAirline::MakeWarehouse().ValueOrDie());
  ASSERT_TRUE(dw::fed::PartnerAirline::GeneratePartnerSales(
                  partner.get(), Date(2004, 1, 1), 31)
                  .ok());
  ASSERT_TRUE(dw::fed::PartnerAirline::GeneratePartnerWeather(
                  partner.get(), Date(2004, 1, 1), 31)
                  .ok());
  dw::fed::SchemaMatcher matcher(
      dw::fed::PartnerAirline::DefaultMatcherOptions());
  auto mapping = matcher.Match(*wh_a_, *partner);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  dw::fed::FederatedEngine engine(wh_a_.get());
  ASSERT_TRUE(engine.AddRemote("partner", partner.get(), *mapping).ok());

  ServeTenantConfig tenant = TenantConfig("a", wh_a_.get());
  tenant.federation = &engine;
  QaServer server;
  ASSERT_TRUE(server.AddTenant(tenant).ok());

  // The local scope has no weather to join against…
  Request local_bi;
  local_bi.id = 1;
  local_bi.tenant = "a";
  local_bi.endpoint = Endpoint::kBi;
  Response local_answer = server.Handle(local_bi);
  EXPECT_EQ(local_answer.status, "error");

  // …while the federated scope answers from both members' shares.
  Request fed_bi = local_bi;
  fed_bi.id = 2;
  fed_bi.scope = "federated";
  Response fed_answer = server.Handle(fed_bi);
  ASSERT_EQ(fed_answer.status, "ok") << fed_answer.payload;
  EXPECT_EQ(fed_answer.AnswerField("bi_mode"), "federated");
  EXPECT_EQ(fed_answer.AnswerField("coverage"), "full");
  EXPECT_EQ(fed_answer.AnswerField("fed_members"), "2");
  EXPECT_EQ(fed_answer.AnswerField("sales_coverage"), "full");
  EXPECT_EQ(fed_answer.AnswerField("weather_coverage"), "full");
  EXPECT_NE(fed_answer.AnswerField("joined_days"), "0");
  EXPECT_FALSE(fed_answer.AnswerField("joined_days").empty());
  EXPECT_FALSE(fed_answer.AnswerField("best_low_c").empty());
  EXPECT_FALSE(fed_answer.payload.empty());
}

}  // namespace
}  // namespace serve
}  // namespace dwqa
