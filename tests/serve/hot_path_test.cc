// Cached-ask hot path tests: the serving layer's per-request series are
// resolved once and kept (common/metrics MetricSlot), so these pin what
// that must not change — exact counts under concurrent clients, series
// created only when first used, and a valid, catalogued exposition — and
// cached negative answers stay consistent while ingests race with asks.
// Runs under the `threads` label too: three clients share one server.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/metric_names.h"
#include "common/thread_pool.h"
#include "integration/last_minute_sales.h"
#include "serve/server.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace serve {
namespace {

constexpr char kQuestion[] =
    "What is the temperature in Barcelona in January of 2004?";
constexpr size_t kClients = 3;
constexpr size_t kAsksPerClient = 40;

class HotPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    web::WebConfig config;
    config.seed = 42;
    config.months = {1};
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
    uml_ = integration::LastMinuteSales::MakeUmlModel();
    wh_ = std::make_unique<dw::Warehouse>(
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie());
    ASSERT_TRUE(integration::LastMinuteSales::GenerateSales(
                    wh_.get(), web_->weather(), Date(2004, 1, 1), 60)
                    .ok());
    ServeTenantConfig tenant;
    tenant.name = "a";
    tenant.warehouse = wh_.get();
    tenant.uml = &uml_;
    tenant.docs = &web_->documents();
    tenant.pipeline = integration::LastMinuteSales::DefaultPipelineConfig();
    tenant.retry.sleep = false;
    ASSERT_TRUE(server_.AddTenant(tenant).ok());
  }

  Request Ask(uint64_t id) {
    Request request;
    request.id = id;
    request.tenant = "a";
    request.endpoint = Endpoint::kAsk;
    request.questions = {kQuestion};
    return request;
  }

  /// One live ask that fills the cache, then kClients clients each sending
  /// kAsksPerClient cached asks of the same question.
  void ServeCachedAsks() {
    Response warm = server_.Handle(Ask(0));
    ASSERT_EQ(warm.status, "ok");
    ASSERT_FALSE(warm.cached);
    ThreadPool clients(kClients);
    clients.ParallelFor(kClients, [&](size_t client) {
      for (size_t i = 0; i < kAsksPerClient; ++i) {
        Response response =
            server_.Handle(Ask(1 + client * kAsksPerClient + i));
        EXPECT_EQ(response.status, "ok");
        EXPECT_TRUE(response.cached);
      }
    });
  }

  std::unique_ptr<web::SyntheticWeb> web_;
  ontology::UmlModel uml_;
  std::unique_ptr<dw::Warehouse> wh_;
  QaServer server_;
};

TEST_F(HotPathTest, ConcurrentCachedAsksCountExactly) {
  ServeCachedAsks();
  const double cached = kClients * kAsksPerClient;
  MetricRegistry* metrics = server_.metrics();
  EXPECT_DOUBLE_EQ(metrics->Value(kMetricServeCacheLookups,
                                  {{"tenant", "a"}, {"result", "hit"}}),
                   cached);
  EXPECT_DOUBLE_EQ(metrics->Value(kMetricServeCacheLookups,
                                  {{"tenant", "a"}, {"result", "miss"}}),
                   1.0);
  EXPECT_DOUBLE_EQ(metrics->Value(kMetricServeRequests,
                                  {{"endpoint", "ask"}, {"outcome", "ok"}}),
                   cached + 1.0);
  EXPECT_DOUBLE_EQ(metrics->FamilySum(kMetricServeRequests), cached + 1.0);
  auto latency = metrics->SnapshotFamily(kMetricServeRequestLatency);
  ASSERT_EQ(latency.size(), 1u);
  EXPECT_EQ(latency[0].count, kClients * kAsksPerClient + 1);
  // Every admission was released, and the kept gauges saw the last write.
  EXPECT_DOUBLE_EQ(metrics->Value(kMetricServeQueueDepth), 0.0);
  EXPECT_DOUBLE_EQ(metrics->Value(kMetricServeQueuedCost), 0.0);
  EXPECT_DOUBLE_EQ(
      metrics->Value(kMetricServeTenantInflight, {{"tenant", "a"}}), 0.0);
}

TEST_F(HotPathTest, AskOnlyServerExportsNoOtherEndpointSeries) {
  ServeCachedAsks();
  MetricRegistry* metrics = server_.metrics();
  for (const char* family :
       {kMetricServeRequests, kMetricServeRequestLatency}) {
    for (const MetricSnapshot& series : metrics->SnapshotFamily(family)) {
      EXPECT_EQ(series.labels.at("endpoint"), "ask") << family;
    }
  }
  for (const MetricSnapshot& series :
       metrics->SnapshotFamily(kMetricServeCacheLookups)) {
    EXPECT_NE(series.labels.at("result"), "stale");
  }
  std::string exposition = metrics->ExportPrometheus();
  EXPECT_EQ(exposition.find("endpoint=\"feed\""), std::string::npos);
  EXPECT_EQ(exposition.find("endpoint=\"bi\""), std::string::npos);
}

TEST_F(HotPathTest, MetricsExpositionPassesTheMetricsLint) {
  // A second tenant with its own pipeline registry: its families are the
  // same as tenant a's, so only a `tenant` label keeps the merged
  // exposition valid.
  auto wh_b = std::make_unique<dw::Warehouse>(
      integration::LastMinuteSales::MakeWarehouse().ValueOrDie());
  ServeTenantConfig tenant_b;
  tenant_b.name = "b";
  tenant_b.warehouse = wh_b.get();
  tenant_b.uml = &uml_;
  tenant_b.docs = &web_->documents();
  tenant_b.pipeline = integration::LastMinuteSales::DefaultPipelineConfig();
  tenant_b.retry.sleep = false;
  ASSERT_TRUE(server_.AddTenant(tenant_b).ok());
  Request ask_b = Ask(999);
  ask_b.tenant = "b";
  ASSERT_EQ(server_.Handle(ask_b).status, "ok");
  ServeCachedAsks();
  Request request;
  request.id = 1000;
  request.endpoint = Endpoint::kMetrics;
  Response exported = server_.Handle(request);
  ASSERT_EQ(exported.status, "ok");

  std::ifstream catalogue_file(std::string(DWQA_SOURCE_DIR) +
                               "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(catalogue_file.good());
  std::stringstream catalogue;
  catalogue << catalogue_file.rdbuf();

  // Valid exposition: one TYPE line per family, no duplicate series; and
  // the metrics lint's catalogue contract: every family is documented.
  std::map<std::string, int> type_lines;
  std::set<std::string> series;
  std::istringstream lines(exported.payload);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::string family = line.substr(7, line.find(' ', 7) - 7);
      ++type_lines[family];
      EXPECT_NE(catalogue.str().find("`" + family + "`"), std::string::npos)
          << family << " is missing from docs/OBSERVABILITY.md";
    } else if (!line.empty() && line[0] != '#') {
      std::string key = line.substr(0, line.rfind(' '));
      EXPECT_TRUE(series.insert(key).second) << "duplicate series " << key;
    }
  }
  EXPECT_GT(type_lines.count(kMetricServeCacheLookups), 0u);
  EXPECT_GT(type_lines.count(kMetricServeRequests), 0u);
  EXPECT_GT(type_lines.count(kMetricQaQuestions), 0u);
  for (const auto& [family, count] : type_lines) {
    EXPECT_EQ(count, 1) << family;
  }
  // Each tenant's pipeline series are told apart by the label.
  for (const char* tenant : {"a", "b"}) {
    EXPECT_EQ(series.count(std::string(kMetricQaQuestions) + "{tenant=\"" +
                           tenant + "\"}"),
              1u)
        << tenant;
  }
}

TEST_F(HotPathTest, NegativeEntriesConvergeWhileIngestsRaceAsks) {
  // A tenant whose corpus cannot yet answer the El Prat question. One
  // client ingests the page that answers it (and two more) while the
  // others keep asking; however the asks and ingests interleave, once the
  // last ingest is done a cached ask must equal a live one.
  constexpr char kElPrat[] = "In which city is El Prat located?";
  web::WebConfig config;
  config.seed = 42;
  config.encyclopedia = false;
  config.noise_pages = 0;
  web::SyntheticWeb bare = web::SyntheticWeb::Build(config).ValueOrDie();
  ir::DocumentStore docs;
  for (const ir::Document& d : bare.documents().documents()) {
    docs.Add(d.url, d.title, d.format, d.raw);
  }
  ServeTenantConfig tenant;
  tenant.name = "g";
  tenant.warehouse = wh_.get();
  tenant.uml = &uml_;
  tenant.docs = &docs;
  tenant.ingest_docs = &docs;
  tenant.pipeline = integration::LastMinuteSales::DefaultPipelineConfig();
  tenant.retry.sleep = false;
  ASSERT_TRUE(server_.AddTenant(tenant).ok());
  const std::vector<std::string> pages = {
      "The library of Paris holds 9 million books.",
      "El Prat airport is located in the city of Barcelona.",
      "A chess tournament with 46 players was held in Valencia."};

  ThreadPool clients(kClients);
  clients.ParallelFor(kClients, [&](size_t client) {
    for (size_t i = 0; i < kAsksPerClient; ++i) {
      Request request;
      request.id = client * kAsksPerClient + i;
      request.tenant = "g";
      if (client == 0 && i % 10 == 5 && i / 10 < pages.size()) {
        request.endpoint = Endpoint::kIngest;
        request.doc_url = "http://synthetic.test/race" + std::to_string(i);
        request.doc_content = pages[i / 10];
      } else {
        request.questions = {i % 2 == 0 ? kElPrat : kQuestion};
      }
      EXPECT_EQ(server_.Handle(request).status, "ok");
    }
  });

  Request cached;
  cached.tenant = "g";
  cached.questions = {kElPrat};
  Request live = cached;
  live.no_cache = true;
  Response from_cache = server_.Handle(cached);
  Response from_corpus = server_.Handle(live);
  EXPECT_EQ(from_corpus.AnswerField("answer"), "Barcelona");
  EXPECT_EQ(from_cache.AnswerBlock(), from_corpus.AnswerBlock());
}

}  // namespace
}  // namespace serve
}  // namespace dwqa
