// Graceful-shutdown tests: drain completes every accepted request,
// snapshots each durable tenant, rejects late arrivals with the typed
// Draining code, and the framed serving loop settles every frame before
// draining.
// Runs under the `threads` label too: the concurrent-client tests are the
// TSan surface of the serving layer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/date.h"
#include "common/metric_names.h"
#include "common/thread_pool.h"
#include "dw/recovery.h"
#include "dw/snapshot.h"
#include "integration/last_minute_sales.h"
#include "ir/document.h"
#include "serve/server.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace serve {
namespace {

constexpr char kQuestion[] =
    "What is the temperature in Barcelona in January of 2004?";

// Requests that reached Execute, from its latency histogram.
uint64_t ExecutedRequests(QaServer& server) {
  uint64_t executed = 0;
  for (const MetricSnapshot& series :
       server.metrics()->SnapshotFamily(kMetricServeRequestLatency)) {
    executed += series.count;
  }
  return executed;
}

class DrainTest : public ::testing::Test {
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
  }

  ServeTenantConfig TenantConfig(const std::string& name) {
    ServeTenantConfig tenant;
    tenant.name = name;
    tenant.warehouse = wh_.get();
    tenant.uml = &uml_;
    tenant.docs = &web_->documents();
    tenant.pipeline = integration::LastMinuteSales::DefaultPipelineConfig();
    tenant.retry.sleep = false;
    return tenant;
  }

  Request Ask(const std::string& question, uint64_t id) {
    Request request;
    request.id = id;
    request.tenant = "a";
    request.endpoint = Endpoint::kAsk;
    request.questions = {question};
    return request;
  }

  std::unique_ptr<web::SyntheticWeb> web_;
  ontology::UmlModel uml_;
  std::unique_ptr<dw::Warehouse> wh_;
};

TEST_F(DrainTest, DrainFlushesCheckpointAndRejectsLateArrivals) {
  const std::string dir = ::testing::TempDir() + "/dwqa_serve_drain_wal." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  ServeTenantConfig tenant = TenantConfig("a");
  tenant.pipeline.resilience.durability.dir = dir;
  QaServer server;
  ASSERT_TRUE(server.AddTenant(tenant).ok());

  Request feed;
  feed.id = 1;
  feed.tenant = "a";
  feed.endpoint = Endpoint::kFeed;
  feed.questions = {kQuestion};
  ASSERT_EQ(server.Handle(feed).status, "ok");

  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  // Late arrivals get the typed Draining rejection, not an error and not a
  // hang.
  Response late = server.Handle(Ask(kQuestion, 2));
  EXPECT_EQ(late.status, "rejected");
  EXPECT_EQ(late.code, "Draining");
  EXPECT_EQ(late.reason, "draining");
  // It is rejected once and holds no admission.
  MetricRegistry* metrics = server.metrics();
  EXPECT_DOUBLE_EQ(
      metrics->Value(kMetricServeRejections, {{"reason", "draining"}}), 1.0);
  EXPECT_DOUBLE_EQ(metrics->FamilySum(kMetricServeRejections), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics->Value(kMetricServeRequests,
                     {{"endpoint", "ask"}, {"outcome", "rejected"}}),
      1.0);
  EXPECT_DOUBLE_EQ(metrics->Value(kMetricServeQueueDepth), 0.0);
  EXPECT_DOUBLE_EQ(
      metrics->Value(kMetricServeTenantInflight, {{"tenant", "a"}}), 0.0);
  EXPECT_EQ(server.inflight(), 0u);

  // Health still answers while draining and says so.
  Request health;
  health.id = 3;
  health.endpoint = Endpoint::kHealth;
  Response healthy = server.Handle(health);
  ASSERT_EQ(healthy.status, "ok");
  EXPECT_EQ(healthy.AnswerField("draining"), "1");

  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(server.inflight(), 0u);
  EXPECT_DOUBLE_EQ(server.metrics()->Value(kMetricServeDraining), 1.0);

  // The drain snapshotted the tenant: the warehouse and the committed
  // question come back from the snapshot, and a fresh pipeline on the
  // same root resumes the question instead of re-asking it.
  EXPECT_EQ(dw::ListSnapshots(dir).ValueOrDie().size(), 1u);
  dw::RecoveryOptions options;
  options.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
  auto recovered = dw::Recovery::Open(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->replayed, 0u);
  EXPECT_EQ(recovered->commits.questions, std::set<std::string>{kQuestion});
  integration::PipelineConfig config =
      integration::LastMinuteSales::DefaultPipelineConfig();
  config.resilience.durability.dir = dir;
  integration::IntegrationPipeline resumed(&recovered->warehouse, &uml_,
                                           config);
  ASSERT_TRUE(resumed.RunAll(&web_->documents()).ok());
  auto report = resumed.RunStep5({kQuestion}, "Weather", "temperature");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->questions_resumed, 1u);

  // Drain is idempotent.
  ASSERT_TRUE(server.Drain().ok());
  std::filesystem::remove_all(dir);
}

TEST_F(DrainTest, ConcurrentClientsAllSettleAcrossADrain) {
  ServerConfig config;
  config.admission.max_queue_depth = 8;
  config.admission.per_tenant_concurrency = 4;
  QaServer server(config);
  ASSERT_TRUE(server.AddTenant(TenantConfig("a")).ok());

  const std::vector<std::string> questions = {
      "What is the temperature in Barcelona in January of 2004?",
      "What is the temperature in Madrid in January of 2004?",
      "What is the temperature in Alicante in January of 2004?",
  };

  ThreadPool clients(4);
  std::vector<std::future<Response>> responses;
  for (uint64_t id = 1; id <= 16; ++id) {
    const std::string& question = questions[id % questions.size()];
    responses.push_back(clients.Submit(
        [this, &server, question, id] { return server.Handle(Ask(question, id)); }));
  }
  // Drain while clients are still in flight: accepted requests complete,
  // the rest get typed rejections.
  server.RequestDrain();
  ASSERT_TRUE(server.Drain().ok());
  // Nothing executes behind a drain: a request that passed the first
  // drain check but was admitted after the flag was set is rejected, not
  // run. Execute books its latency before releasing its admission, so the
  // count read here covers every request Drain waited for.
  const uint64_t executed_before_drain_returned = ExecutedRequests(server);

  size_t answered = 0;
  size_t rejected = 0;
  for (auto& future : responses) {
    Response response = future.get();
    if (response.status == "ok") {
      ++answered;
      EXPECT_FALSE(response.AnswerField("degradation").empty());
    } else {
      ASSERT_EQ(response.status, "rejected") << response.payload;
      ++rejected;
      // Every rejection is typed — a client can always tell what to do.
      EXPECT_TRUE(response.code == "Overloaded" ||
                  response.code == "Draining")
          << response.code;
    }
  }
  EXPECT_EQ(answered + rejected, 16u);
  EXPECT_EQ(answered, executed_before_drain_returned);
  EXPECT_EQ(server.inflight(), 0u);
}

// Clients that ask until they are turned away cross each drain at every
// point of Handle, the gap between its first drain check and its admission
// included: every request either ran before Drain returned or was
// rejected as draining. The interleaving that would run a request behind
// the drain is rare, so the test drains many servers; a one-document
// corpus keeps each cheap to build.
TEST_F(DrainTest, NothingExecutesBehindADrain) {
  constexpr int kRounds = 50;
  constexpr int kClients = 2;
  ir::DocumentStore docs;
  docs.Add("http://weather.example/bcn", "Barcelona",
           ir::DocFormat::kPlainText,
           "The temperature in Barcelona in January of 2004 was 12 degrees.");
  ServeTenantConfig tenant = TenantConfig("a");
  tenant.docs = &docs;
  for (int round = 0; round < kRounds; ++round) {
    QaServer server;
    ASSERT_TRUE(server.AddTenant(tenant).ok());
    std::atomic<uint64_t> next_id{1};
    std::vector<size_t> answered(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (true) {
          Response response = server.Handle(Ask(kQuestion, next_id++));
          if (response.status != "ok") {
            EXPECT_EQ(response.code, "Draining") << response.payload;
            return;
          }
          ++answered[c];
        }
      });
    }
    // Drain once the clients are asking.
    while (ExecutedRequests(server) < 8) std::this_thread::yield();
    EXPECT_TRUE(server.Drain().ok());
    const uint64_t executed_before_drain_returned = ExecutedRequests(server);
    size_t total = 0;
    for (int c = 0; c < kClients; ++c) {
      clients[c].join();
      total += answered[c];
    }
    EXPECT_EQ(total, executed_before_drain_returned) << "round " << round;
    EXPECT_EQ(server.inflight(), 0u);
  }
}

TEST_F(DrainTest, ServeStreamAnswersEveryFrameThenDrains) {
  QaServer server;
  ASSERT_TRUE(server.AddTenant(TenantConfig("a")).ok());

  Framing framing;
  std::stringstream in;
  ASSERT_TRUE(framing.WriteFrame(in, Ask(kQuestion, 1).Serialize()).ok());
  ASSERT_TRUE(framing.WriteFrame(in, Ask(kQuestion, 2).Serialize()).ok());
  // A well-framed but malformed request: answered in order, session lives.
  ASSERT_TRUE(framing.WriteFrame(in, "endpoint=warp\nid=9\n").ok());
  Request health;
  health.id = 3;
  health.endpoint = Endpoint::kHealth;
  ASSERT_TRUE(framing.WriteFrame(in, health.Serialize()).ok());

  std::stringstream out;
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  EXPECT_TRUE(server.draining());

  std::vector<Response> responses;
  while (true) {
    auto body = framing.ReadFrame(out);
    if (!body.ok()) {
      ASSERT_TRUE(body.status().IsNotFound()) << body.status().message();
      break;
    }
    auto parsed = Response::Parse(*body);
    ASSERT_TRUE(parsed.ok());
    responses.push_back(*parsed);
  }
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].id, 1u);
  EXPECT_EQ(responses[0].status, "ok");
  EXPECT_FALSE(responses[0].cached);
  EXPECT_EQ(responses[1].id, 2u);
  EXPECT_TRUE(responses[1].cached);
  EXPECT_EQ(responses[1].AnswerBlock(), responses[0].AnswerBlock());
  EXPECT_EQ(responses[2].status, "rejected");
  EXPECT_EQ(responses[2].code, "BadRequest");
  EXPECT_EQ(responses[3].id, 3u);
  EXPECT_EQ(responses[3].status, "ok");
}

}  // namespace
}  // namespace serve
}  // namespace dwqa
