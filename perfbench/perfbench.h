// Shared types of the dwqa end-to-end benchmark (see README.md).
//
// A run builds a Fixture (warehouses, corpora, tenants registered on one
// serve::QaServer), drives it with a workload's closed-loop clients through
// QaServer::Handle, and checks the outputs against ground truth once the
// clock has stopped.

#ifndef DWQA_PERFBENCH_PERFBENCH_H_
#define DWQA_PERFBENCH_PERFBENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "dw/federation/federated_engine.h"
#include "dw/federation/schema_mapping.h"
#include "dw/materialized_view.h"
#include "dw/warehouse.h"
#include "ir/document.h"
#include "ontology/uml_model.h"
#include "serve/server.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace perfbench {

using namespace dwqa;

enum class Workload { kAskLive, kFeedBi, kServeMix };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);
/// Closed-loop clients of the untraced run (the traced run uses one).
size_t ClientCount(Workload workload);

/// What one set-up builds.
struct FixtureSpec {
  Workload workload = Workload::kAskLive;
  /// feed_bi: tenants fed once each during the run.
  size_t fed_tenants = 0;
  /// Register tenants with PipelineConfig::trace_questions (traced run).
  bool traced = false;
  /// feed_bi: directory under which each fed tenant gets its WAL.
  std::string wal_root;
};

/// A feed_bi tenant that is fed exactly once.
struct FedTenant {
  std::string name;
  dw::Warehouse* warehouse = nullptr;
  std::string wal_dir;
};

/// Everything one set-up owns. Members are declared in dependency order:
/// the server, declared last, is destroyed first.
struct Fixture {
  FixtureSpec spec;
  std::unique_ptr<web::SyntheticWeb> web;
  ontology::UmlModel uml;
  /// The ask pool: weather, airport-phrased weather and CLEF-style gold
  /// questions.
  std::vector<web::GoldQuestion> questions;
  /// The 108 (city, month) weather questions a feed_bi tenant is fed.
  std::vector<std::string> feed_questions;
  /// Pages kept out of the set-up corpus for serve_mix `ingest`.
  std::vector<ir::Document> withheld;
  /// Withheld pages handed out so far.
  std::atomic<size_t> ingest_cursor{0};
  /// The federation engine's series (the engine is wired before the
  /// tenant registries exist; view catalogs report to their tenant's).
  MetricRegistry fed_metrics;
  std::vector<std::unique_ptr<ir::DocumentStore>> stores;
  std::vector<std::unique_ptr<dw::ViewCatalog>> catalogs;
  std::vector<std::unique_ptr<dw::Warehouse>> warehouses;
  std::unique_ptr<dw::Warehouse> partner;
  dw::fed::SchemaMapping mapping;
  std::unique_ptr<ThreadPool> fed_pool;
  std::unique_ptr<dw::fed::FederatedEngine> federation;
  /// Tenants that take asks (ask_live, serve_mix).
  std::vector<std::string> tenants;
  std::vector<FedTenant> fed_tenants;
  /// feed_bi: the view-less tenant with the long sales history; its
  /// federation reaches the partner warehouse.
  std::string archive;
  dw::Warehouse* archive_warehouse = nullptr;
  std::unique_ptr<serve::QaServer> server;
};

Result<std::unique_ptr<Fixture>> BuildFixture(const FixtureSpec& spec);

/// Request classes the benchmark times separately.
enum class Kind { kAsk, kFeed, kBiView, kBiRecompute, kBiFederated, kIngest };
inline constexpr size_t kKinds = 6;
const char* KindName(Kind kind);

/// One request with what the benchmark needs to check its reply.
struct Planned {
  Kind kind = Kind::kAsk;
  serve::Request request;
  /// Asks: the gold question asked.
  const web::GoldQuestion* gold = nullptr;
  /// View read of a tenant whose feed is complete: its best range must
  /// overlap the planted interval.
  bool final_read = false;
};

using Clock = std::chrono::steady_clock;

/// The request stream of one client. Same (fixture shape, seed, client)
/// gives the same requests.
///
/// serve_mix ingests do not depend on throughput. Given `start`, the
/// clients together ingest one withheld page per kIngestPeriodS of wall
/// time since `start`; without it (the traced run's single client), one
/// every kTracedIngestEvery requests. Each withheld page is ingested at
/// most once, the pages going to the tenants in turn.
class Traffic {
 public:
  Traffic(Fixture* fixture, uint64_t seed, size_t client,
          std::optional<Clock::time_point> start);
  /// False when the workload's finite stream is exhausted.
  bool Next(Planned* out);

 private:
  Planned MakeAsk(const std::string& tenant, size_t question, bool no_cache);
  Planned MakeBi(Kind kind, const std::string& tenant, bool final_read);
  void PlanFeedBi(uint64_t seed);
  /// serve_mix: claims the next withheld page if an ingest is due.
  bool NextIngest(uint64_t index, Planned* out);

  Fixture* fixture_;
  uint64_t state_;
  size_t client_;
  std::optional<Clock::time_point> start_;
  uint64_t issued_ = 0;
  /// ask_live: the shuffled (tenant, question) cycle.
  std::vector<std::pair<size_t, size_t>> cycle_;
  /// feed_bi: the whole finite sequence.
  std::vector<Planned> plan_;
  /// serve_mix: cumulative Zipf weights over the question pool.
  std::vector<double> zipf_;
};

/// The host's speed, measured beside the run with a fixed piece of work
/// that is not dwqa code: random lookups in a string-keyed hash table too
/// large for the core's own caches. The benchmark shares its host, whose
/// speed drifts by a third over minutes; dwqa's request latency follows
/// this probe's time closely (slope 1.0 on a 4-core VM, correlation 0.91
/// over one-second windows), so the timings it reports are scaled by it.
class HostProbe {
 public:
  /// Builds the table (untimed; about 18 MB, kept for the process).
  HostProbe();
  /// Times one pass. `cursor` is the caller's own position in the table.
  double RunMs(uint64_t* cursor) const;

 private:
  std::vector<std::string> keys_;
  std::unordered_map<std::string, uint32_t> table_;
};

/// The reference host is one on which a probe pass takes this long (a
/// 4-core Xeon VM reads 1.0 to 1.8 ms as its neighbours' load changes):
/// every timing the benchmark reports is scaled to that host.
inline constexpr double kProbeReferenceMs = 1.0;
/// Wall-time windows of a run, each scaled by its own probe median.
inline constexpr double kProbeWindowS = 0.5;
/// A client runs the probe once per this much wall time.
inline constexpr double kProbePeriodS = 0.04;

/// One probe pass during a run.
struct ProbeSample {
  uint32_t client = 0;
  uint32_t window = 0;
  double ms = 0.0;
};

/// Host speed per client and window of a run: the median time of the
/// client's probe passes in the window over kProbeReferenceMs (above 1 when
/// the client's core is slower than the reference). Each client is scaled
/// by its own core, since the host slows cores unevenly. A window without
/// a pass takes the factor of the client's window before it, and a window
/// before the client's first pass its median over the run.
std::vector<std::vector<double>> WindowFactors(
    const std::vector<ProbeSample>& probes, size_t clients, size_t windows);

/// One executed (ok) request.
struct Sample {
  Kind kind = Kind::kAsk;
  /// An ask served from the answer cache.
  bool cached = false;
  /// An ask sent with no_cache=1.
  bool no_cache = false;
  /// QaServer::Handle latency.
  double ms = 0.0;
  /// Answers (asks) or Weather rows (feeds) the request delivered.
  size_t work = 0;
  /// The client that sent the request, and the probe window it was sent
  /// in.
  uint32_t client = 0;
  uint32_t window = 0;
};

/// Executed requests per client whose latency a closed loop keeps: a
/// uniform random sample of this many (all of them in a shorter run). The
/// sample's memory is allocated before the run, so the benchmark's own
/// share of peak_rss_mb does not grow with throughput.
inline constexpr size_t kKeptSamples = 100000;

/// What a closed loop observed (merged over clients).
struct RunLog {
  /// A uniform random sample of the executed requests, at the same rate
  /// for every client.
  std::vector<Sample> samples;
  /// Executed (ok) requests per Kind, all of them.
  std::array<size_t, kKinds> executed{};
  /// Answers and rows delivered, and Handle time, over every executed
  /// request.
  size_t work = 0;
  double handle_ms = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  double elapsed_s = 0.0;
  /// Every client's stream ended before the time budget did.
  bool finished = true;
  size_t asks_gold = 0;
  size_t asks_correct = 0;
  size_t asks_answered = 0;
  size_t asks_cached = 0;
  size_t facts_extracted = 0;
  size_t rows_loaded = 0;
  size_t questions_fed = 0;
  size_t questions_answered = 0;
  /// Facts each tenant's feeds reported extracted.
  std::map<std::string, size_t> facts_by_tenant;
  /// Output-check failures, one line each.
  std::vector<std::string> problems;
  /// Federated `bi` answers, rendered for the oracle comparison.
  std::vector<std::string> federated_answers;
  /// Host probe passes run beside the requests (none without a probe).
  std::vector<ProbeSample> probes;

  size_t Executed() const;
  void Merge(RunLog&& other);
};

/// Runs `clients` closed-loop clients for `seconds`, or until their
/// streams end. `ingest_on_wall_time` picks the serve_mix ingest schedule
/// (see Traffic). With a `probe`, each client also runs it once per
/// kProbePeriodS between two requests.
RunLog DriveClosedLoop(Fixture* fixture, uint64_t seed, size_t clients,
                       double seconds, bool ingest_on_wall_time,
                       const HostProbe* probe);

/// The time budget of a run: `seconds`, except for feed_bi, whose plan is
/// a fixed amount of work that runs to its end (within a cap that keeps
/// the run inside its time limit on a slow host).
double RunBudget(Workload workload, double seconds);

/// Checks one reply (outside the request's timed region) and tallies it;
/// a failed check appends to `log->problems`. Returns the answers or rows
/// the reply delivered.
size_t CheckReply(const Planned& planned, const serve::Response& response,
                  RunLog* log);

/// Post-run checks: feed accounting against the registries, federated
/// answers against a MergeWarehouses oracle, WAL recovery of every fed
/// tenant. Appends failures to `log->problems`.
void CheckAfterRun(Fixture* fixture, RunLog* log);

/// feed_bi precision: share of loaded Weather rows matching the synthetic
/// web's ground truth, over every fed tenant.
double FedFactPrecision(const Fixture& fixture, size_t* rows_checked);

/// One per-layer metric of the traced run.
struct LayerMetric {
  const char* name;
  const char* unit;
};
/// Every per-layer metric, in output order.
const std::vector<LayerMetric>& LayerMetrics();

/// Per-layer numbers of one traced single-client pass.
struct LayerReport {
  size_t attempted = 0;
  size_t failed = 0;
  /// metric name -> value (metrics a workload does not exercise are 0).
  std::map<std::string, double> metrics;
  /// Human-readable breakdown lines.
  std::vector<std::string> lines;
};

/// The traced run: an untraced and a traced single-client pass over the
/// same request sequence, each on a fresh set-up.
Result<LayerReport> RunTraced(const FixtureSpec& spec, uint64_t seed,
                              double seconds,
                              std::vector<std::string>* problems);

/// Quantile `q` of `values` (sorted copy, linear interpolation).
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // DWQA_PERFBENCH_PERFBENCH_H_
