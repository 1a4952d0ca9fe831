// The traced run: per-layer self times measured from outside the program.
//
// One single-client pass goes untraced, a second one (fresh set-up, same
// request sequence) traced. For every request of the traced pass the
// benchmark times QaServer::Handle and attributes the time with the
// observation points the program already has:
//
//   ask     a direct AliQAn::AskWith with a TraceRecorder and PhaseTimings
//           right after the request (Handle passes no recorder);
//   feed    PipelineConfig::trace_questions, read back through
//           IntegrationPipeline::question_traces() (its view.maintain spans
//           come from ViewCatalog::set_trace_recorder);
//   bi      a direct BiAnalysis call, plus direct ViewCatalog::Answer /
//           OlapEngine::Execute timings of its two aggregates, and for
//           scope=federated the FederatedEngine trace recorder;
//   ingest  the IR indexes' set_trace (index.seal / index.merge); the rest
//           of Handle is the ingest's own time, serve's included, since no
//           observation point splits the two.
//
// Counts come from the pipeline, server and layer MetricRegistrys, as
// deltas over the traced pass.

#include <chrono>

#include "common/metric_names.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "dw/olap.h"
#include "integration/bi_analysis.h"
#include "perfbench.h"

namespace perfbench {

namespace {

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct SpanSum {
  double self_ms = 0.0;
  double total_ms = 0.0;
  size_t count = 0;
};
using SpanSums = std::map<std::string, SpanSum>;

/// Adds every span's self time (duration minus its children's) and total
/// time; returns the summed duration of the root spans.
double AddSpans(const std::vector<SpanRecord>& spans, SpanSums* sums) {
  std::vector<double> children(spans.size(), 0.0);
  double roots = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.parent == SpanRecord::kNoParent) {
      roots += span.duration_ms;
    } else {
      children[span.parent] += span.duration_ms;
    }
  }
  for (const SpanRecord& span : spans) {
    SpanSum& sum = (*sums)[span.name];
    sum.self_ms += span.duration_ms - children[span.id];
    sum.total_ms += span.duration_ms;
    ++sum.count;
  }
  return roots;
}

/// A layer the benchmark timed itself, recorded like a span.
void AddTimed(const std::string& name, double ms, SpanSums* sums) {
  SpanSum& sum = (*sums)[name];
  sum.self_ms += ms;
  sum.total_ms += ms;
  ++sum.count;
}

/// One endpoint's traced requests: Handle time, the time of the child call
/// Handle made into the layers below serve, and the per-layer spans.
struct EndpointTotals {
  size_t requests = 0;
  double e2e_ms = 0.0;
  double child_ms = 0.0;
  SpanSums spans;
  /// Handle minus child over the requests where that difference is not
  /// lost in host noise: the child was timed inside Handle, or is small.
  /// Recompute and federated reads repeat a 30-150 ms child call, whose
  /// run-to-run noise is larger than the serve layer's share.
  double serve_self_ms = 0.0;
  size_t serve_self_requests = 0;
};

/// The layers whose self time counts as attributed, per endpoint. Time in
/// any other span (qa.ask's own bookkeeping, step5.fact, the BI join) is
/// the unattributed remainder.
const std::map<std::string, std::vector<std::string>>& NamedLayers() {
  static const auto* layers =
      new std::map<std::string, std::vector<std::string>>{
          {"ask", {"qa.analysis", "ir.retrieval", "qa.extraction"}},
          {"feed",
           {"step5.question", "qa.analysis", "ir.retrieval", "qa.extraction",
            "qa.validate", "wal.append", "dw.etl.load", "view.maintain"}},
          {"bi",
           {"view.answer", "olap.execute", "fed.plan", "fed.fanout",
            "fed.merge"}},
          {"ingest", {"ingest", "index.seal", "index.merge"}},
      };
  return *layers;
}

const char* EndpointOf(Kind kind) {
  switch (kind) {
    case Kind::kAsk:
      return "ask";
    case Kind::kFeed:
      return "feed";
    case Kind::kIngest:
      return "ingest";
    default:
      return "bi";
  }
}

/// Registry counters read before and after the traced pass.
std::map<std::string, double> ReadCounters(const Fixture& fx) {
  std::map<std::string, double> c;
  std::vector<std::string> tenants = fx.tenants;
  for (const FedTenant& fed : fx.fed_tenants) tenants.push_back(fed.name);
  if (!fx.archive.empty()) tenants.push_back(fx.archive);
  for (const std::string& name : tenants) {
    const MetricRegistry& m = *fx.server->tenant_pipeline(name)->metrics();
    c["qa_sentences"] += m.FamilySum(kMetricQaSentencesAnalyzed);
    c["qa_questions"] += m.FamilySum(kMetricQaQuestions);
    c["pruned_windows"] +=
        m.Value(kMetricIndexPrunedWindows, {{"index", "passage"}});
    c["passage_lookups"] += m.FamilySum(kMetricIrPassageLookups);
    c["seals"] += m.FamilySum(kMetricIndexSeals);
    c["wal_appends"] += m.FamilySum(kMetricWalAppends);
    c["wal_syncs"] += m.FamilySum(kMetricWalSyncs);
    c["wal_bytes"] += m.FamilySum(kMetricWalAppendBytes);
    c["view_reads"] += m.FamilySum(kMetricViewReads);
    c["view_misses"] += m.FamilySum(kMetricViewMisses);
    c["cache_hits"] += fx.server->metrics()->Value(
        kMetricServeCacheLookups, {{"tenant", name}, {"result", "hit"}});
  }
  c["cache_lookups"] = fx.server->metrics()->FamilySum(kMetricServeCacheLookups);
  c["fed_queries"] = fx.fed_metrics.FamilySum(kMetricFedQueries);
  c["fed_subqueries"] = fx.fed_metrics.FamilySum(kMetricFedSubqueries);
  return c;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sets (or clears) the trace sink of both IR indexes of `tenant`. The
/// indexes are owned, non-const members of the tenant's AliQAn; only the
/// accessors are const.
void TraceIndexes(serve::QaServer* server, const std::string& tenant,
                  TraceRecorder* trace) {
  qa::AliQAn* aliqan = server->tenant_pipeline(tenant)->aliqan();
  const_cast<ir::PassageIndex&>(aliqan->passage_index()).set_trace(trace);
  const_cast<ir::InvertedIndex&>(aliqan->document_index()).set_trace(trace);
}

/// The traced pass: `requests` requests of client 0's stream.
struct TracedPass {
  std::map<std::string, EndpointTotals> endpoints;
  RunLog log;
  double handle_ms = 0.0;
  size_t view_reads = 0;
  size_t recompute_reads = 0;
  size_t facts_scanned = 0;
  size_t groups = 0;
};

Status TraceOne(Fixture* fx, const Planned& planned, TracedPass* pass) {
  serve::QaServer* server = fx->server.get();
  const std::string& tenant = planned.request.tenant;
  integration::IntegrationPipeline* pipeline = server->tenant_pipeline(tenant);
  EndpointTotals& totals = pass->endpoints[EndpointOf(planned.kind)];
  SpanSums& spans = totals.spans;

  TraceRecorder handle_trace;
  if (planned.kind == Kind::kIngest) {
    TraceIndexes(server, tenant, &handle_trace);
  }
  Clock::time_point sent = Clock::now();
  serve::Response response = server->Handle(planned.request);
  const double e2e = MsSince(sent);
  if (planned.kind == Kind::kIngest) {
    TraceIndexes(server, tenant, nullptr);
  }
  ++pass->log.attempted;
  CheckReply(planned, response, &pass->log);
  if (response.status != "ok") return Status::OK();
  pass->handle_ms += e2e;
  ++totals.requests;
  totals.e2e_ms += e2e;

  double child = 0.0;
  switch (planned.kind) {
    case Kind::kAsk: {
      if (response.cached) break;  // served by the serve layer alone
      TraceRecorder trace;
      qa::PhaseTimings timings;
      DWQA_RETURN_NOT_OK(pipeline->aliqan()
                             ->AskWith(planned.request.questions.front(),
                                       &timings, nullptr, &trace)
                             .status());
      child = AddSpans(trace.spans(), &spans);
      break;
    }
    case Kind::kFeed:
      for (const integration::QuestionTrace& q : pipeline->question_traces()) {
        child += AddSpans(q.recorder->spans(), &spans);
      }
      break;
    case Kind::kBiView:
    case Kind::kBiRecompute: {
      const dw::Warehouse& wh = pipeline->warehouse();
      Clock::time_point start = Clock::now();
      DWQA_RETURN_NOT_OK(
          integration::BiAnalysis::SalesVsTemperature(wh).status());
      child = MsSince(start);
      for (const dw::OlapQuery& query :
           {integration::BiAnalysis::SalesQuery(),
            integration::BiAnalysis::WeatherQuery()}) {
        if (wh.views() != nullptr) {
          start = Clock::now();
          if (wh.views()->Answer(query).ok()) {
            AddTimed("view.answer", MsSince(start), &spans);
            continue;
          }
        }
        start = Clock::now();
        DWQA_ASSIGN_OR_RETURN(dw::OlapResult result,
                              dw::OlapEngine(&wh).Execute(query));
        AddTimed("olap.execute", MsSince(start), &spans);
        pass->facts_scanned += result.facts_scanned;
        pass->groups += result.rows.size();
      }
      ++(planned.kind == Kind::kBiView ? pass->view_reads
                                       : pass->recompute_reads);
      break;
    }
    case Kind::kBiFederated: {
      // The engine's spans come from the same call as the child time, so
      // the two add up.
      TraceRecorder trace;
      fx->federation->set_trace_recorder(&trace);
      Clock::time_point start = Clock::now();
      auto analyzed = integration::BiAnalysis::SalesVsTemperatureFederated(
          *fx->federation);
      child = MsSince(start);
      fx->federation->set_trace_recorder(nullptr);
      DWQA_RETURN_NOT_OK(analyzed.status());
      AddSpans(trace.spans(), &spans);
      break;
    }
    case Kind::kIngest: {
      // Handle's own work is the ingest; seals and merges are its children.
      const double index_ms = AddSpans(handle_trace.spans(), &spans);
      AddTimed("ingest", e2e - index_ms, &spans);
      child = e2e;
      break;
    }
  }
  totals.child_ms += child;
  if (planned.kind != Kind::kBiRecompute &&
      planned.kind != Kind::kBiFederated) {
    totals.serve_self_ms += e2e - child;
    ++totals.serve_self_requests;
  }
  return Status::OK();
}

}  // namespace

const std::vector<LayerMetric>& LayerMetrics() {
  static const auto* metrics = new std::vector<LayerMetric>{
      {"serve.self_ms.ask", "ms"},
      {"serve.self_ms.feed", "ms"},
      {"serve.self_ms.bi", "ms"},
      {"serve.cache.hit_ratio", "ratio"},
      {"qa.analysis.self_ms", "ms"},
      {"ir.retrieval.self_ms", "ms"},
      {"qa.extraction.self_ms", "ms"},
      {"qa.sentences_per_ask", "count"},
      {"qa.answered_share", "ratio"},
      {"ir.pruned_windows_per_search", "count"},
      {"ir.segments", "count"},
      {"ingest.self_ms", "ms"},
      {"index.seal.count", "count"},
      {"index.merge.self_ms", "ms"},
      {"step5.question.self_ms", "ms"},
      {"qa.validate.self_ms", "ms"},
      {"feed.loaded_share", "ratio"},
      {"wal.append.self_ms", "ms"},
      {"wal.syncs_per_append", "count"},
      {"wal.bytes_per_fact", "B"},
      {"dw.etl.load.self_ms", "ms"},
      {"view.maintain.self_ms", "ms"},
      {"view.hit_ratio", "ratio"},
      {"view.answer_ms", "ms"},
      {"olap.execute_ms", "ms"},
      {"olap.rows_per_group", "count"},
      {"fed.plan.self_ms", "ms"},
      {"fed.fanout.self_ms", "ms"},
      {"fed.merge.self_ms", "ms"},
      {"fed.subqueries_per_query", "count"},
      {"unattributed_share.ask", "ratio"},
      {"unattributed_share.feed", "ratio"},
      {"unattributed_share.bi", "ratio"},
      {"tracing_overhead_share", "ratio"},
      {"feed.write_path_share", "ratio"},
      {"feed.qa_share", "ratio"},
  };
  return *metrics;
}

Result<LayerReport> RunTraced(const FixtureSpec& spec, uint64_t seed,
                              double seconds,
                              std::vector<std::string>* problems) {
  // Untraced single-client pass: the reference for the tracing overhead.
  size_t requests = 0;
  double untraced_ms = 0.0;
  {
    FixtureSpec plain = spec;
    plain.traced = false;
    plain.wal_root += "/untraced";
    DWQA_ASSIGN_OR_RETURN(std::unique_ptr<Fixture> fx, BuildFixture(plain));
    RunLog log = DriveClosedLoop(fx.get(), seed, 1,
                                 RunBudget(spec.workload, seconds), false,
                                 nullptr);
    requests = log.attempted;
    untraced_ms = 1000.0 * log.elapsed_s;
    for (std::string& p : log.problems) problems->push_back(std::move(p));
  }

  FixtureSpec traced_spec = spec;
  traced_spec.traced = true;
  traced_spec.wal_root += "/traced";
  DWQA_ASSIGN_OR_RETURN(std::unique_ptr<Fixture> fx,
                        BuildFixture(traced_spec));
  const std::map<std::string, double> before = ReadCounters(*fx);
  TracedPass pass;
  Traffic traffic(fx.get(), seed, 0, std::nullopt);
  Planned planned;
  const Clock::time_point traced_start = Clock::now();
  for (size_t i = 0; i < requests && traffic.Next(&planned); ++i) {
    DWQA_RETURN_NOT_OK(TraceOne(fx.get(), planned, &pass));
  }
  const double traced_ms = MsSince(traced_start);
  std::map<std::string, double> delta = ReadCounters(*fx);
  for (auto& [name, value] : delta) value -= before.at(name);
  for (std::string& p : pass.log.problems) problems->push_back(std::move(p));

  LayerReport report;
  report.attempted = pass.log.attempted;
  report.failed = pass.log.failed;
  auto& m = report.metrics;
  SpanSums all;
  for (const auto& [endpoint, totals] : pass.endpoints) {
    for (const auto& [name, sum] : totals.spans) {
      SpanSum& into = all[name];
      into.self_ms += sum.self_ms;
      into.total_ms += sum.total_ms;
      into.count += sum.count;
    }
  }
  auto self_per = [&](const std::string& name, double per) {
    auto it = all.find(name);
    return it == all.end() ? 0.0 : Ratio(it->second.self_ms, per);
  };
  auto count_of = [&](const std::string& name) {
    auto it = all.find(name);
    return it == all.end() ? 0.0 : static_cast<double>(it->second.count);
  };

  for (const char* endpoint : {"ask", "feed", "bi"}) {
    auto it = pass.endpoints.find(endpoint);
    m[std::string("serve.self_ms.") + endpoint] =
        it == pass.endpoints.end()
            ? 0.0
            : Ratio(it->second.serve_self_ms,
                    static_cast<double>(it->second.serve_self_requests));
  }
  m["serve.cache.hit_ratio"] =
      Ratio(delta["cache_hits"], delta["cache_lookups"]);
  const double asks = count_of("qa.ask");
  m["qa.analysis.self_ms"] = self_per("qa.analysis", asks);
  m["ir.retrieval.self_ms"] = self_per("ir.retrieval", asks);
  m["qa.extraction.self_ms"] = self_per("qa.extraction", asks);
  m["qa.sentences_per_ask"] =
      Ratio(delta["qa_sentences"], delta["qa_questions"]);
  m["qa.answered_share"] = Ratio(
      static_cast<double>(pass.log.asks_answered + pass.log.questions_answered),
      static_cast<double>(pass.log.asks_gold + pass.log.questions_fed));
  m["ir.pruned_windows_per_search"] =
      Ratio(delta["pruned_windows"], delta["passage_lookups"]);
  {
    double segments = 0.0;
    size_t indexes = 0;
    std::vector<std::string> tenants = fx->tenants;
    for (const FedTenant& fed : fx->fed_tenants) tenants.push_back(fed.name);
    for (const std::string& name : tenants) {
      segments += fx->server->tenant_pipeline(name)->metrics()->Value(
          kMetricIndexSegments, {{"index", "passage"}});
      ++indexes;
    }
    m["ir.segments"] = Ratio(segments, static_cast<double>(indexes));
  }
  m["ingest.self_ms"] = self_per("ingest", count_of("ingest"));
  m["index.seal.count"] = delta["seals"];
  m["index.merge.self_ms"] = self_per("index.merge", count_of("index.merge"));
  m["step5.question.self_ms"] =
      self_per("step5.question", count_of("step5.question"));
  m["qa.validate.self_ms"] = self_per("qa.validate", count_of("qa.validate"));
  m["feed.loaded_share"] =
      Ratio(static_cast<double>(pass.log.rows_loaded),
            static_cast<double>(pass.log.facts_extracted));
  m["wal.append.self_ms"] = self_per("wal.append", count_of("wal.append"));
  m["wal.syncs_per_append"] = Ratio(delta["wal_syncs"], delta["wal_appends"]);
  m["wal.bytes_per_fact"] = Ratio(delta["wal_bytes"], delta["wal_appends"]);
  m["dw.etl.load.self_ms"] = self_per("dw.etl.load", count_of("dw.etl.load"));
  m["view.maintain.self_ms"] =
      self_per("view.maintain", count_of("view.maintain"));
  m["view.hit_ratio"] =
      Ratio(delta["view_reads"], delta["view_reads"] + delta["view_misses"]);
  m["view.answer_ms"] =
      self_per("view.answer", static_cast<double>(pass.view_reads));
  m["olap.execute_ms"] =
      self_per("olap.execute", static_cast<double>(pass.recompute_reads));
  m["olap.rows_per_group"] = Ratio(static_cast<double>(pass.facts_scanned),
                                   static_cast<double>(pass.groups));
  const double fed_queries = count_of("fed.plan");
  m["fed.plan.self_ms"] = self_per("fed.plan", fed_queries);
  m["fed.fanout.self_ms"] = self_per("fed.fanout", fed_queries);
  m["fed.merge.self_ms"] = self_per("fed.merge", fed_queries);
  m["fed.subqueries_per_query"] =
      Ratio(delta["fed_subqueries"], delta["fed_queries"]);

  // Per endpoint: Handle time, the serve layer's own share, each named
  // layer's self time, and what of the child call no named layer claims.
  report.lines.push_back(
      "endpoint  requests  handle_ms  serve.self_ms  layer self_ms (per "
      "request)  unattributed_ms  unattributed_share");
  for (const char* endpoint : {"ask", "feed", "bi", "ingest"}) {
    auto it = pass.endpoints.find(endpoint);
    if (it == pass.endpoints.end() || it->second.requests == 0) {
      if (std::string(endpoint) != "ingest") {
        m[std::string("unattributed_share.") + endpoint] = 0.0;
      }
      continue;
    }
    const EndpointTotals& t = it->second;
    const double n = static_cast<double>(t.requests);
    double named = 0.0;
    std::string layers;
    for (const std::string& layer : NamedLayers().at(endpoint)) {
      auto span = t.spans.find(layer);
      if (span == t.spans.end()) continue;
      named += span->second.self_ms;
      layers += " " + layer + "=" + FormatDouble(span->second.self_ms / n, 4);
    }
    std::string line = std::string(endpoint) + "  " +
                       std::to_string(t.requests) + "  " +
                       FormatDouble(t.e2e_ms / n, 4) + "  ";
    if (std::string(endpoint) == "ingest") {
      // No observation point splits an ingest's Handle time between the
      // serve layer and AliQAn's ingest, so there is no remainder to give.
      report.lines.push_back(line + "-  " + layers +
                             "  (ingest includes serve's own time)");
      continue;
    }
    const double unattributed = t.child_ms - named;
    const double share = Ratio(unattributed, t.e2e_ms);
    report.lines.push_back(
        line +
        FormatDouble(Ratio(t.serve_self_ms,
                           static_cast<double>(t.serve_self_requests)),
                     4) +
        " " + layers + "  " + FormatDouble(unattributed / n, 4) + "  " +
        FormatDouble(share, 4));
    m[std::string("unattributed_share.") + endpoint] = share;
  }
  // The traced pass as a whole (Handle plus the attribution calls the
  // benchmark makes beside it) against the untraced pass over the same
  // requests.
  m["tracing_overhead_share"] = Ratio(traced_ms, untraced_ms) - 1.0;
  report.lines.push_back(
      "tracing overhead: traced pass " + FormatDouble(traced_ms, 1) +
      " ms (Handle " + FormatDouble(pass.handle_ms, 1) +
      " ms, the rest attribution calls and checks) vs untraced pass " +
      FormatDouble(untraced_ms, 1) + " ms over " + std::to_string(requests) +
      " requests");

  // The hypothesis the feed breakdown settles: the write path (WAL append,
  // ETL load with its view maintenance) outweighs QA.
  auto feed = pass.endpoints.find("feed");
  double write_share = 0.0;
  double qa_share = 0.0;
  if (feed != pass.endpoints.end() && feed->second.e2e_ms > 0.0) {
    const SpanSums& s = feed->second.spans;
    auto total = [&](const char* name) {
      auto it = s.find(name);
      return it == s.end() ? 0.0 : it->second.total_ms;
    };
    write_share =
        (total("wal.append") + total("dw.etl.load")) / feed->second.e2e_ms;
    qa_share = total("qa.ask") / feed->second.e2e_ms;
    report.lines.push_back(
        "feed hypothesis (write path dominates QA): wal.append + dw.etl.load "
        "(incl. view.maintain) = " +
        FormatDouble(100.0 * write_share, 1) + "% of feed time, qa.* = " +
        FormatDouble(100.0 * qa_share, 1) + "% -> " +
        (write_share > qa_share ? "holds" : "refuted"));
  }
  m["feed.write_path_share"] = write_share;
  m["feed.qa_share"] = qa_share;
  return report;
}

}  // namespace perfbench
