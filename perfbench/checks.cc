// Output checks: every reply while the run goes (outside each request's
// timed region), and the post-run oracles once the clock has stopped.

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/metric_names.h"
#include "common/string_util.h"
#include "dw/federation/merge_warehouses.h"
#include "dw/olap.h"
#include "integration/bi_analysis.h"
#include "dw/recovery.h"
#include "integration/last_minute_sales.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using integration::LastMinuteSales;

/// Problems kept per run; the rest are only counted.
constexpr size_t kMaxProblems = 20;

void Problem(RunLog* log, const std::string& what) {
  if (log->problems.size() < kMaxProblems) log->problems.push_back(what);
}

size_t Field(const serve::Response& response, const std::string& key) {
  const std::string value = response.AnswerField(key);
  return value.empty() ? 0 : std::stoul(value);
}

/// The Weather fact at base level of every role, as a sorted multiset of
/// rendered rows (city, day, source, count, sum, min, max).
Result<std::vector<std::string>> WeatherMultiset(const dw::Warehouse& wh) {
  dw::OlapQuery query;
  query.fact = "Weather";
  query.group_by = {{"location", "City"}, {"day", "Date"}, {"source", "Url"}};
  query.measures = {{"TemperatureC", dw::AggFn::kCount},
                    {"TemperatureC", dw::AggFn::kSum},
                    {"TemperatureC", dw::AggFn::kMin},
                    {"TemperatureC", dw::AggFn::kMax}};
  DWQA_ASSIGN_OR_RETURN(dw::OlapResult result,
                        dw::OlapEngine(&wh).Execute(query));
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string rendered;
    for (const dw::Value& v : row) rendered += v.ToString() + "|";
    rows.push_back(std::move(rendered));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The comparable part of a BI analysis (numbers and ranges), rendered the
/// way the server renders a `bi` answer.
std::string RenderBiReport(const integration::BiReport& report) {
  std::ostringstream out;
  out << "joined_days=" << report.joined_days
      << " correlation=" << FormatDouble(report.pearson_temperature_tickets, 4)
      << " best=[" << FormatDouble(report.best.low_c, 1) << ", "
      << FormatDouble(report.best.high_c, 1)
      << ") avg_tickets=" << FormatDouble(report.best.avg_tickets, 2)
      << " observations=" << report.best.observations << "\n";
  for (const auto& range : report.ranges) {
    out << "[" << FormatDouble(range.low_c, 1) << ", "
        << FormatDouble(range.high_c, 1)
        << ") avg_tickets=" << FormatDouble(range.avg_tickets, 2)
        << " observations=" << range.observations << "\n";
  }
  return out.str();
}

/// The same rendering of a `bi` reply.
std::string RenderBiAnswer(const serve::Response& response) {
  std::ostringstream out;
  out << "joined_days=" << response.AnswerField("joined_days")
      << " correlation=" << response.AnswerField("correlation") << " best=["
      << response.AnswerField("best_low_c") << ", "
      << response.AnswerField("best_high_c")
      << ") avg_tickets=" << response.AnswerField("best_avg_tickets")
      << " observations=" << response.AnswerField("best_observations")
      << "\n"
      << response.payload;
  return out.str();
}

}  // namespace

size_t CheckReply(const Planned& planned, const serve::Response& response,
                  RunLog* log) {
  if (response.status != "ok") {
    ++log->failed;
    Problem(log, std::string(KindName(planned.kind)) + " to " +
                     planned.request.tenant + " ended " + response.status +
                     " " + response.code + " " + response.reason + ": " +
                     response.payload);
    return 0;
  }
  switch (planned.kind) {
    case Kind::kAsk: {
      if (response.AnswerField("degradation").empty()) {
        Problem(log, "ask answer without a degradation level: " +
                         planned.request.questions.front());
      }
      if (response.cached) ++log->asks_cached;
      ++log->asks_gold;
      if (response.AnswerField("answered") != "1") return 0;
      ++log->asks_answered;
      const std::string value = response.AnswerField("value");
      if (web::QuestionFactory::Matches(*planned.gold,
                                        response.AnswerField("answer"),
                                        !value.empty(),
                                        value.empty() ? 0.0 : std::stod(value))) {
        ++log->asks_correct;
      }
      return 1;
    }
    case Kind::kFeed: {
      const size_t extracted = Field(response, "facts_extracted");
      const size_t loaded = Field(response, "rows_loaded");
      if (extracted != loaded + Field(response, "rows_deduplicated") +
                           Field(response, "rows_quarantined")) {
        Problem(log, "feed accounting identity broken on " +
                         planned.request.tenant + ": " +
                         response.AnswerBlock());
      }
      log->facts_extracted += extracted;
      log->rows_loaded += loaded;
      log->facts_by_tenant[planned.request.tenant] += extracted;
      log->questions_fed += Field(response, "questions_asked");
      log->questions_answered += Field(response, "questions_answered");
      return loaded;
    }
    case Kind::kBiView:
    case Kind::kBiRecompute:
    case Kind::kBiFederated: {
      if (planned.kind == Kind::kBiFederated) {
        if (response.AnswerField("coverage") != "full") {
          Problem(log, "federated bi with partial coverage: " +
                           response.AnswerBlock());
        }
        std::string rendered = RenderBiAnswer(response);
        // The archive and the partner never change during a run, so their
        // federated answers do not either; keep one copy of each distinct.
        if (std::find(log->federated_answers.begin(),
                      log->federated_answers.end(),
                      rendered) == log->federated_answers.end()) {
          log->federated_answers.push_back(std::move(rendered));
        }
      }
      // Mid-feed view reads see a partly fed Weather fact; only a complete
      // feed must recover the planted interval.
      if (planned.kind == Kind::kBiView && !planned.final_read) break;
      const double low = std::stod(response.AnswerField("best_low_c"));
      const double high = std::stod(response.AnswerField("best_high_c"));
      if (!(low < LastMinuteSales::kBoostHighC &&
            high > LastMinuteSales::kBoostLowC)) {
        Problem(log, std::string(KindName(planned.kind)) + " on " +
                         planned.request.tenant + ": best range [" +
                         FormatDouble(low, 1) + ", " + FormatDouble(high, 1) +
                         ") misses the planted [18, 28) interval");
      }
      break;
    }
    case Kind::kIngest:
      if (response.AnswerField("ingested") != "1") {
        Problem(log, "ingest did not index one document: " +
                         response.AnswerBlock());
      }
      break;
  }
  return 0;
}

void CheckAfterRun(Fixture* fixture, RunLog* log) {
  serve::QaServer& server = *fixture->server;
  // Feed accounting: the pipeline's disposition counters sum to the facts
  // its feed replies reported.
  for (const auto& [tenant, extracted] : log->facts_by_tenant) {
    const double counted =
        server.tenant_pipeline(tenant)->metrics()->FamilySum(kMetricFeedFacts);
    if (static_cast<size_t>(counted) != extracted) {
      Problem(log, tenant + ": FamilySum(" + kMetricFeedFacts + ") = " +
                       FormatDouble(counted, 0) + " but feeds extracted " +
                       std::to_string(extracted));
    }
  }

  if (fixture->spec.workload != Workload::kFeedBi) return;

  // Federated == merged: every federated answer against the same analysis
  // over a physical merge of the two warehouses, built now.
  if (!log->federated_answers.empty()) {
    auto merged = dw::fed::MergeWarehouses(*fixture->archive_warehouse,
                                           *fixture->partner, fixture->mapping);
    if (!merged.ok()) {
      Problem(log, "MergeWarehouses oracle: " + merged.status().ToString());
    } else {
      auto oracle = integration::BiAnalysis::SalesVsTemperature(
          *merged, "LastMinuteSales", "Weather", 5.0,
          integration::BiMode::kRecompute);
      if (!oracle.ok()) {
        Problem(log, "oracle analysis: " + oracle.status().ToString());
      } else {
        const std::string expected = RenderBiReport(*oracle);
        for (const std::string& answer : log->federated_answers) {
          if (answer != expected) {
            Problem(log, "federated bi differs from the merged oracle:\n" +
                             answer + "expected:\n" + expected);
          }
        }
      }
    }
  }

  // Recovery: each fed tenant's durability directory reproduces its
  // warehouse's Weather fact multiset.
  for (const FedTenant& fed : fixture->fed_tenants) {
    auto live = WeatherMultiset(*fed.warehouse);
    dw::RecoveryOptions options;
    options.bootstrap_schema = LastMinuteSales::MakeSchema();
    auto recovered = dw::Recovery::Open(fed.wal_dir, options);
    if (!live.ok() || !recovered.ok()) {
      Problem(log, fed.name + ": recovery check could not run: " +
                       (live.ok() ? recovered.status() : live.status())
                           .ToString());
      continue;
    }
    auto replayed = WeatherMultiset(recovered->warehouse);
    if (!replayed.ok() || *replayed != *live) {
      Problem(log, fed.name + ": Recovery::Open reproduced " +
                       std::to_string(replayed.ok() ? replayed->size() : 0) +
                       " Weather groups, the live warehouse holds " +
                       std::to_string(live->size()));
    }
  }
}

double FedFactPrecision(const Fixture& fixture, size_t* rows_checked) {
  const auto& truth = fixture.web->truth().temperature;
  size_t rows = 0;
  size_t correct = 0;
  for (const FedTenant& fed : fixture.fed_tenants) {
    dw::OlapQuery query;
    query.fact = "Weather";
    query.group_by = {{"location", "City"}, {"day", "Date"}, {"source", "Url"}};
    query.measures = {{"TemperatureC", dw::AggFn::kCount},
                      {"TemperatureC", dw::AggFn::kAvg}};
    auto result = dw::OlapEngine(fed.warehouse).Execute(query);
    if (!result.ok()) continue;
    for (const auto& row : result->rows) {
      const size_t count = static_cast<size_t>(row[3].ToDouble());
      rows += count;
      auto it = truth.find({ToLower(row[0].ToString()), row[1].ToString()});
      if (it != truth.end() && std::abs(row[4].ToDouble() - it->second) < 0.76) {
        correct += count;
      }
    }
  }
  *rows_checked = rows;
  return rows == 0 ? 0.0 : static_cast<double>(correct) / rows;
}

}  // namespace perfbench
