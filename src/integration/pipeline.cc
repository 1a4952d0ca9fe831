#include "integration/pipeline.h"

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/string_util.h"
#include "dw/etl.h"
#include "dw/materialized_view.h"
#include "dw/recovery.h"
#include "dw/snapshot.h"
#include "integration/table_preprocess.h"
#include "ontology/enrichment.h"
#include "ontology/uml_to_ontology.h"
#include "ontology/wordnet.h"

namespace dwqa {
namespace integration {

namespace {

/// Constructors cannot return Status, so the pipeline validates its
/// resilience knobs once here and every Run* entry point replays the
/// verdict.
Status ValidateResilienceConfig(const ResilienceConfig& resilience) {
  DWQA_RETURN_NOT_OK(resilience.retry.Validate());
  DWQA_RETURN_NOT_OK(resilience.breaker.Validate());
  DWQA_RETURN_NOT_OK(resilience.deadline.Validate());
  return Status::OK();
}

/// Points the warehouse's view catalog (when attached) at one question's
/// trace recorder for the scope of its fact loads, and always resets it —
/// the recorder is per-question state the catalog must not outlive-hold.
class ScopedViewTrace {
 public:
  ScopedViewTrace(dw::Warehouse* wh, TraceRecorder* trace)
      : views_(wh != nullptr ? wh->views() : nullptr) {
    if (views_ != nullptr && trace != nullptr) {
      views_->set_trace_recorder(trace);
    }
  }
  ~ScopedViewTrace() {
    if (views_ != nullptr) views_->set_trace_recorder(nullptr);
  }
  ScopedViewTrace(const ScopedViewTrace&) = delete;
  ScopedViewTrace& operator=(const ScopedViewTrace&) = delete;

 private:
  dw::ViewCatalog* views_;
};

}  // namespace

IntegrationPipeline::IntegrationPipeline(dw::Warehouse* warehouse,
                                         const ontology::UmlModel* uml,
                                         PipelineConfig config)
    : wh_(warehouse),
      uml_(uml),
      config_(std::move(config)),
      fault_(config_.resilience.fault),
      breakers_(config_.resilience.breaker),
      deadline_(config_.resilience.deadline),
      config_status_(ValidateResilienceConfig(config_.resilience)) {
  breakers_.set_metrics(&metrics_);
  deadline_.set_metrics(&metrics_);
  // An attached view catalog reports its dwqa_view_* series next to the
  // feed metrics it is maintained by.
  if (wh_ != nullptr && wh_->views() != nullptr) {
    wh_->views()->set_metrics(&metrics_);
  }
}

Status IntegrationPipeline::RunStep1() {
  DWQA_RETURN_NOT_OK(config_status_);
  if (uml_ == nullptr) {
    return Status::InvalidArgument("UML model must not be null");
  }
  DWQA_ASSIGN_OR_RETURN(domain_, ontology::UmlToOntology::Transform(*uml_));
  steps_done_[0] = true;
  DWQA_LOG(Info) << "Step 1: domain ontology with "
                 << domain_.concept_count() << " concepts";
  return Status::OK();
}

Status IntegrationPipeline::RunStep2() {
  if (!steps_done_[0]) {
    return Status::Internal("Step 1 must run before Step 2");
  }
  if (!config_.enrich_with_dw_contents) {
    steps_done_[1] = true;  // Ablation: step is a no-op.
    return Status::OK();
  }
  if (wh_ == nullptr) {
    return Status::InvalidArgument("warehouse must not be null");
  }
  // Export the Airport dimension members (with their city) into the
  // ontology — "the ontology is fed by the contents of the DW system"
  // (e.g. the different city airport destinations of an airline).
  std::vector<ontology::InstanceSeed> seeds;
  DWQA_ASSIGN_OR_RETURN(std::vector<std::string> airports,
                        wh_->MemberNames("Airport"));
  for (const std::string& name : airports) {
    DWQA_ASSIGN_OR_RETURN(dw::MemberId id,
                          wh_->FindMember("Airport", name));
    ontology::InstanceSeed seed;
    seed.name = name;
    DWQA_ASSIGN_OR_RETURN(seed.located_in,
                          wh_->MemberLevelValue("Airport", id, "City"));
    seed.gloss = "airport serving " + seed.located_in;
    // Alias knowledge from DW metadata (the paper's JFK example: "JFK" is
    // also "Kennedy International Airport").
    auto alias_it = config_.member_aliases.find(ToLower(name));
    if (alias_it != config_.member_aliases.end()) {
      seed.aliases = alias_it->second;
    }
    seeds.push_back(std::move(seed));
  }
  DWQA_ASSIGN_OR_RETURN(
      auto report, ontology::Enricher::Enrich(&domain_, "airport", seeds));
  steps_done_[1] = true;
  DWQA_LOG(Info) << "Step 2: " << report.instances_added
                 << " instances added, " << report.part_of_links
                 << " partOf links";
  return Status::OK();
}

Status IntegrationPipeline::RunStep3() {
  if (!steps_done_[1]) {
    return Status::Internal("Step 2 must run before Step 3");
  }
  merged_ = ontology::MiniWordNet::Build();
  DWQA_ASSIGN_OR_RETURN(
      merge_report_,
      ontology::OntologyMerger::Merge(&merged_, domain_, config_.merge));
  steps_done_[2] = true;
  DWQA_LOG(Info) << "Step 3: merged (" << merge_report_.exact << " exact, "
                 << merge_report_.partial << " partial, "
                 << merge_report_.head << " head, "
                 << merge_report_.new_tree << " new trees)";
  return Status::OK();
}

Status IntegrationPipeline::RunStep4() {
  if (!steps_done_[2]) {
    return Status::Internal("Step 3 must run before Step 4");
  }
  // Tune the QA system to the new query types: attach the axiomatic
  // information a "temperature" answer requires (paper §3, Step 4).
  DWQA_ASSIGN_OR_RETURN(ontology::ConceptId temp,
                        merged_.FindClass("temperature"));
  DWQA_RETURN_NOT_OK(merged_.SetAxiom(temp, "unit", "\xC2\xBA\x43|F"));
  DWQA_RETURN_NOT_OK(merged_.SetAxiom(temp, "min_celsius", "-90"));
  DWQA_RETURN_NOT_OK(merged_.SetAxiom(temp, "max_celsius", "60"));
  DWQA_RETURN_NOT_OK(
      merged_.SetAxiom(temp, "conversion", "F = C * 9 / 5 + 32"));
  if (auto price = merged_.FindClass("price"); price.ok()) {
    DWQA_RETURN_NOT_OK(merged_.SetAxiom(*price, "unit", "EUR|USD|GBP"));
    DWQA_RETURN_NOT_OK(merged_.SetAxiom(*price, "min", "0"));
  }
  steps_done_[3] = true;
  return Status::OK();
}

Status IntegrationPipeline::IndexCorpus(const ir::DocumentStore* docs) {
  DWQA_RETURN_NOT_OK(config_status_);
  if (!steps_done_[3]) {
    return Status::Internal("Step 4 must run before indexing the corpus");
  }
  aliqan_ = std::make_unique<qa::AliQAn>(&merged_, config_.qa);
  aliqan_->set_deadline(&deadline_);
  aliqan_->set_metrics(&metrics_);
  if (config_.table_preprocess) {
    aliqan_->set_preprocessor(TablePreprocessor{});
  }
  CircuitBreaker* breaker = breakers_.Get(kFaultPointIndex);
  if (!breaker->Allow()) {
    return Status::Unavailable(
        "circuit open for 'ir.index': corpus indexation rejected");
  }
  // A half-open breaker grants exactly one probe attempt — the probe must
  // not burn the whole retry budget re-testing a dependency the breaker
  // already knows is sick.
  RetryPolicy policy = config_.resilience.retry;
  if (breaker->state() == BreakerState::kHalfOpen) policy.max_attempts = 1;
  // The corpus fetch can be flaky (the paper's sources are live web pages
  // and intranet reports); the injected fault fires *before* the actual
  // indexation so a retried attempt always starts from a clean slate.
  RetryStats stats;
  Status st = RetryCall(
      policy,
      [&]() -> Status {
        DWQA_RETURN_NOT_OK(fault_.Hit(kFaultPointIndex));
        return aliqan_->IndexCorpus(docs);
      },
      &stats, &deadline_, kFaultPointIndex);
  corpus_index_retries_ = size_t(stats.attempts > 0 ? stats.attempts - 1 : 0);
  // These stats were invisible to the registry (only FeedReport saw them);
  // mirror them so indexation retry pressure shows up in the export.
  MirrorRetryStats(&metrics_, kFaultPointIndex, stats, !st.ok());
  if (st.ok()) {
    breaker->RecordSuccess();
  } else if (!st.IsDeadlineExceeded()) {
    breaker->RecordFailure();
  }
  return st;
}

Result<size_t> IntegrationPipeline::IngestNewDocuments() {
  DWQA_RETURN_NOT_OK(config_status_);
  if (aliqan_ == nullptr) {
    return Status::Internal(
        "IndexCorpus must run before incremental ingest");
  }
  return aliqan_->IngestNewDocuments();
}

Status IntegrationPipeline::RunAll(const ir::DocumentStore* docs) {
  DWQA_RETURN_NOT_OK(RunStep1());
  DWQA_RETURN_NOT_OK(RunStep2());
  DWQA_RETURN_NOT_OK(RunStep3());
  DWQA_RETURN_NOT_OK(RunStep4());
  return IndexCorpus(docs);
}

void IntegrationPipeline::QuarantineFact(const qa::StructuredFact& fact,
                                         qa::RejectReason reason,
                                         const std::string& detail,
                                         FeedReport* report) {
  dw::QuarantineRecord record;
  record.attribute = fact.attribute;
  record.value = FormatDouble(fact.value, 2);
  record.unit = fact.unit;
  record.date_iso = fact.date.has_value() ? fact.date->ToIsoString() : "";
  record.location = fact.location;
  record.url = fact.url;
  record.reason = qa::RejectReasonName(reason);
  record.detail = detail;
  quarantine_.Add(std::move(record));
  ++report->rows_quarantined;
  ++report->quarantined_by_reason[reason];
  metrics_
      .GetCounter(kMetricFeedQuarantined,
                  {{"reason", qa::RejectReasonName(reason)}},
                  "Facts diverted to the quarantine, by RejectReason")
      ->Increment();
  metrics_
      .GetGauge(kMetricDwQuarantineRecords, {},
                "Records currently held in the QuarantineStore")
      ->Set(static_cast<double>(quarantine_.size()));
}

Status IntegrationPipeline::EnsureWalOpen() {
  const DurabilityConfig& durability = config_.resilience.durability;
  if (durability.dir.empty() || wal_ != nullptr) return Status::OK();
  DWQA_ASSIGN_OR_RETURN(
      wal_, dw::WalWriter::Open(durability.dir, {}, durability.fs, &metrics_));
  DWQA_ASSIGN_OR_RETURN(dw::CommitSet durable,
                        dw::ReadCommitSet(durability.dir, durability.fs));
  progress_.questions.merge(durable.questions);
  progress_.fed_keys.merge(durable.fed_keys);
  DWQA_LOG(Info) << "Step 5: WAL open at '" << durability.dir
                 << "', last LSN " << wal_->last_lsn() << ", "
                 << progress_.questions.size() << " questions completed";
  return Status::OK();
}

Status IntegrationPipeline::FlushDurability() {
  DWQA_RETURN_NOT_OK(wal_failure_);
  const DurabilityConfig& durability = config_.resilience.durability;
  if (wal_ == nullptr) return Status::OK();
  DWQA_ASSIGN_OR_RETURN(
      std::string snapshot_path,
      dw::SnapshotWriter::Write(durability.dir, *wh_, progress_,
                                wal_->last_lsn(), durability.fs));
  DWQA_ASSIGN_OR_RETURN(size_t dropped,
                        wal_->DropSegmentsCoveredBy(wal_->last_lsn()));
  DWQA_LOG(Info) << "Step 5: snapshot '" << snapshot_path << "' at LSN "
                 << wal_->last_lsn() << ", " << dropped
                 << " covered WAL segment(s) dropped";
  return Status::OK();
}

PipelineHealth IntegrationPipeline::Health() const {
  PipelineHealth health;
  health.Capture(deadline_, breakers_, metrics_);
  return health;
}

MetricsDump IntegrationPipeline::DumpMetrics() const {
  MetricsDump dump;
  dump.prometheus = metrics_.ExportPrometheus();
  dump.json = metrics_.ExportJson();
  return dump;
}

std::string IntegrationPipeline::RenderTraces() const {
  std::string out;
  for (const QuestionTrace& trace : traces_) {
    if (trace.recorder == nullptr || trace.recorder->empty()) continue;
    out += "=== " + trace.question + "\n";
    out += trace.recorder->Render();
  }
  return out;
}

Result<FeedReport> IntegrationPipeline::RunStep5(
    const std::vector<std::string>& questions, const std::string& fact_name,
    const std::string& attribute, size_t answers_per_question) {
  DWQA_RETURN_NOT_OK(config_status_);
  if (aliqan_ == nullptr) {
    return Status::Internal("IndexCorpus must run before Step 5");
  }
  if (wh_ == nullptr) {
    return Status::InvalidArgument("warehouse must not be null");
  }
  const ResilienceConfig& resilience = config_.resilience;
  DWQA_RETURN_NOT_OK(wal_failure_);
  DWQA_RETURN_NOT_OK(EnsureWalOpen());
  // A commit frames its question on one line: refuse an unframeable batch
  // before any of it loads, not at its commit.
  for (const std::string& question : questions) {
    if (wal_ == nullptr) break;
    dw::WalCommit commit;
    commit.question = question;
    DWQA_RETURN_NOT_OK(dw::WalCommitSerde::ToPayload(commit).status());
  }
  // The Step-4 axioms (temperature intervals, unit lists) become the
  // admission rules of the feed; explicit per-attribute rules override the
  // ontology-derived ones.
  validator_ = qa::FactValidator::FromOntology(merged_, {attribute});
  qa::ValidatorConfig vconfig = validator_.config();
  for (const auto& [attr, rule] : resilience.validator_rules) {
    vconfig.rules[attr] = rule;
  }
  validator_ = qa::FactValidator(std::move(vconfig));
  FeedReport report;
  report.corpus_index_retries = corpus_index_retries_;
  traces_.clear();
  // Mirror helpers: every question gets exactly one terminal outcome, every
  // extracted fact exactly one disposition, so the exported families sum to
  // the FeedReport totals (the accounting identity the metrics test pins).
  auto count_outcome = [&](const char* outcome) {
    metrics_
        .GetCounter(kMetricFeedQuestions, {{"outcome", outcome}},
                    "Step-5 questions by terminal outcome")
        ->Increment();
  };
  auto count_fact = [&](const char* disposition) {
    metrics_
        .GetCounter(kMetricFeedFacts, {{"disposition", disposition}},
                    "Extracted facts by final disposition")
        ->Increment();
  };
  auto count_retries = [&](const RetryStats& stats) {
    if (stats.attempts > 1) {
      metrics_
          .GetCounter(kMetricFeedRetries, {},
                      "Extra attempts spent on transient faults")
          ->Increment(static_cast<double>(stats.attempts - 1));
    }
    if (stats.transient_failures > 0) {
      metrics_
          .GetCounter(kMetricFeedTransientFailures, {},
                      "Transient failures observed by the feed")
          ->Increment(static_cast<double>(stats.transient_failures));
    }
  };
  dw::EtlLoader loader(wh_);
  CircuitBreaker* fetch_breaker = breakers_.Get(kFaultPointFetch);
  // Completed questions are only skipped when a durable commit completed
  // them (the WAL is on). A pipeline without a WAL that re-asks a question
  // still re-asks it — the fed-key dedup alone decides whether its facts
  // load again.
  const bool resume_semantics = wal_ != nullptr;

  for (const std::string& question : questions) {
    if (resume_semantics && progress_.questions.count(question) > 0) {
      ++report.questions_resumed;
      count_outcome("resumed");
      continue;
    }
    // An exhausted budget skips the remaining questions without marking
    // them completed — a resumed feed (with a fresh budget) re-asks
    // exactly these. The Check() probe names this stage in the health
    // report when the budget died on an earlier successful crossing charge.
    if (!deadline_.Check("step5.ask").ok()) {
      report.deadline_exhausted = true;
      ++report.questions_deadline_skipped;
      count_outcome("deadline_skipped");
      continue;
    }
    ++report.questions_asked;
    TraceRecorder* trace = nullptr;
    if (config_.trace_questions) {
      traces_.push_back({question, std::make_unique<TraceRecorder>()});
      trace = traces_.back().recorder.get();
    }
    Span question_span(trace, "step5.question");
    question_span.Annotate("question", question);
    // Point the view catalog's `view.maintain` spans at this question's
    // recorder for the duration of its fact loads (reset on every exit
    // path — the recorder dies with the iteration).
    ScopedViewTrace view_trace(wh_, trace);
    if (!fetch_breaker->Allow()) {
      ++report.breaker_rejections;
      ++report.questions_failed;
      count_outcome("breaker_rejected");
      question_span.Annotate("outcome", "breaker_rejected");
      continue;
    }
    // The per-question fetch/ask path is the flakiest link (a live page
    // fetch in the paper's setting): transient faults are retried with
    // backoff, permanent failures fall through immediately. A half-open
    // breaker grants a single probe attempt instead of the full budget.
    RetryPolicy ask_policy = resilience.retry;
    if (fetch_breaker->state() == BreakerState::kHalfOpen) {
      ask_policy.max_attempts = 1;
    }
    RetryStats ask_stats;
    Result<qa::AnswerSet> answers = RetryResultCall<qa::AnswerSet>(
        ask_policy,
        [&]() -> Result<qa::AnswerSet> {
          DWQA_RETURN_NOT_OK(fault_.Hit(kFaultPointFetch));
          return aliqan_->Ask(question, trace);
        },
        &ask_stats, &deadline_, kFaultPointFetch);
    report.retries += size_t(ask_stats.attempts > 1 ? ask_stats.attempts - 1
                                                    : 0);
    report.transient_failures += size_t(ask_stats.transient_failures);
    count_retries(ask_stats);
    if (!answers.ok()) {
      if (answers.status().IsDeadlineExceeded()) {
        // Budget ran out mid-ask: not the source's fault (no breaker
        // failure) and not a question failure — the resume re-asks it.
        report.deadline_exhausted = true;
        ++report.questions_deadline_skipped;
        count_outcome("deadline_skipped");
        question_span.Annotate("outcome", "deadline_skipped");
        continue;
      }
      fetch_breaker->RecordFailure();
      report.wasted_retries +=
          size_t(ask_stats.attempts > 1 ? ask_stats.attempts - 1 : 0);
      if (ask_stats.attempts > 1) {
        metrics_
            .GetCounter(kMetricFeedWastedRetries, {},
                        "Retry attempts beyond the first on operations "
                        "that ultimately failed")
            ->Increment(static_cast<double>(ask_stats.attempts - 1));
      }
      // Not marked completed: a resumed feed re-asks it.
      ++report.questions_failed;
      count_outcome("failed");
      question_span.Annotate("outcome", "failed");
      continue;
    }
    fetch_breaker->RecordSuccess();
    ++report.questions_by_degradation[answers->degradation];
    metrics_
        .GetCounter(
            kMetricFeedQuestionsByLevel,
            {{"level", qa::DegradationLevelName(answers->degradation)}},
            "Asked-and-answered Step-5 questions per ladder rung")
        ->Increment();
    count_outcome(answers->empty() ? "unanswered" : "answered");
    question_span.Annotate("outcome",
                           answers->empty() ? "unanswered" : "answered");
    question_span.Annotate("level",
                           qa::DegradationLevelName(answers->degradation));
    // The question's commit group: its WAL-logged facts and the ones the
    // ETL refused.
    dw::WalCommit commit;
    commit.question = question;
    size_t refused = 0;
    if (!answers->empty()) {
      ++report.questions_answered;
      std::vector<qa::StructuredFact> facts =
          qa::ToStructuredFacts(*answers, attribute);
      if (facts.size() > answers_per_question) {
        facts.resize(answers_per_question);
      }
      for (qa::StructuredFact& fact : facts) {
        ++report.facts_extracted;
        Span fact_span(trace, "step5.fact");
        fact_span.Annotate("location", fact.location);
        fact_span.Annotate("value", fact.value);
        // Admission control first: implausible facts go to the quarantine
        // before they can consume a dedup key or touch the ETL.
        {
          Span validate_span(trace, "qa.validate");
          qa::RejectReason reason = validator_.Check(fact);
          if (reason != qa::RejectReason::kNone) {
            validate_span.Annotate("reject", qa::RejectReasonName(reason));
            validate_span.End();
            QuarantineFact(fact, reason, "", &report);
            fact.disposition = qa::FactDisposition::kQuarantined;
            count_fact("quarantined");
            fact_span.Annotate("disposition", "quarantined");
            report.facts.push_back(std::move(fact));
            continue;
          }
        }
        // Feed deduplication: one row per (attribute, location, date). The
        // key is only recorded after a successful load, so a fact whose
        // load fails does not block a later retry.
        std::string key =
            attribute + "|" + ToLower(fact.location) + "|" +
            (fact.date.has_value() ? fact.date->ToIsoString() : "?");
        if (config_.dedup_feed && progress_.fed_keys.count(key) > 0) {
          ++report.rows_deduplicated;
          fact.disposition = qa::FactDisposition::kDeduplicated;
          count_fact("deduplicated");
          fact_span.Annotate("disposition", "deduplicated");
          report.facts.push_back(std::move(fact));
          continue;
        }
        // One breaker per source URL: a single poisoned page is isolated
        // without tripping the feed for the healthy sources.
        const std::string source_name =
            "source:" + (fact.url.empty() ? std::string("?") : fact.url);
        CircuitBreaker* source_breaker = breakers_.Get(source_name);
        if (!source_breaker->Allow()) {
          ++report.breaker_rejections;
          QuarantineFact(fact, qa::RejectReason::kCircuitOpen,
                         "circuit open for " + source_name, &report);
          fact.disposition = qa::FactDisposition::kQuarantined;
          count_fact("quarantined");
          fact_span.Annotate("disposition", "quarantined");
          report.facts.push_back(std::move(fact));
          continue;
        }
        // Unit normalization per the Step-4 conversion axiom: the Weather
        // measure is Celsius, so Fahrenheit readings are converted before
        // loading ("the conversion formulae between Celsius and Fahrenheit
        // scales", §3 Step 4).
        if (fact.unit == "F") {
          fact.value = (fact.value - 32.0) * 5.0 / 9.0;
          fact.unit = "\xC2\xBA\x43";
        }
        dw::FactRecord record;
        // Roles: location (City), day (Date), source (Source/Url). The web
        // page is always stored, the paper's robustness measure.
        record.role_paths.push_back({fact.location.empty()
                                         ? std::string("?")
                                         : fact.location});
        if (fact.date.has_value()) {
          record.role_paths.push_back(dw::DateMemberPath(*fact.date));
        } else {
          record.role_paths.push_back({"unknown-date"});
        }
        record.role_paths.push_back(
            {fact.url.empty() ? std::string("?") : fact.url});
        record.measures = {dw::Value(fact.value)};
        // Write-ahead: the fact is logged before the ETL sees it, and
        // becomes durable with the question's commit. An append failure
        // quarantines the fact — loading a row the log does not hold would
        // make recovery lose it.
        dw::Lsn lsn = 0;
        if (wal_ != nullptr) {
          Span wal_span(trace, "wal.append");
          dw::WalFact wal_fact;
          wal_fact.fact_name = fact_name;
          wal_fact.attribute = attribute;
          wal_fact.value = fact.value;
          wal_fact.unit = fact.unit;
          wal_fact.date_iso =
              fact.date.has_value() ? fact.date->ToIsoString() : "";
          wal_fact.location = fact.location;
          wal_fact.url = fact.url;
          wal_fact.confidence = fact.confidence;
          wal_fact.dedup_key = key;
          wal_fact.record = record;
          Result<dw::Lsn> appended = wal_->AppendFact(wal_fact);
          if (!appended.ok()) {
            wal_span.Annotate("outcome", "failed");
            wal_span.End();
            QuarantineFact(fact, qa::RejectReason::kWalFailed,
                           appended.status().ToString(), &report);
            fact.disposition = qa::FactDisposition::kQuarantined;
            count_fact("quarantined");
            fact_span.Annotate("disposition", "quarantined");
            report.facts.push_back(std::move(fact));
            continue;
          }
          lsn = *appended;
          wal_span.Annotate("lsn", static_cast<double>(lsn));
          if (commit.first_lsn == 0) commit.first_lsn = lsn;
          commit.last_lsn = lsn;
        }
        RetryPolicy load_policy = resilience.retry;
        if (source_breaker->state() == BreakerState::kHalfOpen) {
          load_policy.max_attempts = 1;
        }
        RetryStats load_stats;
        Status st;
        {
          Span load_span(trace, "dw.etl.load");
          ScopedLatencyTimer load_timer(metrics_.GetHistogram(
              kMetricDwEtlLoadLatency, {},
              MetricRegistry::LatencyBucketsMs(),
              "Latency of ETL fact loads, retries included"));
          st = RetryCall(
              load_policy,
              [&]() -> Status {
                DWQA_RETURN_NOT_OK(fault_.Hit(kFaultPointEtlLoad));
                // Per-source scoped point ("dw.etl.load:<url>"): only rules
                // armed with this exact name draw here, so a poisoned
                // source never shifts the schedule of the healthy ones.
                DWQA_RETURN_NOT_OK(fault_.Hit(
                    std::string(kFaultPointEtlLoad) + ":" + fact.url));
                return loader.LoadRecord(fact_name, record);
              },
              &load_stats, &deadline_, kFaultPointEtlLoad);
          load_span.Annotate("attempts",
                             static_cast<double>(load_stats.attempts));
        }
        report.retries += size_t(
            load_stats.attempts > 1 ? load_stats.attempts - 1 : 0);
        report.transient_failures += size_t(load_stats.transient_failures);
        count_retries(load_stats);
        if (st.ok()) {
          source_breaker->RecordSuccess();
          ++report.rows_loaded;
          metrics_
              .GetCounter(kMetricDwEtlRowsLoaded, {},
                          "Fact rows the ETL loaded into the warehouse")
              ->Increment();
          progress_.fed_keys.insert(key);
          fact.disposition = qa::FactDisposition::kLoaded;
          count_fact("loaded");
          fact_span.Annotate("disposition", "loaded");
        } else {
          if (st.IsDeadlineExceeded()) {
            // Budget exhaustion is not evidence against the source.
            report.deadline_exhausted = true;
          } else {
            source_breaker->RecordFailure();
            report.wasted_retries += size_t(
                load_stats.attempts > 1 ? load_stats.attempts - 1 : 0);
            if (load_stats.attempts > 1) {
              metrics_
                  .GetCounter(kMetricFeedWastedRetries, {},
                              "Retry attempts beyond the first on "
                              "operations that ultimately failed")
                  ->Increment(static_cast<double>(load_stats.attempts - 1));
            }
          }
          ++report.rows_rejected;
          ++refused;
          if (lsn != 0) commit.refused.push_back(lsn);
          metrics_
              .GetCounter(kMetricDwEtlRowsRejected, {},
                          "Fact rows the ETL layer refused")
              ->Increment();
          QuarantineFact(fact,
                         IsTransient(st)
                             ? qa::RejectReason::kTransientExhausted
                             : qa::RejectReason::kEtlRejected,
                         st.ToString(), &report);
          fact.disposition = qa::FactDisposition::kRejected;
          count_fact("rejected");
          fact_span.Annotate("disposition", "rejected");
        }
        report.facts.push_back(std::move(fact));
      }
    }
    // One commit record and one sync per question, then the question is
    // acknowledged. A failed commit leaves the warehouse ahead of the log:
    // the run fails, and so does every later feed or flush.
    if (wal_ != nullptr) {
      Span commit_span(trace, "wal.append");
      commit_span.Annotate("record", "commit");
      Status committed = wal_->AppendCommit(commit).status();
      if (committed.ok()) committed = wal_->Sync();
      if (!committed.ok()) {
        commit_span.Annotate("outcome", "failed");
        wal_failure_ = Status(committed.code(),
                              "WAL commit of '" + question + "' failed, "
                              "recover the tenant: " + committed.message());
        return wal_failure_;
      }
    }
    if (refused == 0) progress_.questions.insert(question);
  }
  if (deadline_.exhausted()) report.deadline_exhausted = true;
  report.health.Capture(deadline_, breakers_);
  report.health.breaker_rejections = report.breaker_rejections;
  report.health.wasted_retries = report.wasted_retries;
  for (const auto& [level, count] : report.questions_by_degradation) {
    report.health.questions_by_degradation[qa::DegradationLevelName(level)] =
        count;
  }
  steps_done_[4] = true;
  return report;
}

}  // namespace integration
}  // namespace dwqa
