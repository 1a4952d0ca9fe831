#ifndef DWQA_INTEGRATION_PIPELINE_H_
#define DWQA_INTEGRATION_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/trace.h"
#include "dw/federation/federated_engine.h"
#include "dw/quarantine.h"
#include "dw/wal.h"
#include "dw/warehouse.h"
#include "integration/pipeline_health.h"
#include "ir/document.h"
#include "ontology/merge.h"
#include "ontology/ontology.h"
#include "ontology/uml_model.h"
#include "qa/aliqan.h"
#include "qa/fact_validator.h"
#include "qa/structured.h"

namespace dwqa {
namespace integration {

/// \brief Both exporter renderings of one MetricRegistry snapshot, produced
/// by IntegrationPipeline::DumpMetrics (and teed into BENCH_phase3.json by
/// bench_degradation).
struct MetricsDump {
  /// Prometheus text exposition format.
  std::string prometheus;
  /// `{"schema": "dwqa-metrics-v1", "metrics": [...]}`.
  std::string json;
};

/// \brief One recorded Step-5 question trace: the question text plus the
/// span tree its processing produced.
struct QuestionTrace {
  std::string question;
  /// The recorder holding the spans (unique_ptr: TraceRecorder owns a
  /// mutex and is therefore not movable itself).
  std::unique_ptr<TraceRecorder> recorder;
};

/// \brief Crash-safe durability of the Step-5 feed (dw/wal.h,
/// dw/snapshot.h, dw/recovery.h).
///
/// When `dir` is set, the WAL is the feed's one durable record of
/// progress: every admitted fact is logged *before* it touches the ETL,
/// and each question ends with a commit record and one sync (dw::WalCommit)
/// before RunStep5 acknowledges it. A pipeline opening the log skips the
/// committed questions as resumed. A failed commit fails the run and every
/// later feed or flush: the warehouse is ahead of the log, so the tenant
/// must be rebuilt with Recovery::Open. FlushDurability() (called by
/// QaServer::Drain) snapshots and drops the covered WAL segments.
struct DurabilityConfig {
  /// Durability root (WAL segments + snapshot directories). Empty (the
  /// default) disables the WAL entirely — zero cost for feeds that do not
  /// need crash safety. The pipeline's warehouse must be the one
  /// Recovery::Open rebuilt from this root (or empty for a fresh root).
  std::string dir;
  /// Ignored: every question is synced once, at its commit. Kept only
  /// because the benchmark fixture still sets it.
  bool sync_each_append = true;
  /// All durability I/O goes through this Fs (null = real filesystem) so
  /// the crash-point harness can interpose.
  Fs* fs = nullptr;
};

/// \brief Resilience of the Step-5 feed: how the pipeline survives an
/// unreliable web, implausible extractions and mid-run crashes.
struct ResilienceConfig {
  /// Injected faults (tests/benches). Default: no rules, nothing fires.
  FaultConfig fault;
  /// Retry schedule for the transient fault points (corpus indexation,
  /// per-question fetch/ask, per-record ETL load).
  RetryPolicy retry;
  /// Per-attribute admission rules layered over the ontology-derived ones —
  /// the feed boundary may be stricter than the extraction-side axioms
  /// (e.g. a warehouse that only accepts a narrower interval than the QA
  /// system extracts).
  std::map<std::string, qa::AttributeRule> validator_rules;
  /// Circuit breakers per fault point and per source URL (off by default —
  /// a disabled breaker admits everything and never trips).
  BreakerConfig breaker;
  /// Shared attempt/cost budget across indexation, ask and load
  /// (unlimited by default).
  DeadlineConfig deadline;
  /// Write-ahead logging + snapshots of the feed (off unless dir is set).
  DurabilityConfig durability;
};

/// \brief Configuration of the five-step integration.
struct PipelineConfig {
  /// Step 2 on/off — the enrichment ablation of bench_ontology_enrichment.
  bool enrich_with_dw_contents = true;
  ontology::MergeOptions merge;
  qa::AliQAnConfig qa;
  /// Plug the table-aware page preprocessor (the paper's §5 future work) —
  /// the ablation of bench_fig5_table_extraction.
  bool table_preprocess = false;
  /// Alternative names per dimension member, keyed by lowercase member name
  /// — DW metadata like "JFK" ↔ "Kennedy International Airport" that Step 2
  /// registers as ontology aliases (so the Step-3 merge can link them to
  /// upper-ontology instances).
  std::map<std::string, std::vector<std::string>> member_aliases;
  /// Deduplicate the Step-5 feed: an (attribute, location, date) key is
  /// loaded at most once across all RunStep5 calls of this pipeline, so
  /// re-asking (or overlapping month questions) does not double facts in
  /// the warehouse.
  bool dedup_feed = true;
  /// When true, RunStep5 records one trace tree per processed question
  /// (step5.question → qa.ask → analysis/retrieval/extraction → per-fact
  /// validate/load spans), retrievable via question_traces() /
  /// RenderTraces(). Off by default — tracing allocates per question.
  bool trace_questions = false;
  ResilienceConfig resilience;
};

/// \brief Counters of one Step-5 feed run.
///
/// Accounting identity: every extracted fact ends up in exactly one bucket,
/// `facts_extracted == rows_loaded + rows_deduplicated + rows_quarantined`.
struct FeedReport {
  size_t questions_asked = 0;
  size_t questions_answered = 0;
  /// Questions whose retry budget ran out (transient faults outlasted the
  /// RetryPolicy) or that failed permanently; not marked completed, so a
  /// resumed feed re-asks them.
  size_t questions_failed = 0;
  /// Questions skipped because a durable commit completed them
  /// (DurabilityConfig::dir set).
  size_t questions_resumed = 0;
  size_t facts_extracted = 0;
  size_t rows_loaded = 0;
  /// ETL-layer refusals (a subset of rows_quarantined: those facts land in
  /// the quarantine with reason EtlRejected/TransientExhausted).
  size_t rows_rejected = 0;
  /// Facts skipped because their (attribute, location, date) key was
  /// already fed (PipelineConfig::dedup_feed).
  size_t rows_deduplicated = 0;
  /// Facts diverted to the QuarantineStore (axiom violations + ETL
  /// refusals), never silently dropped.
  size_t rows_quarantined = 0;
  std::map<qa::RejectReason, size_t> quarantined_by_reason;
  /// Extra attempts spent on transient faults across ask + ETL calls.
  size_t retries = 0;
  /// Transient failures observed (each either masked by a retry or ending
  /// in questions_failed / TransientExhausted quarantine).
  size_t transient_failures = 0;
  /// Retries the last IndexCorpus call needed (informational).
  size_t corpus_index_retries = 0;
  /// Retry attempts beyond the first on operations that ultimately failed
  /// — the waste the circuit breaker exists to cut.
  size_t wasted_retries = 0;
  /// Admissions refused by an open breaker (questions skipped + facts
  /// quarantined with kCircuitOpen).
  size_t breaker_rejections = 0;
  /// Questions skipped (not asked, not completed) because the deadline
  /// budget was already exhausted; a resumed feed re-asks them.
  size_t questions_deadline_skipped = 0;
  /// The shared deadline budget ran out at some point of this run.
  bool deadline_exhausted = false;
  /// Asked-and-answered questions per ladder rung (qa/degradation.h).
  std::map<qa::DegradationLevel, size_t> questions_by_degradation;
  /// Every extracted fact with its disposition
  /// (loaded/deduplicated/quarantined/rejected) — the full audit trail, not
  /// just the loaded rows.
  std::vector<qa::StructuredFact> facts;
  /// Operational summary (budget per stage, breaker states).
  PipelineHealth health;
};

/// \brief The paper's contribution: the ontology-mediated DW ⇄ QA
/// integration, as the five semi-automatic steps of §3.
///
///  1. `RunStep1` — domain ontology from the DW's UML model;
///  2. `RunStep2` — enrich it with the DW contents (dimension members);
///  3. `RunStep3` — merge into the QA system's upper ontology (mini-WordNet);
///  4. `RunStep4` — tune the QA system: temperature/price axioms
///     ("a temperature is a number followed by the scale, the right
///     temperature intervals, the conversion formulae");
///  5. `RunStep5` — pose questions, structure the answers and feed the DW.
///
/// `RunAll` executes 1–4 and indexes the corpus; Step 5 runs per question
/// batch.
class IntegrationPipeline {
 public:
  /// `warehouse` and `uml` must outlive the pipeline.
  IntegrationPipeline(dw::Warehouse* warehouse,
                      const ontology::UmlModel* uml,
                      PipelineConfig config = {});

  Status RunStep1();
  Status RunStep2();
  Status RunStep3();
  Status RunStep4();

  /// Indexes the unstructured corpus with the (merged) ontology-backed QA
  /// system. Must run after Step 3 (the QA system needs the merged
  /// ontology). `docs` must outlive the pipeline.
  Status IndexCorpus(const ir::DocumentStore* docs);

  /// Incremental ingest: indexes every document appended to the store
  /// since IndexCorpus (or the previous ingest) — an append into the QA
  /// system's segmented indexes, cost proportional to the new documents
  /// only. Returns the number of documents ingested; they are answerable
  /// by Ask/RunStep5 on return.
  Result<size_t> IngestNewDocuments();

  /// Steps 1–4 plus corpus indexation.
  Status RunAll(const ir::DocumentStore* docs);

  /// Step 5: asks each question, converts answers to structured facts and
  /// loads them into `fact_name` (roles: location/City, day/Date,
  /// source/Source; measure = the fact value). `attribute` labels the
  /// extracted measure ("temperature").
  Result<FeedReport> RunStep5(const std::vector<std::string>& questions,
                              const std::string& fact_name,
                              const std::string& attribute,
                              size_t answers_per_question = 31);

  /// \name Durability (ResilienceConfig::durability)
  /// @{
  /// Cuts an atomic snapshot of the warehouse and the feed progress at the
  /// current LSN and drops the WAL segments it covers. No-op (OK) when
  /// durability is disabled.
  Status FlushDurability();
  /// Completed questions and fed keys: restored from the durable commits
  /// when the WAL opens, then extended by this pipeline's feeds.
  const dw::CommitSet& feed_progress() const { return progress_; }
  /// Highest LSN the WAL has acknowledged (0 when durability is disabled
  /// or the WAL has not been opened yet).
  uint64_t wal_last_lsn() const { return wal_ ? wal_->last_lsn() : 0; }
  /// @}

  /// \name Introspection for benches/tests
  /// @{
  const ontology::Ontology& domain_ontology() const { return domain_; }
  const ontology::Ontology& merged_ontology() const { return merged_; }
  const ontology::MergeReport& merge_report() const { return merge_report_; }
  qa::AliQAn* aliqan() { return aliqan_.get(); }
  const dw::Warehouse& warehouse() const { return *wh_; }
  bool step_done(int step) const { return steps_done_[size_t(step - 1)]; }
  /// Dead-letter store of the facts rejected by validation or the ETL.
  const dw::QuarantineStore& quarantine() const { return quarantine_; }
  dw::QuarantineStore* mutable_quarantine() { return &quarantine_; }
  const FaultInjector& fault_injector() const { return fault_; }
  const CircuitBreakerRegistry& breakers() const { return breakers_; }
  const Deadline& deadline() const { return deadline_; }
  /// Snapshot of budget + breaker state right now (RunStep5 also embeds
  /// one, with the feed counters filled in, in FeedReport::health).
  PipelineHealth Health() const;
  /// @}

  /// \name Federation (dw/federation)
  /// @{
  /// Attaches a federated query engine whose local member is this
  /// pipeline's warehouse (caller-owned, must outlive the pipeline). The
  /// BI layer and the serving `bi` endpoint route `scope=federated`
  /// requests through it; nothing else changes when none is attached.
  void AttachFederation(dw::fed::FederatedEngine* federation) {
    federation_ = federation;
  }
  /// The attached federation engine (null when the tenant has none).
  dw::fed::FederatedEngine* federation() const { return federation_; }
  /// @}

  /// \name Observability
  /// @{
  /// The pipeline-wide metrics registry. Every component the pipeline owns
  /// (deadline, breakers, QA engine, both IR indexes, the Step-5 feed)
  /// records into it; tests and benches may register their own series too.
  MetricRegistry* metrics() { return &metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  /// Renders the current registry contents through both exporters.
  MetricsDump DumpMetrics() const;
  /// Traces recorded by RunStep5 (empty unless
  /// PipelineConfig::trace_questions is set). Cleared at the start of each
  /// RunStep5 call, so they describe the last run.
  const std::vector<QuestionTrace>& question_traces() const {
    return traces_;
  }
  /// Flame-style rendering of every recorded trace, one block per question.
  std::string RenderTraces() const;
  /// @}

 private:
  /// Diverts `fact` to the quarantine and updates the report counters.
  void QuarantineFact(const qa::StructuredFact& fact,
                      qa::RejectReason reason, const std::string& detail,
                      FeedReport* report);

  /// Opens the WAL on first use (durability.dir set, wal_ still null).
  Status EnsureWalOpen();

  dw::Warehouse* wh_;
  const ontology::UmlModel* uml_;
  PipelineConfig config_;
  /// Federated query engine over this warehouse + mapped partners
  /// (caller-owned; null = tenant is not federated).
  dw::fed::FederatedEngine* federation_ = nullptr;
  /// Declared before the components that hold a pointer to it (breakers,
  /// deadline, QA engine) so it outlives them all.
  MetricRegistry metrics_;
  /// Per-question trace trees of the last RunStep5 (trace_questions only).
  std::vector<QuestionTrace> traces_;

  ontology::Ontology domain_;
  ontology::Ontology merged_;
  ontology::MergeReport merge_report_;
  std::unique_ptr<qa::AliQAn> aliqan_;
  bool steps_done_[5] = {false, false, false, false, false};

  /// \name Resilience state
  /// @{
  FaultInjector fault_;
  /// One breaker per fault point plus one per source URL, lazily created.
  CircuitBreakerRegistry breakers_;
  /// Shared cost budget across indexation, ask and load.
  Deadline deadline_;
  /// Result of validating ResilienceConfig at construction; checked at the
  /// entry of every Run* method (constructors cannot return Status).
  Status config_status_;
  qa::FactValidator validator_;
  dw::QuarantineStore quarantine_;
  /// See feed_progress().
  dw::CommitSet progress_;
  size_t corpus_index_retries_ = 0;
  /// Write-ahead log (null until the first RunStep5 with durability on).
  std::unique_ptr<dw::WalWriter> wal_;
  /// The failed commit that stopped this pipeline's durable feed (OK while
  /// the warehouse and the log agree).
  Status wal_failure_;
  /// @}
};

}  // namespace integration
}  // namespace dwqa

#endif  // DWQA_INTEGRATION_PIPELINE_H_
