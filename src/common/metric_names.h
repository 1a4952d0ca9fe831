#ifndef DWQA_COMMON_METRIC_NAMES_H_
#define DWQA_COMMON_METRIC_NAMES_H_

/// \file metric_names.h
/// \brief The metric catalogue: every metric name the codebase registers.
///
/// All metric names live here, as constants, for three reasons: call sites
/// cannot typo a name into a parallel series; the catalogue lint
/// (scripts/lint.sh) can check that every name is documented in
/// docs/OBSERVABILITY.md; and a reader gets the whole observability surface
/// of the system in one header. Names follow the Prometheus convention:
/// `dwqa_<layer>_<what>[_total|_ms]`, `_total` for counters, `_ms` for
/// latency histograms. Label keys are listed next to each name.

namespace dwqa {

/// \name Deadline budget (common/deadline.h)
/// @{
/// Counter, labels {stage}: units charged to the shared budget per stage.
inline constexpr char kMetricDeadlineSpentUnits[] =
    "dwqa_deadline_spent_units_total";
/// Gauge: 1 once the shared budget is exhausted, 0 before.
inline constexpr char kMetricDeadlineExhausted[] = "dwqa_deadline_exhausted";
/// @}

/// \name Circuit breakers (common/circuit_breaker.h)
/// @{
/// Counter, labels {breaker, to}: state transitions per breaker
/// (to = "Open" | "HalfOpen" | "Closed").
inline constexpr char kMetricBreakerTransitions[] =
    "dwqa_breaker_transitions_total";
/// Counter, labels {breaker}: admissions refused while open/half-open.
inline constexpr char kMetricBreakerRejections[] =
    "dwqa_breaker_rejections_total";
/// Counter, labels {breaker}: whole-operation failures recorded.
inline constexpr char kMetricBreakerFailures[] =
    "dwqa_breaker_failures_total";
/// @}

/// \name IR indexes (ir/inverted_index.h, ir/passage_index.h)
/// @{
/// Counter: PassageIndex::Search calls (the IR-n filtering lookups).
inline constexpr char kMetricIrPassageLookups[] =
    "dwqa_ir_passage_lookups_total";
/// Histogram: PassageIndex::Search wall-clock latency.
inline constexpr char kMetricIrPassageLookupLatency[] =
    "dwqa_ir_passage_lookup_latency_ms";
/// Counter: InvertedIndex::Search calls (document-level baseline lookups).
inline constexpr char kMetricIrDocLookups[] = "dwqa_ir_doc_lookups_total";
/// Histogram: InvertedIndex::Search wall-clock latency.
inline constexpr char kMetricIrDocLookupLatency[] =
    "dwqa_ir_doc_lookup_latency_ms";
/// @}

/// \name Segmented index cores (ir/segmented_index.h)
///
/// All families carry the label {index = "doc" | "passage"} — one series
/// per index kind.
/// @{
/// Gauge, labels {index}: sealed segments currently in the manifest.
inline constexpr char kMetricIndexSegments[] = "dwqa_index_segments";
/// Counter, labels {index}: memtables sealed into immutable segments.
inline constexpr char kMetricIndexSeals[] = "dwqa_index_seals_total";
/// Counter, labels {index}: tiered segment merges run.
inline constexpr char kMetricIndexMerges[] = "dwqa_index_merges_total";
/// Histogram, labels {index}: wall-clock latency of one segment merge.
inline constexpr char kMetricIndexMergeLatency[] =
    "dwqa_index_merge_latency_ms";
/// Gauge, labels {index}: compressed postings bytes across sealed segments.
inline constexpr char kMetricIndexPostingsBytes[] =
    "dwqa_index_postings_bytes";
/// Counter, labels {index}: whole segments skipped by the top-k score
/// bound without opening a postings list.
inline constexpr char kMetricIndexPrunedSegments[] =
    "dwqa_index_pruned_segments_total";
/// Counter, labels {index}: posting blocks stepped over undecoded by the
/// block-max bound (single-term document queries).
inline constexpr char kMetricIndexPrunedBlocks[] =
    "dwqa_index_pruned_blocks_total";
/// Counter, labels {index}: candidate documents skipped unscored by the
/// block-max / repeat-bonus score bound.
inline constexpr char kMetricIndexPrunedCandidates[] =
    "dwqa_index_pruned_candidates_total";
/// Counter, labels {index}: candidate sentence windows skipped unscored
/// when their document was pruned (passage index only).
inline constexpr char kMetricIndexPrunedWindows[] =
    "dwqa_index_pruned_windows_total";
/// Counter: documents made searchable through the incremental-ingest path
/// (AliQAn::IngestNewDocuments) — appends, never rebuilds.
inline constexpr char kMetricIndexIngestDocs[] =
    "dwqa_index_ingest_docs_total";
/// @}

/// \name QA search and indexation phases (qa/aliqan.h)
/// @{
/// Counter: questions put through the search phase (Ask/AskWith calls).
inline constexpr char kMetricQaQuestions[] = "dwqa_qa_questions_total";
/// Counter, labels {level}: answers produced per degradation-ladder rung.
inline constexpr char kMetricQaAnswers[] = "dwqa_qa_answers_total";
/// Histogram, labels {phase}: per-question latency of the three search
/// modules (phase = "analysis" | "retrieval" | "extraction").
inline constexpr char kMetricQaPhaseLatency[] = "dwqa_qa_phase_latency_ms";
/// Counter, labels {source}: sentences the extraction module processed
/// (source = "cached": every sentence is read from the AnalyzedCorpus).
inline constexpr char kMetricQaSentencesAnalyzed[] =
    "dwqa_qa_sentences_analyzed_total";
/// Counter: documents put through off-line indexation.
inline constexpr char kMetricQaIndexDocuments[] =
    "dwqa_qa_index_documents_total";
/// Counter: sentences linguistically analyzed at indexation time.
inline constexpr char kMetricQaIndexSentences[] =
    "dwqa_qa_index_sentences_total";
/// Histogram: IndexCorpus wall-clock latency.
inline constexpr char kMetricQaIndexLatency[] = "dwqa_qa_index_latency_ms";
/// @}

/// \name Step-5 feed (integration/pipeline.h)
/// @{
/// Counter, labels {outcome}: every question of a RunStep5 batch lands in
/// exactly one outcome ("answered" | "unanswered" | "failed" | "resumed" |
/// "deadline_skipped" | "breaker_rejected").
inline constexpr char kMetricFeedQuestions[] = "dwqa_feed_questions_total";
/// Counter, labels {level}: asked-and-answered questions per
/// degradation-ladder rung (the feed-side twin of dwqa_qa_answers_total).
inline constexpr char kMetricFeedQuestionsByLevel[] =
    "dwqa_feed_questions_by_level_total";
/// Counter, labels {disposition}: every extracted fact lands in exactly one
/// disposition ("loaded" | "deduplicated" | "quarantined" | "rejected") —
/// the metrics half of the FeedReport accounting identity.
inline constexpr char kMetricFeedFacts[] = "dwqa_feed_facts_total";
/// Counter, labels {reason}: facts diverted to the quarantine per typed
/// RejectReason.
inline constexpr char kMetricFeedQuarantined[] =
    "dwqa_feed_quarantined_total";
/// Counter: extra attempts spent on transient faults (ask + ETL).
inline constexpr char kMetricFeedRetries[] = "dwqa_feed_retries_total";
/// Counter: transient failures observed (masked or terminal).
inline constexpr char kMetricFeedTransientFailures[] =
    "dwqa_feed_transient_failures_total";
/// Counter: retries beyond the first on ultimately-failed operations — the
/// waste a circuit breaker exists to cut.
inline constexpr char kMetricFeedWastedRetries[] =
    "dwqa_feed_wasted_retries_total";
/// @}

/// \name Retry pressure (common/retry.h, MirrorRetryStats)
/// @{
/// Counter, labels {stage}: attempts a RetryCall made (first tries and
/// retries alike), per guarded stage.
inline constexpr char kMetricRetryAttempts[] = "dwqa_retry_attempts_total";
/// Counter, labels {stage}: transient failures a RetryCall observed.
inline constexpr char kMetricRetryTransientFailures[] =
    "dwqa_retry_transient_failures_total";
/// Counter, labels {stage}: RetryCalls that exhausted their attempt budget
/// without succeeding — the give-ups behind breaker trips.
inline constexpr char kMetricRetryGiveups[] = "dwqa_retry_giveups_total";
/// @}

/// \name Serving layer (serve/server.h, serve/admission.h,
/// serve/answer_cache.h)
/// @{
/// Counter, labels {endpoint, outcome}: every request the server saw ends
/// in exactly one outcome ("ok" | "rejected" | "error").
inline constexpr char kMetricServeRequests[] = "dwqa_serve_requests_total";
/// Counter, labels {reason}: admissions the server refused
/// (reason = "queue_full" | "cost_budget" | "rate_limited" |
/// "tenant_concurrency" | "draining" | "circuit_open" |
/// "deadline_exceeded" | "unknown_tenant" | "bad_request").
inline constexpr char kMetricServeRejections[] =
    "dwqa_serve_rejections_total";
/// Gauge: requests admitted and not yet finished.
inline constexpr char kMetricServeQueueDepth[] = "dwqa_serve_queue_depth";
/// Gauge: estimated cost units admitted and not yet finished.
inline constexpr char kMetricServeQueuedCost[] = "dwqa_serve_queued_cost";
/// Gauge, labels {tenant}: requests of one tenant currently in flight.
inline constexpr char kMetricServeTenantInflight[] =
    "dwqa_serve_tenant_inflight";
/// Histogram, labels {endpoint}: wall-clock latency of executed requests
/// (admission-rejected requests are not observed here).
inline constexpr char kMetricServeRequestLatency[] =
    "dwqa_serve_request_latency_ms";
/// Gauge: 1 while the server is draining or drained, 0 while accepting.
inline constexpr char kMetricServeDraining[] = "dwqa_serve_draining";
/// Counter, labels {tenant, result}: answer-cache lookups
/// (result = "hit" | "stale" | "miss").
inline constexpr char kMetricServeCacheLookups[] =
    "dwqa_serve_cache_lookups_total";
/// Counter, labels {tenant}: answers inserted into the cache.
inline constexpr char kMetricServeCacheInsertions[] =
    "dwqa_serve_cache_insertions_total";
/// Counter, labels {tenant}: entries evicted by the LRU memory cap.
inline constexpr char kMetricServeCacheEvictions[] =
    "dwqa_serve_cache_evictions_total";
/// Gauge, labels {tenant}: bytes the cache currently holds.
inline constexpr char kMetricServeCacheBytes[] = "dwqa_serve_cache_bytes";
/// Gauge, labels {tenant}: entries the cache currently holds.
inline constexpr char kMetricServeCacheEntries[] =
    "dwqa_serve_cache_entries";
/// Counter, labels {tenant}: stale cached answers served because the live
/// path had already degraded past them (stale-while-degraded).
inline constexpr char kMetricServeStaleServed[] =
    "dwqa_serve_stale_served_total";
/// @}

/// \name Write-ahead log (dw/wal.h)
/// @{
/// Counter: records successfully appended to the WAL — facts and commit
/// records alike (durable once the next sync returns).
inline constexpr char kMetricWalAppends[] = "dwqa_wal_appends_total";
/// Counter: payload bytes appended (framing overhead excluded).
inline constexpr char kMetricWalAppendBytes[] =
    "dwqa_wal_append_bytes_total";
/// Counter: appends that failed (serialization, I/O, injected crash).
inline constexpr char kMetricWalAppendFailures[] =
    "dwqa_wal_append_failures_total";
/// Counter: segment fsyncs issued by WalWriter::Sync (one per segment
/// written since the previous sync).
inline constexpr char kMetricWalSyncs[] = "dwqa_wal_syncs_total";
/// Counter: segment rotations (size-triggered and explicit alike).
inline constexpr char kMetricWalRotations[] = "dwqa_wal_rotations_total";
/// Gauge: highest LSN the writer has committed (0 = empty log).
inline constexpr char kMetricWalLastLsn[] = "dwqa_wal_last_lsn";
/// Gauge: live segment files (after covered-segment retention drops).
inline constexpr char kMetricWalSegments[] = "dwqa_wal_segments";
/// @}

/// \name Recovery / fsck (dw/recovery.h)
/// @{
/// Counter, labels {outcome}: Recovery::Open calls ("ok" | "error").
inline constexpr char kMetricRecoveryOpens[] = "dwqa_recovery_opens_total";
/// Counter: WAL records replayed into the warehouse (post-snapshot tail).
inline constexpr char kMetricRecoveryReplayed[] =
    "dwqa_recovery_replayed_records_total";
/// Counter: replayed records diverted to quarantine (CRC mismatch,
/// validator reject, ETL refusal).
inline constexpr char kMetricRecoveryQuarantined[] =
    "dwqa_recovery_quarantined_total";
/// Counter: torn-tail bytes truncated from the log during open.
inline constexpr char kMetricRecoveryTornBytes[] =
    "dwqa_recovery_torn_bytes_total";
/// Counter: well-framed records whose payload failed its CRC (bit rot).
inline constexpr char kMetricRecoveryCorruptRecords[] =
    "dwqa_recovery_corrupt_records_total";
/// Counter: WAL fact records recovery skipped because no commit record
/// covers them or their commit refused them.
inline constexpr char kMetricRecoveryUncommitted[] =
    "dwqa_recovery_uncommitted_records_total";
/// Gauge: covering LSN of the snapshot recovery loaded (0 = none).
inline constexpr char kMetricRecoverySnapshotLsn[] =
    "dwqa_recovery_snapshot_lsn";
/// Histogram: wall-clock latency of Recovery::Open.
inline constexpr char kMetricRecoveryOpenLatency[] =
    "dwqa_recovery_open_latency_ms";
/// @}

/// \name Materialized OLAP views (dw/materialized_view.h)
/// @{
/// Gauge: views currently bound in the catalog.
inline constexpr char kMetricViewCount[] = "dwqa_view_count";
/// Gauge: aggregate groups materialized across all views.
inline constexpr char kMetricViewGroups[] = "dwqa_view_groups";
/// Counter: per-view delta applications — one per view touched per
/// inserted fact (incremental maintenance volume).
inline constexpr char kMetricViewMaintenanceUpdates[] =
    "dwqa_view_maintenance_updates_total";
/// Histogram: per-fact incremental maintenance latency across all views.
inline constexpr char kMetricViewMaintainLatency[] =
    "dwqa_view_maintain_latency_ms";
/// Counter, labels {view}: queries answered from a matching view.
inline constexpr char kMetricViewReads[] = "dwqa_view_reads_total";
/// Counter: view lookups that missed — the recompute fallbacks.
inline constexpr char kMetricViewMisses[] = "dwqa_view_misses_total";
/// Counter: full rebuild scans of the catalog (Bind, recovery).
inline constexpr char kMetricViewRebuilds[] = "dwqa_view_rebuilds_total";
/// @}

/// \name Warehouse / ETL boundary (integration/pipeline.cc, dw/etl.h)
/// @{
/// Histogram: per-record ETL load latency (retries included).
inline constexpr char kMetricDwEtlLoadLatency[] =
    "dwqa_dw_etl_load_latency_ms";
/// Counter: rows that reached the warehouse.
inline constexpr char kMetricDwEtlRowsLoaded[] =
    "dwqa_dw_etl_rows_loaded_total";
/// Counter: rows the ETL boundary ultimately refused.
inline constexpr char kMetricDwEtlRowsRejected[] =
    "dwqa_dw_etl_rows_rejected_total";
/// Gauge: records currently parked in the dead-letter QuarantineStore.
inline constexpr char kMetricDwQuarantineRecords[] =
    "dwqa_dw_quarantine_records";
/// @}

/// \name Warehouse federation (dw/federation/federated_engine.h)
/// @{
/// Counter, labels {coverage}: federated queries by terminal coverage
/// ("full" | "partial" | "failed").
inline constexpr char kMetricFedQueries[] = "dwqa_fed_queries_total";
/// Counter, labels {warehouse, outcome}: per-warehouse sub-queries
/// (outcome = "ok" | "error" | "skipped").
inline constexpr char kMetricFedSubqueries[] = "dwqa_fed_subqueries_total";
/// Histogram, labels {warehouse}: wall-clock latency of one sub-query.
inline constexpr char kMetricFedSubqueryLatency[] =
    "dwqa_fed_subquery_latency_ms";
/// Counter: groups folded through AggState::Merge across all sub-results.
inline constexpr char kMetricFedGroupsMerged[] =
    "dwqa_fed_groups_merged_total";
/// Counter, labels {policy, resolution}: cross-warehouse fact-key
/// conflicts, by the policy that resolved them and the resolution taken
/// (resolution = "local" | "remote" | "quarantined" | "deduplicated").
inline constexpr char kMetricFedConflicts[] = "dwqa_fed_conflicts_total";
/// Histogram: wall-clock latency of the partial-aggregate merge phase.
inline constexpr char kMetricFedMergeLatency[] = "dwqa_fed_merge_latency_ms";
/// @}

}  // namespace dwqa

#endif  // DWQA_COMMON_METRIC_NAMES_H_
