#ifndef DWQA_QA_ALIQAN_H_
#define DWQA_QA_ALIQAN_H_

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/trace.h"
#include "ir/document.h"
#include "ir/inverted_index.h"
#include "ir/passage_index.h"
#include "ir/segmented_index.h"
#include "ontology/ontology.h"
#include "qa/answer.h"
#include "qa/degradation.h"
#include "qa/question.h"
#include "text/analyzed_corpus.h"

namespace dwqa {
namespace qa {

/// \brief Configuration of an AliQAn instance.
struct AliQAnConfig {
  /// Passages handed to the extraction module per question.
  size_t passages_to_analyze = 5;
  /// When false, Module 2 is bypassed and the extraction module analyzes
  /// every sentence of every document — the ablation quantifying the
  /// paper's "IR as first filtering phase" claim (§1).
  bool use_ir_filter = true;
  /// Candidates kept per question.
  size_t max_answers = 5;
  /// Answer ladder (qa/degradation.h). Both rungs default off.
  DegradationConfig degradation;
  /// Worker threads for the off-line indexation phase. 1 (the default) is
  /// the serial path; N > 1 analyzes documents concurrently and merges
  /// deterministically (AnalyzedCorpus::AddBatch), producing byte-identical
  /// dictionaries and postings. Ignored — with a log line — when a finite
  /// deadline budget is installed (mid-indexation exhaustion is inherently
  /// order-dependent).
  size_t threads = 1;
  /// Segment policy for both indexes (ir/segmented_index.h): memtable seal
  /// threshold, merge trigger, posting-block size.
  ir::SegmentedIndexOptions index_options;
};

/// \brief Wall-clock of the last Ask()/IndexCorpus() call, by phase — used
/// by bench_fig3_aliqan_phases.
///
/// Reset contract (tested by aliqan_test): IndexCorpus() zeroes
/// `indexation_ms` and `indexation_sentences` on entry; Ask() zeroes the
/// search-phase fields (`analysis_ms`, `retrieval_ms`, `extraction_ms`,
/// `sentences_analyzed`) on entry. Each field therefore always describes the
/// *last* call of its phase, never an accumulation or a stale previous
/// question.
struct PhaseTimings {
  double indexation_ms = 0.0;
  double analysis_ms = 0.0;
  double retrieval_ms = 0.0;
  double extraction_ms = 0.0;
  /// Sentences the extraction module processed for the last Ask(), all
  /// read from the AnalyzedCorpus.
  size_t sentences_analyzed = 0;
  /// Sentences analyzed (tokenize/tag/lemmatize/dates) by the last
  /// IndexCorpus() — the one-time off-line cost the paper's Figure 3 puts
  /// in the indexation phase.
  size_t indexation_sentences = 0;
};

/// \brief The QA system: a reimplementation of AliQAn's architecture
/// (paper Figure 3).
///
/// Indexation phase (off-line): documents are normalized to plain text (a
/// pluggable preprocessor handles HTML/XML; the integration layer plugs the
/// table-aware preprocessor here), linguistically analyzed exactly once
/// into the AnalyzedCorpus (sentence split, POS tags, lemmas, date
/// mentions, interned term ids), and indexed twice from that
/// analysis — the IR-n passage index for filtering and a document-level
/// index for the IR baseline comparisons. Indexation is deliberately the
/// expensive phase, exactly the paper's off-line/on-line split.
///
/// Search phase: (1) question analysis, (2) selection of relevant passages,
/// (3) extraction of the answer — pattern matching over the cached
/// analyses, no re-tokenization.
class AliQAn {
 public:
  /// Normalizes a raw document to the plain text to index.
  using Preprocessor = std::function<std::string(const ir::Document&)>;

  explicit AliQAn(const ontology::Ontology* onto, AliQAnConfig config = {});

  /// Replaces the default preprocessor (tag stripping for HTML/XML).
  void set_preprocessor(Preprocessor preprocessor);

  /// Installs a shared cost budget (owned by the caller, may be null).
  /// IndexCorpus() charges one unit per analyzed sentence (the linguistic
  /// work now lives there); Ask() charges per phase and per passage whose
  /// cached analyses are pattern-matched. Once exhausted, extraction
  /// degrades to what was already retrieved instead of running to
  /// completion.
  void set_deadline(Deadline* deadline) { deadline_ = deadline; }

  /// Attaches a metrics registry (owned by the caller, may be null). Ask
  /// records per-question counters and phase latencies into the `dwqa_qa_*`
  /// families; the registry is also propagated to both indexes (including
  /// the fresh ones IndexCorpus builds), so retrieval feeds the
  /// `dwqa_ir_*` families. Recording is lock-free, so concurrent AskWith
  /// callers may share the registry.
  void set_metrics(MetricRegistry* metrics);

  const AliQAnConfig& config() const { return config_; }

  /// Off-line indexation phase. `docs` must outlive this object.
  Status IndexCorpus(const ir::DocumentStore* docs);

  /// Incremental ingest: indexes every document appended to the store
  /// since the last IndexCorpus()/IngestNewDocuments() call — an append
  /// into both segmented indexes, never a rebuild, so the cost is
  /// proportional to the new documents and independent of corpus size.
  /// New documents are searchable on return. Returns the number ingested.
  Result<size_t> IngestNewDocuments();

  /// Module 1: question analysis.
  Result<QuestionAnalysis> AnalyzeQuestion(const std::string& question) const;

  /// Module 2: selection of relevant passages for an analyzed question.
  Result<std::vector<ir::Passage>> SelectPassages(
      const QuestionAnalysis& analysis) const;

  /// Full search phase: modules 1–3. When `trace` is non-null the call
  /// contributes a `qa.ask` span tree (analysis → retrieval → extraction,
  /// plus ladder rungs) to it.
  Result<AnswerSet> Ask(const std::string& question,
                        TraceRecorder* trace = nullptr);

  /// The same search phase against caller-supplied timing and deadline
  /// sinks, leaving the instance untouched: this method only reads the
  /// index, so concurrent callers may run it at once while no ingest
  /// writes (the serving layer holds its corpus lock shared around it).
  /// `timings`, `deadline` and `trace` may all be null; concurrent callers
  /// must not share a `trace` (TraceRecorder parents spans off a single
  /// serial stack).
  Result<AnswerSet> AskWith(const std::string& question,
                            PhaseTimings* timings, Deadline* deadline,
                            TraceRecorder* trace = nullptr) const;

  /// The document-level index (the IR baseline of bench_ir_vs_qa).
  const ir::InvertedIndex& document_index() const { return doc_index_; }
  const ir::PassageIndex& passage_index() const { return passage_index_; }

  /// The analyze-once corpus built by IndexCorpus. Consumers wanting the
  /// same term ids — e.g. integration::MultidimIr — attach to this object.
  const text::AnalyzedCorpus& corpus() const { return corpus_; }
  text::AnalyzedCorpus* mutable_corpus() { return &corpus_; }

  /// Plain text of an indexed document.
  Result<std::string> PlainText(ir::DocId doc) const;

  const PhaseTimings& last_timings() const { return timings_; }

 private:
  /// The per-ask series, resolved on first use after set_metrics, so an
  /// ask takes no registry mutex (AskWith runs concurrently on shared
  /// engines).
  struct AskInstruments {
    MetricSlot<Counter> questions;
    /// answers_total, one slot per DegradationLevel.
    std::array<MetricSlot<Counter>,
               static_cast<size_t>(DegradationLevel::kUnanswered) + 1>
        answers;
    /// phase_latency_ms for analysis, retrieval, extraction.
    std::array<MetricSlot<Histogram>, 3> phase_latency;
    MetricSlot<Counter> sentences_cached;

    void Reset();
  };

  const ontology::Ontology* onto_;
  AliQAnConfig config_;
  Preprocessor preprocessor_;
  const ir::DocumentStore* docs_ = nullptr;
  Deadline* deadline_ = nullptr;
  MetricRegistry* metrics_ = nullptr;
  mutable AskInstruments ask_metrics_;
  /// Owns the shared TermDictionary; declared before the indexes that
  /// borrow its pointer so destruction order stays safe.
  text::AnalyzedCorpus corpus_;
  ir::PassageIndex passage_index_;
  ir::InvertedIndex doc_index_;
  PhaseTimings timings_;
  /// Documents of docs_ already indexed — the IngestNewDocuments cursor.
  size_t indexed_docs_ = 0;
};

}  // namespace qa
}  // namespace dwqa

#endif  // DWQA_QA_ALIQAN_H_
