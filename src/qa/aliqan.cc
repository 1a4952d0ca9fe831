#include "qa/aliqan.h"

#include <chrono>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ir/html.h"
#include "qa/answer_extractor.h"
#include "qa/degradation.h"
#include "qa/question_analyzer.h"

namespace dwqa {
namespace qa {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Sentences per IR-n passage (the paper's footnote 6 reports eight).
constexpr size_t kPassageWindow = 8;

std::string DefaultPreprocess(const ir::Document& doc) {
  if (doc.format == ir::DocFormat::kPlainText) return doc.raw;
  return ir::Html::StripTags(doc.raw);
}

}  // namespace

AliQAn::AliQAn(const ontology::Ontology* onto, AliQAnConfig config)
    : onto_(onto),
      config_(config),
      preprocessor_(DefaultPreprocess),
      passage_index_(kPassageWindow, corpus_.mutable_dictionary(),
                     config.index_options),
      doc_index_(corpus_.mutable_dictionary(), config.index_options) {}

void AliQAn::set_preprocessor(Preprocessor preprocessor) {
  preprocessor_ = std::move(preprocessor);
}

void AliQAn::AskInstruments::Reset() {
  questions.Reset();
  for (MetricSlot<Counter>& slot : answers) slot.Reset();
  for (MetricSlot<Histogram>& slot : phase_latency) slot.Reset();
  sentences_cached.Reset();
}

void AliQAn::set_metrics(MetricRegistry* metrics) {
  metrics_ = metrics;
  ask_metrics_.Reset();
  passage_index_.set_metrics(metrics);
  doc_index_.set_metrics(metrics);
}

Status AliQAn::IndexCorpus(const ir::DocumentStore* docs) {
  if (docs == nullptr) {
    return Status::InvalidArgument("document store must not be null");
  }
  timings_.indexation_ms = 0.0;
  timings_.indexation_sentences = 0;
  if (deadline_ != nullptr) {
    DWQA_RETURN_NOT_OK(deadline_->Spend("qa.index"));
  }
  auto start = std::chrono::steady_clock::now();
  docs_ = docs;
  corpus_.Clear();
  passage_index_ =
      ir::PassageIndex(kPassageWindow, corpus_.mutable_dictionary(),
                       config_.index_options);
  doc_index_ = ir::InvertedIndex(corpus_.mutable_dictionary(),
                                 config_.index_options);
  passage_index_.set_metrics(metrics_);
  doc_index_.set_metrics(metrics_);
  // Parallel analysis needs an unlimited budget: with a finite one, the
  // point of mid-run exhaustion depends on completion order, so the
  // serial path is the only deterministic choice.
  bool parallel = config_.threads > 1 &&
                  (deadline_ == nullptr || deadline_->unlimited());
  if (config_.threads > 1 && !parallel) {
    DWQA_LOG(Info) << "qa.index: threads=" << config_.threads
                   << " ignored under a finite deadline budget;"
                   << " indexing serially";
  }
  if (parallel) {
    // Preprocessing and linguistic analysis fan out over the pool; the
    // dictionary remap, deadline charges and both AddAnalyzed index
    // builds stay serialized in document order, so every id and posting
    // is byte-identical to the serial build.
    const auto& documents = docs->documents();
    std::vector<text::AnalyzedCorpus::DocKey> keys(documents.size());
    std::vector<std::string> plains(documents.size());
    ThreadPool pool(config_.threads);
    pool.ParallelFor(documents.size(), [&](size_t i) {
      keys[i] = documents[i].id;
      plains[i] = preprocessor_(documents[i]);
    });
    corpus_.AddBatch(keys, std::move(plains), &pool);
    std::vector<std::pair<ir::DocId, const text::AnalyzedDocument*>> batch;
    batch.reserve(documents.size());
    for (const ir::Document& doc : documents) {
      const text::AnalyzedDocument* analysis = corpus_.Find(doc.id);
      if (deadline_ != nullptr) {
        DWQA_RETURN_NOT_OK(deadline_->Spend(
            "qa.index.analysis",
            static_cast<double>(analysis->sentences.size())));
      }
      batch.emplace_back(doc.id, analysis);
    }
    // Both indexes build their postings shards concurrently on the same
    // pool — one sealed segment per shard, byte-identical to the serial
    // AddAnalyzed loop (AddAnalyzedBatch's contract).
    passage_index_.AddAnalyzedBatch(batch, &pool);
    doc_index_.AddAnalyzedBatch(batch, &pool);
  } else {
    for (const ir::Document& doc : docs->documents()) {
      const text::AnalyzedDocument& analysis =
          corpus_.Add(doc.id, preprocessor_(doc));
      // The linguistic cost lives off-line: one unit per analyzed
      // sentence, charged where the work happens (Figure 3's indexation
      // phase), so the search phase only pays for pattern matching.
      if (deadline_ != nullptr) {
        DWQA_RETURN_NOT_OK(deadline_->Spend(
            "qa.index.analysis",
            static_cast<double>(analysis.sentences.size())));
      }
      passage_index_.AddAnalyzed(doc.id, analysis);
      doc_index_.AddAnalyzed(doc.id, analysis);
    }
  }
  timings_.indexation_sentences = corpus_.sentence_count();
  indexed_docs_ = docs->size();
  timings_.indexation_ms = MsSince(start);
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter(kMetricQaIndexDocuments, {},
                     "Documents indexed by IndexCorpus")
        ->Increment(static_cast<double>(docs->size()));
    metrics_
        ->GetCounter(kMetricQaIndexSentences, {},
                     "Sentences linguistically analyzed at indexation time")
        ->Increment(static_cast<double>(timings_.indexation_sentences));
    metrics_
        ->GetHistogram(kMetricQaIndexLatency, {},
                       MetricRegistry::LatencyBucketsMs(),
                       "Wall time of IndexCorpus runs")
        ->Observe(timings_.indexation_ms);
  }
  return Status::OK();
}

Result<size_t> AliQAn::IngestNewDocuments() {
  if (docs_ == nullptr) {
    return Status::Internal(
        "IndexCorpus must run before incremental ingest");
  }
  const auto& documents = docs_->documents();
  size_t added = 0;
  while (indexed_docs_ < documents.size()) {
    const ir::Document& doc = documents[indexed_docs_];
    ++indexed_docs_;
    ++added;
    const text::AnalyzedDocument& analysis =
        corpus_.Add(doc.id, preprocessor_(doc));
    passage_index_.AddAnalyzed(doc.id, analysis);
    doc_index_.AddAnalyzed(doc.id, analysis);
    timings_.indexation_sentences += analysis.sentences.size();
    // Same per-sentence charge as IndexCorpus: the linguistic work is
    // billed where it happens. The cursor has already advanced past this
    // document, so a retry after a budget refill resumes with the next.
    if (deadline_ != nullptr) {
      DWQA_RETURN_NOT_OK(deadline_->Spend(
          "qa.index.analysis",
          static_cast<double>(analysis.sentences.size())));
    }
  }
  if (metrics_ != nullptr && added > 0) {
    metrics_
        ->GetCounter(kMetricIndexIngestDocs, {},
                     "Documents made searchable via incremental ingest")
        ->Increment(static_cast<double>(added));
  }
  return added;
}

Result<QuestionAnalysis> AliQAn::AnalyzeQuestion(
    const std::string& question) const {
  QuestionAnalyzer analyzer(onto_);
  return analyzer.Analyze(question);
}

Result<std::vector<ir::Passage>> AliQAn::SelectPassages(
    const QuestionAnalysis& analysis) const {
  if (docs_ == nullptr) {
    return Status::Internal("IndexCorpus must run before the search phase");
  }
  // The retrieval query is the concatenation of the main SBs (Table 1:
  // "Main SBs passed to the IR-n passage retrieval system").
  std::string query = Join(analysis.main_sbs, " ");
  if (Trim(query).empty()) query = analysis.question;
  return passage_index_.Search(query, config_.passages_to_analyze);
}

Result<std::string> AliQAn::PlainText(ir::DocId doc) const {
  const text::AnalyzedDocument* analysis = corpus_.Find(doc);
  if (analysis == nullptr) {
    return Status::NotFound("document " + std::to_string(doc) +
                            " is not indexed");
  }
  return analysis->plain;
}

Result<AnswerSet> AliQAn::Ask(const std::string& question,
                              TraceRecorder* trace) {
  return AskWith(question, &timings_, deadline_, trace);
}

Result<AnswerSet> AliQAn::AskWith(const std::string& question,
                                  PhaseTimings* timings,
                                  Deadline* deadline,
                                  TraceRecorder* trace) const {
  PhaseTimings discard;
  if (timings == nullptr) timings = &discard;
  if (docs_ == nullptr) {
    return Status::Internal("IndexCorpus must run before the search phase");
  }
  // Per-call reset: the search-phase fields describe this call only.
  timings->analysis_ms = 0.0;
  timings->retrieval_ms = 0.0;
  timings->extraction_ms = 0.0;
  timings->sentences_analyzed = 0;
  AnswerSet result;
  Span ask_span(trace, "qa.ask");
  ask_span.Annotate("question", question);
  if (metrics_ != nullptr) {
    ask_metrics_.questions
        .Get([&] {
          return metrics_->GetCounter(kMetricQaQuestions, {},
                                      "Questions the QA engine ran");
        })
        ->Increment();
  }

  auto t0 = std::chrono::steady_clock::now();
  if (deadline != nullptr) {
    DWQA_RETURN_NOT_OK(deadline->Spend("qa.analysis"));
  }
  {
    Span span(trace, "qa.analysis");
    DWQA_ASSIGN_OR_RETURN(result.analysis, AnalyzeQuestion(question));
    span.Annotate("answer_type",
                  AnswerTypeName(result.analysis.answer_type));
  }
  timings->analysis_ms = MsSince(t0);

  // Module 2 (or the unfiltered ablation).
  auto t1 = std::chrono::steady_clock::now();
  if (deadline != nullptr) {
    DWQA_RETURN_NOT_OK(deadline->Spend("qa.retrieval"));
  }
  Span retrieval_span(trace, "ir.retrieval");
  std::vector<ir::Passage> passages;
  if (config_.use_ir_filter) {
    DWQA_ASSIGN_OR_RETURN(passages, SelectPassages(result.analysis));
  } else {
    // Every indexed document, whole. Documents appended to the store but
    // not yet ingested have no analysis and are invisible here, exactly
    // as they are to the filtered path.
    const auto& documents = docs_->documents();
    for (size_t i = 0; i < indexed_docs_; ++i) {
      const text::AnalyzedDocument* analysis =
          corpus_.Find(documents[i].id);
      ir::Passage p;
      p.doc = documents[i].id;
      p.first_sentence = 0;
      p.text = analysis->plain;
      p.last_sentence =
          analysis->sentences.empty() ? 0 : analysis->sentences.size() - 1;
      passages.push_back(std::move(p));
    }
  }
  retrieval_span.Annotate("passages", static_cast<double>(passages.size()));
  retrieval_span.End();
  timings->retrieval_ms = MsSince(t1);

  // Module 3: pattern matching over the cached indexation-time analyses.
  auto t2 = std::chrono::steady_clock::now();
  Span extraction_span(trace, "qa.extraction");
  AnswerExtractor extractor(onto_);
  const PreparedQuestion prepared =
      extractor.Prepare(result.analysis, corpus_.dictionary());
  std::vector<AnswerCandidate> candidates;
  size_t sentences = 0;
  size_t extracted = 0;  // Passages extraction reached.
  for (const ir::Passage& p : passages) {
    // One budget unit per analyzed passage. An exhausted budget does not
    // fail the question: extraction stops and the ladder answers from
    // whatever was already retrieved/extracted.
    if (deadline != nullptr &&
        !deadline->Spend("qa.extraction").ok()) {
      break;
    }
    const text::SentenceView view =
        corpus_.View(p.doc, p.first_sentence, p.last_sentence);
    sentences += view.size();
    extractor.ExtractAnalyzed(prepared, view, extracted, p.doc, &candidates);
    ++extracted;
  }
  const size_t candidate_count = candidates.size();
  result.answers =
      AnswerExtractor::Rank(std::move(candidates), config_.max_answers);
  // Only the answers Rank kept get their source strings.
  AnswerExtractor::AttachSources(passages, corpus_, docs_, &result.answers);
  extraction_span.Annotate("sentences", static_cast<double>(sentences));
  extraction_span.Annotate("candidates",
                           static_cast<double>(candidate_count));
  extraction_span.Annotate("answers",
                           static_cast<double>(result.answers.size()));
  extraction_span.End();

  // The answer ladder (qa/degradation.h): when the published extraction
  // path comes up empty, climb down rung by rung rather than answer
  // nothing. Both rungs are opt-in.
  if (result.answers.empty() && config_.degradation.enable_relaxed) {
    Span span(trace, "qa.ladder.relaxed");
    result.answers = AnswerExtractor::Rank(
        RelaxedExtract(result.analysis, passages, corpus_,
                       config_.max_answers),
        config_.max_answers);
    AnswerExtractor::AttachSources(passages, corpus_, docs_,
                                   &result.answers);
    if (!result.answers.empty()) {
      result.degradation = DegradationLevel::kRelaxedPattern;
    }
    span.Annotate("answers", static_cast<double>(result.answers.size()));
  }
  if (result.answers.empty() && config_.degradation.enable_ir_only) {
    Span span(trace, "qa.ladder.ir_only");
    result.answers = IrOnlyAnswers(passages);
    AnswerExtractor::AttachSources(passages, corpus_, docs_,
                                   &result.answers);
    if (!result.answers.empty()) {
      result.degradation = DegradationLevel::kIrOnly;
    }
    span.Annotate("answers", static_cast<double>(result.answers.size()));
  }
  // The answers hold copies of what they need, so the texts of the
  // passages extraction reached move into the set.
  result.passages.reserve(extracted);
  for (size_t i = 0; i < extracted; ++i) {
    result.passages.push_back(std::move(passages[i].text));
  }
  if (result.answers.empty()) {
    result.degradation = DegradationLevel::kUnanswered;
    result.unanswered_reason = passages.empty()
                                   ? "no passages retrieved"
                                   : "no candidates extracted from " +
                                         std::to_string(passages.size()) +
                                         " passage(s)";
  }

  result.sentences_analyzed = sentences;
  timings->extraction_ms = MsSince(t2);
  timings->sentences_analyzed = sentences;
  ask_span.Annotate("level", DegradationLevelName(result.degradation));
  if (metrics_ != nullptr) {
    ask_metrics_.answers[static_cast<size_t>(result.degradation)]
        .Get([&] {
          return metrics_->GetCounter(
              kMetricQaAnswers,
              {{"level", DegradationLevelName(result.degradation)}},
              "Answer sets produced, by degradation level");
        })
        ->Increment();
    static const char* const kPhases[] = {"analysis", "retrieval",
                                          "extraction"};
    const double phase_ms[] = {timings->analysis_ms, timings->retrieval_ms,
                               timings->extraction_ms};
    for (size_t i = 0; i < 3; ++i) {
      ask_metrics_.phase_latency[i]
          .Get([&] {
            return metrics_->GetHistogram(
                kMetricQaPhaseLatency, {{"phase", kPhases[i]}},
                MetricRegistry::LatencyBucketsMs(),
                "Latency of the three search-phase modules");
          })
          ->Observe(phase_ms[i]);
    }
    if (sentences > 0) {
      ask_metrics_.sentences_cached
          .Get([&] {
            return metrics_->GetCounter(
                kMetricQaSentencesAnalyzed, {{"source", "cached"}},
                "Sentences the extraction module consumed, by analysis "
                "source");
          })
          ->Increment(static_cast<double>(sentences));
    }
  }
  return result;
}

}  // namespace qa
}  // namespace dwqa
