#include "ir/passage_index.h"

#include <set>

#include "common/metric_names.h"
#include "common/string_util.h"
#include "ir/term_pipeline.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace dwqa {
namespace ir {

namespace {

/// Per-sentence distinct-term extraction from a cached analysis (the gate
/// and the first-occurrence dedup of the raw AddDocument path, minus the
/// tokenization it no longer needs).
std::vector<std::vector<TermId>> AnalyzedSentenceTerms(
    const text::AnalyzedDocument& analysis) {
  std::vector<std::vector<TermId>> sentence_terms(analysis.sentences.size());
  for (size_t s = 0; s < analysis.sentences.size(); ++s) {
    const text::AnalyzedSentence& sentence = analysis.sentences[s];
    std::set<TermId> seen;
    for (size_t i = 0; i < sentence.tokens.size(); ++i) {
      if (!IsPassageTerm(sentence.tokens[i])) continue;
      if (seen.insert(sentence.token_ids[i]).second) {
        sentence_terms[s].push_back(sentence.token_ids[i]);
      }
    }
  }
  return sentence_terms;
}

std::vector<std::string> AnalyzedSentenceTexts(
    const text::AnalyzedDocument& analysis) {
  std::vector<std::string> sents;
  sents.reserve(analysis.sentences.size());
  for (const text::AnalyzedSentence& sentence : analysis.sentences) {
    sents.push_back(sentence.text);
  }
  return sents;
}

}  // namespace

void PassageIndex::AddDocument(DocId doc_id, const std::string& text) {
  std::vector<std::string> sents = text::SentenceSplitter::Split(text);
  std::vector<std::vector<TermId>> sentence_terms(sents.size());
  for (size_t s = 0; s < sents.size(); ++s) {
    std::set<TermId> seen;
    for (const text::Token& t : text::Tokenizer::Tokenize(sents[s])) {
      if (!IsPassageTerm(t)) continue;
      TermId id = dict_->Intern(t.lower);
      if (seen.insert(id).second) sentence_terms[s].push_back(id);
    }
  }
  core_->SetSentences(doc_id, std::move(sents));
  core_->Add(doc_id, sentence_terms);
}

void PassageIndex::AddAnalyzed(DocId doc_id,
                               const text::AnalyzedDocument& analysis) {
  core_->SetSentences(doc_id, AnalyzedSentenceTexts(analysis));
  core_->Add(doc_id, AnalyzedSentenceTerms(analysis));
}

void PassageIndex::AddAnalyzedBatch(
    const std::vector<std::pair<DocId, const text::AnalyzedDocument*>>& docs,
    ThreadPool* pool) {
  for (const auto& [doc_id, analysis] : docs) {
    core_->SetSentences(doc_id, AnalyzedSentenceTexts(*analysis));
  }
  core_->AddBatch(docs.size(), pool, [&docs](PassageSegment::Builder* shard,
                                             size_t i) {
    shard->Add(docs[i].first, AnalyzedSentenceTerms(*docs[i].second));
  });
}

void PassageIndex::set_metrics(MetricRegistry* metrics) {
  core_->set_metrics(metrics);
  if (metrics == nullptr) {
    lookup_counter_ = nullptr;
    lookup_latency_ = nullptr;
    return;
  }
  lookup_counter_ = metrics->GetCounter(
      kMetricIrPassageLookups, {}, "IR-n passage index searches performed");
  lookup_latency_ = metrics->GetHistogram(
      kMetricIrPassageLookupLatency, {}, MetricRegistry::LatencyBucketsMs(),
      "Latency of IR-n passage index searches");
}

std::vector<Passage> PassageIndex::Search(const std::string& query,
                                          size_t k) const {
  ScopedLatencyTimer timer(lookup_latency_);
  if (lookup_counter_ != nullptr) lookup_counter_->Increment();
  return core_->SearchTopK(ResolvePassageQuery(query, *dict_), k);
}

}  // namespace ir
}  // namespace dwqa
