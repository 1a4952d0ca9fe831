#include "ir/inverted_index.h"

#include "common/metric_names.h"
#include "common/string_util.h"
#include "ir/term_pipeline.h"

namespace dwqa {
namespace ir {

namespace {

/// Term-frequency extraction shared by the add paths: the tf map plus the
/// document length (kept terms, duplicates included).
std::pair<std::unordered_map<TermId, uint32_t>, size_t> AnalyzedTf(
    const text::AnalyzedDocument& analysis) {
  std::unordered_map<TermId, uint32_t> tf;
  size_t doc_len = 0;
  for (const text::AnalyzedSentence& s : analysis.sentences) {
    for (size_t i = 0; i < s.tokens.size(); ++i) {
      if (!IsDocumentTerm(s.tokens[i])) continue;
      ++tf[s.token_ids[i]];
      ++doc_len;
    }
  }
  return {std::move(tf), doc_len};
}

}  // namespace

void InvertedIndex::AddDocument(DocId doc_id, const std::string& text) {
  std::unordered_map<TermId, uint32_t> tf;
  size_t doc_len = 0;
  for (const std::string& term : DocumentTerms(text)) {
    ++tf[dict_->Intern(term)];
    ++doc_len;
  }
  core_->Add(doc_id, tf, doc_len);
}

void InvertedIndex::AddAnalyzed(DocId doc_id,
                                const text::AnalyzedDocument& analysis) {
  auto [tf, doc_len] = AnalyzedTf(analysis);
  core_->Add(doc_id, tf, doc_len);
}

void InvertedIndex::AddAnalyzedBatch(
    const std::vector<std::pair<DocId, const text::AnalyzedDocument*>>& docs,
    ThreadPool* pool) {
  core_->AddBatch(docs.size(), pool, [&docs](DocSegment::Builder* shard,
                                             size_t i) {
    auto [tf, doc_len] = AnalyzedTf(*docs[i].second);
    shard->Add(docs[i].first, tf, doc_len);
  });
}

size_t InvertedIndex::DocFreq(const std::string& term) const {
  TermId id = dict_->Find(ToLower(term));
  if (id == kInvalidTermId) return 0;
  return core_->DocFreq(id);
}

void InvertedIndex::set_metrics(MetricRegistry* metrics) {
  core_->set_metrics(metrics);
  if (metrics == nullptr) {
    lookup_counter_ = nullptr;
    lookup_latency_ = nullptr;
    return;
  }
  lookup_counter_ = metrics->GetCounter(
      kMetricIrDocLookups, {}, "Document-level index searches performed");
  lookup_latency_ = metrics->GetHistogram(
      kMetricIrDocLookupLatency, {}, MetricRegistry::LatencyBucketsMs(),
      "Latency of document-level index searches");
}

std::vector<DocHit> InvertedIndex::Search(const std::string& query,
                                          size_t k) const {
  ScopedLatencyTimer timer(lookup_latency_);
  if (lookup_counter_ != nullptr) lookup_counter_->Increment();
  return core_->SearchTopK(ResolveDocumentQuery(query, *dict_), k);
}

}  // namespace ir
}  // namespace dwqa
