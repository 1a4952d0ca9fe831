#include "text/analyzed_corpus.h"

#include <utility>

#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace dwqa {
namespace text {

void CorpusAnalyzer::AnalyzeSentence(std::string sentence,
                                     AnalyzedDocument* doc) const {
  AnalyzedSentence out;
  out.text = std::move(sentence);
  out.tokens = Tokenizer::Tokenize(out.text);
  tagger_.Tag(&out.tokens);
  out.dates.begin = static_cast<uint32_t>(doc->dates.size());
  EntityRecognizer::AppendDateSpans(out.tokens, &doc->dates);
  out.dates.end = static_cast<uint32_t>(doc->dates.size());
  out.temperatures.begin = static_cast<uint32_t>(doc->temperatures.size());
  EntityRecognizer::AppendTemperatureSpans(out.tokens, &doc->temperatures);
  out.temperatures.end = static_cast<uint32_t>(doc->temperatures.size());
  out.proper_nouns.begin = static_cast<uint32_t>(doc->proper_nouns.size());
  EntityRecognizer::AppendProperNounSpans(out.tokens, &doc->proper_nouns);
  out.proper_nouns.end = static_cast<uint32_t>(doc->proper_nouns.size());
  out.token_ids.reserve(out.tokens.size());
  out.lemma_ids.reserve(out.tokens.size());
  for (const Token& t : out.tokens) {
    out.token_ids.push_back(Intern(t.lower));
    out.lemma_ids.push_back(Intern(t.lemma));
  }
  doc->token_count += out.tokens.size();
  doc->sentences.push_back(std::move(out));
}

AnalyzedDocument CorpusAnalyzer::AnalyzeDocument(std::string plain) const {
  AnalyzedDocument out;
  out.plain = std::move(plain);
  std::vector<std::string> sentences = SentenceSplitter::Split(out.plain);
  out.sentences.reserve(sentences.size());
  for (std::string& s : sentences) AnalyzeSentence(std::move(s), &out);
  out.dates.shrink_to_fit();
  out.temperatures.shrink_to_fit();
  out.proper_nouns.shrink_to_fit();
  return out;
}

const AnalyzedDocument& AnalyzedCorpus::Add(DocKey doc, std::string plain) {
  CorpusAnalyzer analyzer(dict_.get());
  AnalyzedDocument analyzed = analyzer.AnalyzeDocument(std::move(plain));
  if (auto it = docs_.find(doc); it != docs_.end()) {
    sentence_count_ -= it->second.sentences.size();
  }
  sentence_count_ += analyzed.sentences.size();
  auto [it, inserted] = docs_.insert_or_assign(doc, std::move(analyzed));
  (void)inserted;
  return it->second;
}

void AnalyzedCorpus::AddBatch(const std::vector<DocKey>& keys,
                              std::vector<std::string> plains,
                              ThreadPool* pool) {
  const size_t n = keys.size();
  ShardedTermInterner shared;
  std::vector<AnalyzedDocument> analyzed(n);
  pool->ParallelFor(n, [&](size_t i) {
    CorpusAnalyzer analyzer(&shared);
    analyzed[i] = analyzer.AnalyzeDocument(std::move(plains[i]));
  });

  // Serial merge: walk documents in submission order and remap each
  // provisional id into the owned dictionary the first time it appears.
  // Because the walk visits ids in the same order AnalyzeSentence interns
  // them (token lowercase form, then lemma, per token, per sentence), the
  // dictionary assigns exactly the ids a serial build would have.
  std::vector<TermId> remap(shared.IdBound(), kInvalidTermId);
  auto map_id = [&](TermId provisional) {
    TermId& final_id = remap[provisional];
    if (final_id == kInvalidTermId) {
      final_id = dict_->Intern(shared.Term(provisional));
    }
    return final_id;
  };
  for (size_t i = 0; i < n; ++i) {
    AnalyzedDocument& doc = analyzed[i];
    for (AnalyzedSentence& sentence : doc.sentences) {
      for (size_t t = 0; t < sentence.token_ids.size(); ++t) {
        sentence.token_ids[t] = map_id(sentence.token_ids[t]);
        sentence.lemma_ids[t] = map_id(sentence.lemma_ids[t]);
      }
    }
    if (auto it = docs_.find(keys[i]); it != docs_.end()) {
      sentence_count_ -= it->second.sentences.size();
    }
    sentence_count_ += doc.sentences.size();
    docs_.insert_or_assign(keys[i], std::move(doc));
  }
}

const AnalyzedDocument* AnalyzedCorpus::Find(DocKey doc) const {
  auto it = docs_.find(doc);
  return it == docs_.end() ? nullptr : &it->second;
}

SentenceView AnalyzedCorpus::View(DocKey doc, size_t first,
                                  size_t last) const {
  const AnalyzedDocument* analysis = Find(doc);
  if (analysis == nullptr || first > last ||
      first >= analysis->sentences.size()) {
    return SentenceView();
  }
  const size_t count = analysis->sentences.size();
  const size_t end = last < count ? last + 1 : count;
  return SentenceView(analysis, first, end - first);
}

void AnalyzedCorpus::Clear() {
  docs_.clear();
  sentence_count_ = 0;
  *dict_ = TermDictionary();
}

}  // namespace text
}  // namespace dwqa
