#include "qa/degradation.h"

#include <span>

#include "common/string_util.h"
#include "ir/document.h"
#include "ir/passage_index.h"
#include "qa/answer.h"
#include "qa/question.h"
#include "text/analyzed_corpus.h"
#include "text/entities.h"

namespace dwqa {
namespace qa {

using text::DateSpan;
using text::EntityRecognizer;
using text::TokenSequence;

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "Full";
    case DegradationLevel::kRelaxedPattern:
      return "RelaxedPattern";
    case DegradationLevel::kIrOnly:
      return "IrOnly";
    case DegradationLevel::kUnanswered:
      return "Unanswered";
  }
  return "Unknown";
}

const std::vector<DegradationLevel>& AllDegradationLevels() {
  static const std::vector<DegradationLevel> kAll = {
      DegradationLevel::kFull, DegradationLevel::kRelaxedPattern,
      DegradationLevel::kIrOnly, DegradationLevel::kUnanswered};
  return kAll;
}

namespace {

bool WantsNumber(AnswerType type) {
  switch (type) {
    case AnswerType::kNumericalMeasure:
    case AnswerType::kNumericalEconomic:
    case AnswerType::kNumericalPercentage:
    case AnswerType::kNumericalAge:
    case AnswerType::kNumericalPeriod:
    case AnswerType::kNumericalQuantity:
    case AnswerType::kTemporalYear:
      return true;
    default:
      return false;
  }
}

}  // namespace

namespace {

/// The rung-2 pattern pass over one passage's sentence analyses; `passage`
/// is the passage's index in the retrieved list.
void RelaxedExtractFromSentences(const QuestionAnalysis& q, size_t passage,
                                 ir::DocId doc,
                                 const text::SentenceView& sentences,
                                 const std::string& fallback_location,
                                 std::vector<AnswerCandidate>* out) {
  // Dates carry across sentences, like the weather-page layout the full
  // extractor models (date line, then data line).
  const DateSpan* last_date = nullptr;
  for (size_t si = 0; si < sentences.size(); ++si) {
    const text::AnalyzedSentence& s = sentences[si];
    const TokenSequence& toks = s.tokens;
    const std::span<const DateSpan> dates = sentences.dates(si);
    if (!dates.empty()) last_date = &dates.back();

    auto push = [&](AnswerCandidate c) {
      c.type = q.answer_type;
      c.level = DegradationLevel::kRelaxedPattern;
      c.score = kRelaxedScore;
      c.passage_index = static_cast<uint32_t>(passage);
      c.sentence_index = static_cast<uint32_t>(si);
      c.doc = doc;
      if (c.location.empty()) c.location = fallback_location;
      if (!c.date.has_value() && last_date != nullptr) {
        c.date = last_date->date;
        c.date_complete = last_date->IsComplete();
      }
      out->push_back(std::move(c));
    };

    if (WantsNumber(q.answer_type)) {
      // Any bare cardinal, unit or no unit — the Figure-5 stripped-table
      // case where the strict "number + scale" pattern cannot fire.
      // Cardinals inside a recognized date ("31", "2004") stay dates.
      for (const auto& m : EntityRecognizer::FindNumbers(toks)) {
        bool inside_date = false;
        for (const DateSpan& d : dates) {
          if (m.begin >= d.begin && m.begin < d.end) inside_date = true;
        }
        if (inside_date) continue;
        AnswerCandidate c;
        c.answer_text = m.text;
        c.has_value = true;
        c.value = m.value;
        push(std::move(c));
      }
    } else {
      // Any proper noun, no semantic preference, no question-term filter.
      for (const text::MentionSpan& pn : sentences.proper_nouns(si)) {
        AnswerCandidate c;
        EntityRecognizer::ProperNounText(toks, pn, /*lowercase=*/false,
                                         &c.answer_text);
        push(std::move(c));
      }
    }
  }
}

}  // namespace

std::vector<AnswerCandidate> RelaxedExtract(
    const QuestionAnalysis& q, const std::vector<ir::Passage>& passages,
    const text::AnalyzedCorpus& corpus, size_t max_answers) {
  std::vector<AnswerCandidate> out;
  std::string fallback_location =
      q.resolved_city.empty() ? q.location : q.resolved_city;

  for (size_t i = 0; i < passages.size(); ++i) {
    const ir::Passage& p = passages[i];
    RelaxedExtractFromSentences(
        q, i, p.doc, corpus.View(p.doc, p.first_sentence, p.last_sentence),
        fallback_location, &out);
  }
  if (out.size() > max_answers) out.resize(max_answers);
  return out;
}

std::vector<AnswerCandidate> IrOnlyAnswers(
    const std::vector<ir::Passage>& passages) {
  std::vector<AnswerCandidate> out;
  if (passages.empty()) return out;
  size_t best = 0;
  for (size_t i = 0; i < passages.size(); ++i) {
    if (passages[i].score > passages[best].score) best = i;
  }
  AnswerCandidate c;
  c.answer_text = Trim(passages[best].text);
  c.level = DegradationLevel::kIrOnly;
  c.score = kIrOnlyScore;
  c.passage_index = static_cast<uint32_t>(best);
  c.doc = passages[best].doc;
  out.push_back(std::move(c));
  return out;
}

}  // namespace qa
}  // namespace dwqa
