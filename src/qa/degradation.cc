#include "qa/degradation.h"


#include "common/string_util.h"
#include "ir/document.h"
#include "ir/passage_index.h"
#include "qa/answer.h"
#include "qa/question.h"
#include "text/analyzed_corpus.h"
#include "text/entities.h"

namespace dwqa {
namespace qa {

using text::DateMention;
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

/// The rung-2 pattern pass over one passage's sentence analyses.
void RelaxedExtractFromSentences(
    const QuestionAnalysis& q, const ir::Passage& p, const std::string& url,
    const text::SentenceView& sentences, const DegradationConfig& config,
    const std::string& fallback_location,
    std::vector<AnswerCandidate>* out) {
  // Dates carry across sentences, like the weather-page layout the full
  // extractor models (date line, then data line).
  const DateMention* last_date = nullptr;
  for (const text::AnalyzedSentence* s : sentences) {
    const TokenSequence& toks = s->tokens;
    if (!s->dates.empty()) last_date = &s->dates.back();

    auto push = [&](AnswerCandidate c) {
      c.type = q.answer_type;
      c.level = DegradationLevel::kRelaxedPattern;
      c.score = config.relaxed_score;
      c.sentence = s->text;
      c.passage_text = p.text;
      c.doc = p.doc;
      c.url = url;
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
        for (const DateMention& d : s->dates) {
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
      for (const auto& pn : EntityRecognizer::FindProperNouns(toks)) {
        AnswerCandidate c;
        c.answer_text = pn.text;
        push(std::move(c));
      }
    }
  }
}

}  // namespace

std::vector<AnswerCandidate> RelaxedExtract(
    const QuestionAnalysis& q, const std::vector<ir::Passage>& passages,
    const ir::DocumentStore* docs, const text::AnalyzedCorpus& corpus,
    const DegradationConfig& config, size_t max_answers) {
  std::vector<AnswerCandidate> out;
  std::string fallback_location =
      q.resolved_city.empty() ? q.location : q.resolved_city;

  for (const ir::Passage& p : passages) {
    const std::string& url =
        (docs != nullptr && docs->IsValid(p.doc)) ? docs->Get(p.doc).url : "";
    RelaxedExtractFromSentences(
        q, p, url, corpus.View(p.doc, p.first_sentence, p.last_sentence),
        config, fallback_location, &out);
  }
  if (out.size() > max_answers) out.resize(max_answers);
  return out;
}

std::vector<AnswerCandidate> IrOnlyAnswers(
    const std::vector<ir::Passage>& passages, const ir::DocumentStore* docs,
    const DegradationConfig& config) {
  std::vector<AnswerCandidate> out;
  if (passages.empty()) return out;
  const ir::Passage* best = &passages.front();
  for (const ir::Passage& p : passages) {
    if (p.score > best->score) best = &p;
  }
  AnswerCandidate c;
  c.answer_text = Trim(best->text);
  c.level = DegradationLevel::kIrOnly;
  c.score = config.ir_only_score;
  c.passage_text = best->text;
  c.doc = best->doc;
  c.url = (docs != nullptr && docs->IsValid(best->doc))
              ? docs->Get(best->doc).url
              : "";
  out.push_back(std::move(c));
  return out;
}

}  // namespace qa
}  // namespace dwqa
