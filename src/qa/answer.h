#ifndef DWQA_QA_ANSWER_H_
#define DWQA_QA_ANSWER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/date.h"
#include "ir/document.h"
#include "qa/degradation.h"
#include "qa/question.h"
#include "qa/taxonomy.h"

namespace dwqa {
namespace qa {

/// \brief One candidate answer extracted from a passage — the precise,
/// structured output that distinguishes QA from IR in the paper (§1,
/// difference 2): not a document but "(8ºC – Monday, January 31, 2004 –
/// Barcelona)".
struct AnswerCandidate {
  /// Display form of the answer ("8\xC2\xBA\x43", "Kuwait").
  std::string answer_text;
  AnswerType type = AnswerType::kObject;
  double score = 0.0;
  /// Ladder rung that produced this candidate (kFull = the published
  /// extraction path; see qa/degradation.h).
  DegradationLevel level = DegradationLevel::kFull;

  /// Where the answer was found: the index of its passage in the ask's
  /// retrieved list, the sentence within that passage (kNoSentence for an
  /// answer that is the whole passage) and the passage's document.
  /// Extraction and Rank carry only these; AnswerExtractor::AttachSources
  /// fills the three strings below for the answers Rank keeps.
  static constexpr uint32_t kNoSentence = UINT32_MAX;
  uint32_t passage_index = 0;
  uint32_t sentence_index = kNoSentence;
  ir::DocId doc = ir::kInvalidDoc;

  /// The sentence the answer was extracted from.
  std::string sentence;
  /// The passage handed over by the retrieval module.
  std::string passage_text;
  std::string url;

  /// \name Structured slots (filled when applicable)
  /// @{
  bool has_value = false;
  double value = 0.0;
  /// Unit of a numerical answer: "\xC2\xBA\x43", "F", "%", "EUR"...; empty
  /// when the unit could not be associated (the Figure 5 failure mode).
  std::string unit;
  std::optional<Date> date;
  bool date_complete = false;
  /// City the answer is about, resolved via ontology/context.
  std::string location;
  /// @}
};

/// \brief Final output of one AliQAn query.
struct AnswerSet {
  QuestionAnalysis analysis;
  /// Ranked candidates, best first.
  std::vector<AnswerCandidate> answers;
  /// Passages that were analyzed (for Table 1 display).
  std::vector<std::string> passages;
  size_t sentences_analyzed = 0;
  /// Worst rung the ladder had to climb for this set: kFull when the
  /// published path answered, kUnanswered when nothing did.
  DegradationLevel degradation = DegradationLevel::kFull;
  /// Why the set is empty (only meaningful at kUnanswered).
  std::string unanswered_reason;

  bool empty() const { return answers.empty(); }
  const AnswerCandidate& best() const { return answers.front(); }
};

}  // namespace qa
}  // namespace dwqa

#endif  // DWQA_QA_ANSWER_H_
