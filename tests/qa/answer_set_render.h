// Full-fidelity text rendering of an AnswerSet, shared by the golden
// suites: any behavioural drift in analysis, retrieval or extraction must
// show up as a string diff.

#ifndef DWQA_TESTS_QA_ANSWER_SET_RENDER_H_
#define DWQA_TESTS_QA_ANSWER_SET_RENDER_H_

#include <sstream>
#include <string>

#include "qa/answer.h"

namespace dwqa {
namespace qa {

/// Every AnswerSet field except the candidates' passage_text (the
/// equivalence suites compare passages through the `P|` lines).
inline std::string Serialize(const AnswerSet& set) {
  std::ostringstream out;
  out.precision(17);
  out << "type=" << static_cast<int>(set.analysis.answer_type)
      << " degradation=" << static_cast<int>(set.degradation)
      << " reason=" << set.unanswered_reason
      << " sentences=" << set.sentences_analyzed << "\n";
  for (const std::string& p : set.passages) out << "P|" << p << "\n";
  for (const AnswerCandidate& a : set.answers) {
    out << "A|" << a.answer_text << "|" << static_cast<int>(a.type) << "|"
        << a.score << "|" << static_cast<int>(a.level) << "|" << a.sentence
        << "|" << a.doc << "|" << a.url << "|" << a.has_value << "|"
        << a.value << "|" << a.unit << "|"
        << (a.date.has_value() ? a.date->ToIsoString() : "-") << "|"
        << a.date_complete << "|" << a.location << "\n";
  }
  return out.str();
}

}  // namespace qa
}  // namespace dwqa

#endif  // DWQA_TESTS_QA_ANSWER_SET_RENDER_H_
