#ifndef DWQA_QA_DEGRADATION_H_
#define DWQA_QA_DEGRADATION_H_

#include <string>
#include <vector>

namespace dwqa {

namespace ir {
struct Passage;
}  // namespace ir

namespace text {
class AnalyzedCorpus;
}  // namespace text

namespace qa {

struct AnswerCandidate;
struct QuestionAnalysis;

/// \brief How far down the answer ladder AliQAn had to climb for an answer.
///
/// The paper's Step 5 would rather feed the warehouse a lower-confidence
/// row (the URL is stored precisely so "the user can select the more useful
/// data", §4.2) than feed nothing; mediator systems over heterogeneous
/// sources (OntMed) call this graceful degradation. Levels are ordered:
/// a higher value is a worse answer.
enum class DegradationLevel {
  /// Full syntactic-pattern extraction (Module 3 as published).
  kFull = 0,
  /// Pattern-relaxed extraction: bare mentions without the strict lexical
  /// shape (a number with no unit, a proper noun with no semantic
  /// preference). Low confidence by construction.
  kRelaxedPattern,
  /// No extraction succeeded; the best retrieved passage is returned as an
  /// IR-style answer (a pointer, not a value — never feedable to a
  /// measure).
  kIrOnly,
  /// Even retrieval produced nothing; the AnswerSet records why.
  kUnanswered,
};

/// "Full", "RelaxedPattern", "IrOnly", "Unanswered" — stable names for
/// reports, CSV columns and tests.
const char* DegradationLevelName(DegradationLevel level);

/// All levels in order, for iteration in reports.
const std::vector<DegradationLevel>& AllDegradationLevels();

/// Score of a rung-2 (relaxed) candidate: kept deliberately below any
/// full-pattern score, so a confidence floor can cut the ladder.
inline constexpr double kRelaxedScore = 0.1;
/// Score of the rung-3 (IR-only) passage answer.
inline constexpr double kIrOnlyScore = 0.05;

/// \brief Tuning of the answer ladder. Both rungs default OFF so the
/// published extraction behaviour (and every golden test built on it) is
/// untouched unless a caller opts in.
struct DegradationConfig {
  /// Rung 2: pattern-relaxed extraction when full extraction is empty.
  bool enable_relaxed = false;
  /// Rung 3: IR-only best-passage answer when even rung 2 is empty.
  bool enable_ir_only = false;

  bool enabled() const { return enable_relaxed || enable_ir_only; }
};

/// Rung 2: extracts bare mentions (numbers for numerical/temporal
/// questions, proper nouns otherwise) from the retrieved passages without
/// the strict answer patterns. Candidates carry kRelaxedScore and
/// DegradationLevel::kRelaxedPattern.
///
/// The rung pattern-matches over the cached indexation-time analyses of
/// each passage's [first_sentence, last_sentence] range in `corpus`; a
/// passage whose document `corpus` lacks yields no candidates. Like the
/// full extractor's, its candidates refer to their passage (an index into
/// `passages`) and sentence; AnswerExtractor::AttachSources fills in their
/// source strings.
std::vector<AnswerCandidate> RelaxedExtract(
    const QuestionAnalysis& q, const std::vector<ir::Passage>& passages,
    const text::AnalyzedCorpus& corpus, size_t max_answers);

/// Rung 3: wraps the best retrieved passage as a valueless answer carrying
/// kIrOnlyScore and DegradationLevel::kIrOnly. Empty when there
/// are no passages. The answer refers to its passage by index and to no
/// sentence.
std::vector<AnswerCandidate> IrOnlyAnswers(
    const std::vector<ir::Passage>& passages);

}  // namespace qa
}  // namespace dwqa

#endif  // DWQA_QA_DEGRADATION_H_
