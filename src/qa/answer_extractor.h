#ifndef DWQA_QA_ANSWER_EXTRACTOR_H_
#define DWQA_QA_ANSWER_EXTRACTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "ir/document.h"
#include "ir/passage_index.h"
#include "ontology/ontology.h"
#include "qa/answer.h"
#include "qa/question.h"
#include "text/analyzed_corpus.h"

namespace dwqa {
namespace qa {

/// \brief The question-level work of extraction, done once per ask by
/// AnswerExtractor::Prepare and shared by every passage of the ask.
///
/// Borrows the QuestionAnalysis it was prepared from, which must outlive
/// it; its lemma ids are only meaningful against the dictionary it was
/// prepared with.
struct PreparedQuestion {
  /// One main SB's content lemmas, as slots into `sb_lemma_ids`.
  struct Sb {
    /// All content tokens (DT/IN/OF/"," dropped), known to the dictionary
    /// or not: the coverage denominator.
    size_t total = 0;
    /// Slot of each known content lemma, one entry per token occurrence
    /// (an SB lemma absent from the whole dictionary can never hit).
    std::vector<uint32_t> slots;
  };

  const QuestionAnalysis* question = nullptr;
  std::vector<Sb> sbs;
  /// The distinct SB lemma ids, sorted; a lemma's slot is its position.
  std::vector<TermId> sb_lemma_ids;

  /// Step-4 plausible temperature interval, in Celsius.
  double min_celsius = 0.0;
  double max_celsius = 0.0;
  /// The "city" concept, when the ontology has one.
  std::optional<ontology::ConceptId> city;
  /// The answer type's concept. `type_open` is true when the type names no
  /// concept (every mention satisfies it); otherwise an empty
  /// `type_concept` means the ontology lacks it (no mention does).
  bool type_open = false;
  std::optional<ontology::ConceptId> type_concept;

  /// Lowercased question terms a candidate may not merely repeat.
  std::vector<std::string> sbs_lower;
  std::string location_lower;
  std::string resolved_city_lower;
};

/// \brief AliQAn Module 3: extraction of the answer from retrieved passages
/// using syntactic-semantic answer patterns (paper §4.1).
///
/// Per answer type the module looks for the lexical shape the taxonomy
/// prescribes (a temperature is "a number lexical type followed by the
/// unit-measure (ºC or F)"; a place answer is a proper noun with "a semantic
/// preference to the hyponyms" of the type concept) and scores candidates
/// by (a) main-SB term coverage in the candidate's sentence and passage,
/// (b) satisfaction of the type constraints, (c) agreement with the
/// question's date constraint, and (d) the Step-4 axioms attached to the
/// ontology (plausible temperature intervals, ºC/ºF consistency).
///
/// The linguistic analysis of the passage (tokenize/tag/lemmatize, date,
/// temperature and proper-noun recognition) belongs to the off-line
/// indexation phase: the only input is the AnalyzedCorpus built there,
/// never raw passage text. The work that depends only on the question (SB
/// lemmas, axioms, concept ids) is done once per ask by Prepare.
/// ExtractAnalyzed then only pattern-matches over the cached
/// AnalyzedSentences and their stored mentions: SB coverage is a bit mask
/// built from each sentence's `lemma_ids`, and each sentence's city is
/// resolved at most once per passage. Candidates refer to their passage and
/// sentence by index; AttachSources copies the source strings for the few
/// answers Rank keeps.
class AnswerExtractor {
 public:
  explicit AnswerExtractor(const ontology::Ontology* onto) : onto_(onto) {}

  /// Resolves the question-level inputs of extraction against `dict` (the
  /// dictionary of the sentences it will be matched with).
  PreparedQuestion Prepare(const QuestionAnalysis& question,
                           const TermDictionary& dict) const;

  /// Extracts and scores the candidates of one passage from its cached
  /// sentence analyses and appends them to `out`. `sentences` is the
  /// passage's consecutive sentence range (AnalyzedCorpus::View of the
  /// corpus whose dictionary `question` was prepared against), `passage` its
  /// index in the ask's retrieved list and `doc` its document. The
  /// candidates' source strings are left empty (see AttachSources).
  void ExtractAnalyzed(const PreparedQuestion& question,
                       const text::SentenceView& sentences, size_t passage,
                       ir::DocId doc, std::vector<AnswerCandidate>* out) const;

  /// Merges, deduplicates (by lowercased answer text and date, keeping the
  /// first-seen position and the best score) and ranks candidate lists
  /// from several passages, in time linear in the candidates plus the
  /// sort. Only the answers kept are moved.
  static std::vector<AnswerCandidate> Rank(
      std::vector<AnswerCandidate> candidates, size_t max_answers);

  /// Fills each answer's `passage_text`, `sentence` and `url` from its
  /// source: `passages` is the retrieved list its `passage_index` points
  /// into, `corpus` holds the sentence analyses and `docs` the URLs (an
  /// answer whose document `docs` lacks, or a null `docs`, gets no URL).
  static void AttachSources(const std::vector<ir::Passage>& passages,
                            const text::AnalyzedCorpus& corpus,
                            const ir::DocumentStore* docs,
                            std::vector<AnswerCandidate>* answers);

 private:
  /// True if some sense of `mention` is under the question's type concept.
  bool SatisfiesTypeConcept(const PreparedQuestion& pq,
                            const std::string& mention) const;

  const ontology::Ontology* onto_;
};

}  // namespace qa
}  // namespace dwqa

#endif  // DWQA_QA_ANSWER_EXTRACTOR_H_
