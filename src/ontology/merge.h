#ifndef DWQA_ONTOLOGY_MERGE_H_
#define DWQA_ONTOLOGY_MERGE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "ontology/ontology.h"

namespace dwqa {
namespace ontology {

/// How one domain concept was placed into the upper ontology.
enum class MergeDecision {
  kExactMatch,    ///< lemma found in the upper ontology ("City" → city).
  kPartialMatch,  ///< high string similarity → linked as synonym.
  kHeadHyponym,   ///< head word found → added as its hyponym
                  ///< ("Last Minute Sales" under "sale").
  kNewTree,       ///< nothing similar → new ontological tree (paper §3.3).
  kNewInstance,   ///< a domain instance attached under its class's image.
};

const char* MergeDecisionName(MergeDecision d);

struct MergeRecord {
  std::string domain_concept;
  MergeDecision decision = MergeDecision::kNewTree;
  /// Name of the upper-ontology anchor concept ("" for kNewTree).
  std::string target;
  bool is_instance = false;
};

struct MergeReport {
  std::vector<MergeRecord> records;
  size_t exact = 0;
  size_t partial = 0;
  size_t head = 0;
  size_t new_tree = 0;
  size_t new_instances = 0;
  size_t instances_merged = 0;
  size_t synonyms_added = 0;
};

struct MergeOptions {
  /// Similarity (string_util::StringSimilarity on lemmas) at or above which
  /// a partial match links domain concept and upper concept as synonyms.
  double partial_threshold = 0.85;
  bool enable_partial = true;
  /// Enable the head-word fallback ("Last Minute Sales" → hyponym of
  /// "sale"). Disabling it is the ablation of bench_micro_ontology.
  bool enable_head = true;
};

/// \brief Step 3 of the paper's approach: merge the (enriched) domain
/// ontology into the upper ontology of the QA system.
///
/// Follows the matching algorithm the paper adopts from PROMPT [5] and
/// Chimaera [12]:
///   1. look the domain concept's lemma up in the upper ontology — on a hit,
///      domain instances are re-attached under the found concept, and any
///      domain instance whose alias already names an upper instance enriches
///      that instance with new synonyms ("Kennedy International Airport"
///      gains the alias "JFK");
///   2. otherwise look for a *similar* concept (partial string match) and
///      link as synonym;
///   3. otherwise look the head word up ("Sale" for "Last Minute Sales") and
///      add the domain concept as a new hyponym;
///   4. otherwise add the concept with no hypernym — a new ontological tree.
class OntologyMerger {
 public:
  /// Merges `domain` into `upper` (modified in place); returns the decision
  /// log. Relations among domain concepts (partOf, hasProperty, associated)
  /// are carried over between the images of their endpoints. Merging an
  /// ontology into itself is InvalidArgument.
  static Result<MergeReport> Merge(Ontology* upper, const Ontology& domain,
                                   const MergeOptions& options = {});

  /// Head word of a multiword concept name: the last token ("Sales" in
  /// "Last Minute Sales"), singularized ("sale").
  static std::string HeadWord(const std::string& name);
};

}  // namespace ontology
}  // namespace dwqa

#endif  // DWQA_ONTOLOGY_MERGE_H_
