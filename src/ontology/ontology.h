#ifndef DWQA_ONTOLOGY_ONTOLOGY_H_
#define DWQA_ONTOLOGY_ONTOLOGY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dwqa {
namespace ontology {

/// Identifier of a concept within one Ontology.
using ConceptId = int32_t;
constexpr ConceptId kInvalidConcept = -1;

/// \brief Directed semantic relations. Every kind has an inverse that the
/// store maintains automatically (AddRelation inserts both directions).
enum class RelationKind {
  kHypernym,     ///< from IS-A to ("airport" → "facility").
  kHyponym,      ///< inverse of kHypernym.
  kSynonymOf,    ///< symmetric near-synonymy across synsets.
  kPartOf,       ///< meronymy ("El Prat" → "Barcelona").
  kHasPart,      ///< inverse holonymy.
  kAntonym,      ///< symmetric.
  kInstanceOf,   ///< instance → class ("Barcelona" → "city").
  kHasInstance,  ///< inverse.
  kHasProperty,  ///< class → property concept ("sale" → "price").
  kPropertyOf,   ///< inverse.
  kAssociated,   ///< symmetric catch-all for UML associations.
};

/// Inverse of a relation kind (symmetric kinds are their own inverse).
RelationKind InverseRelation(RelationKind kind);

/// Human-readable name ("hypernym", ...).
const char* RelationKindName(RelationKind kind);

/// \brief Free-form axiom attached to a concept: the Step-4 "axiomatic
/// information" (e.g. temperature: unit = ºC|F, min = -90, max = 60,
/// conversion formula).
struct Axiom {
  std::string key;
  std::string value;
};

/// \brief A node of the ontology: a class concept or an instance.
struct Concept {
  ConceptId id = kInvalidConcept;
  /// Display name, e.g. "Last Minute Sales".
  std::string name;
  /// Lowercase lookup key, e.g. "last minute sales".
  std::string lemma;
  /// Short definition used by the Lesk disambiguator.
  std::string gloss;
  /// True for individuals ("Barcelona"), false for classes ("city").
  bool is_instance = false;
  /// Provenance: "wordnet", "uml", "dw", "merge".
  std::string source;
  std::vector<Axiom> axioms;
  /// Alternative lemmas ("jfk" for "Kennedy International Airport").
  std::vector<std::string> aliases;
};

/// \brief In-memory ontology store with lemma index and typed relations.
///
/// Used for three roles in the reproduction: the WordNet-like upper ontology
/// of the QA system, the domain ontology derived from the DW's UML model
/// (Step 1), and the merged ontology (Step 3).
class Ontology {
 public:
  Ontology() = default;

  /// Adds a class concept. A lemma may map to several class concepts
  /// (WordNet-style senses); earlier insertions rank as more salient senses.
  Result<ConceptId> AddConcept(std::string_view name, std::string_view gloss,
                               std::string_view source);

  /// Adds an instance concept. Instances may share a lemma with a class and
  /// with other instances (that ambiguity is what WSD resolves).
  Result<ConceptId> AddInstance(std::string_view name, std::string_view gloss,
                                std::string_view source);

  /// Adds `relation` and its inverse. Fails on unknown ids or self-loops.
  Status AddRelation(ConceptId from, RelationKind kind, ConceptId to);

  /// Registers an extra lookup lemma for `id` ("jfk").
  Status AddAlias(ConceptId id, std::string_view alias);

  /// Attaches or overwrites an axiom on `id`.
  Status SetAxiom(ConceptId id, std::string_view key, std::string_view value);

  /// Axiom value, or NotFound.
  Result<std::string> GetAxiom(ConceptId id, std::string_view key) const;

  const Concept& GetConcept(ConceptId id) const { return concepts_[size_t(id)]; }
  bool IsValidId(ConceptId id) const {
    return id >= 0 && static_cast<size_t>(id) < concepts_.size();
  }

  /// All concepts whose lemma or alias equals `lemma` (case-insensitive).
  std::vector<ConceptId> Find(std::string_view lemma) const;

  /// The most salient class concept for `lemma` (WordNet first-sense
  /// heuristic: lowest id wins); instances are ignored. NotFound if none.
  Result<ConceptId> FindClass(std::string_view lemma) const;

  /// Neighbors of `id` under `kind` (empty for an invalid id). The
  /// reference is valid until this ontology next gains a concept or a
  /// relation.
  const std::vector<ConceptId>& Related(ConceptId id,
                                        RelationKind kind) const;

  /// True if `a` reaches `b` via kInstanceOf/kHypernym edges (reflexive).
  bool IsA(ConceptId a, ConceptId b) const;

  /// Hypernym chain from `id` upward (id first). Follows the first hypernym
  /// at each step; instances start through kInstanceOf.
  std::vector<ConceptId> HypernymPath(ConceptId id) const;

  /// All hyponyms + instances below `id`, breadth-first, up to `limit`.
  std::vector<ConceptId> SubtreeOf(ConceptId id, size_t limit = 10000) const;

  size_t concept_count() const { return concepts_.size(); }
  size_t relation_count() const { return relation_count_; }

  /// Ids of all concepts (0..n-1); convenience for iteration.
  std::vector<ConceptId> AllConcepts() const;

 private:
  Result<ConceptId> AddNode(std::string_view name, std::string_view gloss,
                            std::string_view source, bool is_instance);

  std::vector<Concept> concepts_;
  /// lemma -> concept ids (includes aliases).
  std::unordered_multimap<std::string, ConceptId> lemma_index_;
  /// (concept, kind) -> neighbor list.
  std::vector<std::unordered_map<int, std::vector<ConceptId>>> edges_;
  size_t relation_count_ = 0;
};

}  // namespace ontology
}  // namespace dwqa

#endif  // DWQA_ONTOLOGY_ONTOLOGY_H_
