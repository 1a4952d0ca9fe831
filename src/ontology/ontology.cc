#include "ontology/ontology.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/string_util.h"

namespace dwqa {
namespace ontology {

RelationKind InverseRelation(RelationKind kind) {
  switch (kind) {
    case RelationKind::kHypernym:
      return RelationKind::kHyponym;
    case RelationKind::kHyponym:
      return RelationKind::kHypernym;
    case RelationKind::kSynonymOf:
      return RelationKind::kSynonymOf;
    case RelationKind::kPartOf:
      return RelationKind::kHasPart;
    case RelationKind::kHasPart:
      return RelationKind::kPartOf;
    case RelationKind::kAntonym:
      return RelationKind::kAntonym;
    case RelationKind::kInstanceOf:
      return RelationKind::kHasInstance;
    case RelationKind::kHasInstance:
      return RelationKind::kInstanceOf;
    case RelationKind::kHasProperty:
      return RelationKind::kPropertyOf;
    case RelationKind::kPropertyOf:
      return RelationKind::kHasProperty;
    case RelationKind::kAssociated:
      return RelationKind::kAssociated;
  }
  return RelationKind::kAssociated;
}

const char* RelationKindName(RelationKind kind) {
  switch (kind) {
    case RelationKind::kHypernym:
      return "hypernym";
    case RelationKind::kHyponym:
      return "hyponym";
    case RelationKind::kSynonymOf:
      return "synonym";
    case RelationKind::kPartOf:
      return "partOf";
    case RelationKind::kHasPart:
      return "hasPart";
    case RelationKind::kAntonym:
      return "antonym";
    case RelationKind::kInstanceOf:
      return "instanceOf";
    case RelationKind::kHasInstance:
      return "hasInstance";
    case RelationKind::kHasProperty:
      return "hasProperty";
    case RelationKind::kPropertyOf:
      return "propertyOf";
    case RelationKind::kAssociated:
      return "associated";
  }
  return "?";
}

Result<ConceptId> Ontology::AddNode(std::string_view name,
                                    std::string_view gloss,
                                    std::string_view source,
                                    bool is_instance) {
  if (name.empty()) {
    return Status::InvalidArgument("concept name must not be empty");
  }
  std::string lemma = ToLower(name);
  Concept c;
  c.id = static_cast<ConceptId>(concepts_.size());
  c.name = std::string(name);
  c.lemma = std::move(lemma);
  c.gloss = std::string(gloss);
  c.source = std::string(source);
  c.is_instance = is_instance;
  lemma_index_.emplace(c.lemma, c.id);
  concepts_.push_back(std::move(c));
  edges_.emplace_back();
  return concepts_.back().id;
}

Result<ConceptId> Ontology::AddConcept(std::string_view name,
                                       std::string_view gloss,
                                       std::string_view source) {
  return AddNode(name, gloss, source, /*is_instance=*/false);
}

Result<ConceptId> Ontology::AddInstance(std::string_view name,
                                        std::string_view gloss,
                                        std::string_view source) {
  return AddNode(name, gloss, source, /*is_instance=*/true);
}

Status Ontology::AddRelation(ConceptId from, RelationKind kind, ConceptId to) {
  if (!IsValidId(from) || !IsValidId(to)) {
    return Status::InvalidArgument("relation endpoint id out of range");
  }
  if (from == to) {
    return Status::InvalidArgument("self-loop relation on concept '" +
                                   concepts_[size_t(from)].name + "'");
  }
  auto& fwd = edges_[size_t(from)][static_cast<int>(kind)];
  if (std::find(fwd.begin(), fwd.end(), to) != fwd.end()) {
    return Status::OK();  // Idempotent.
  }
  fwd.push_back(to);
  edges_[size_t(to)][static_cast<int>(InverseRelation(kind))].push_back(from);
  ++relation_count_;
  return Status::OK();
}

Status Ontology::AddAlias(ConceptId id, std::string_view alias) {
  if (!IsValidId(id)) {
    return Status::InvalidArgument("alias target id out of range");
  }
  std::string lemma = ToLower(alias);
  if (lemma.empty()) return Status::InvalidArgument("empty alias");
  Concept& c = concepts_[size_t(id)];
  if (lemma == c.lemma) return Status::OK();
  if (std::find(c.aliases.begin(), c.aliases.end(), lemma) !=
      c.aliases.end()) {
    return Status::OK();
  }
  c.aliases.push_back(lemma);
  lemma_index_.emplace(lemma, id);
  return Status::OK();
}

Status Ontology::SetAxiom(ConceptId id, std::string_view key,
                          std::string_view value) {
  if (!IsValidId(id)) {
    return Status::InvalidArgument("axiom target id out of range");
  }
  for (Axiom& a : concepts_[size_t(id)].axioms) {
    if (a.key == key) {
      a.value = std::string(value);
      return Status::OK();
    }
  }
  concepts_[size_t(id)].axioms.push_back(
      Axiom{std::string(key), std::string(value)});
  return Status::OK();
}

Result<std::string> Ontology::GetAxiom(ConceptId id,
                                       std::string_view key) const {
  if (!IsValidId(id)) {
    return Status::InvalidArgument("axiom target id out of range");
  }
  for (const Axiom& a : concepts_[size_t(id)].axioms) {
    if (a.key == key) return a.value;
  }
  return Status::NotFound("no axiom '" + std::string(key) + "' on concept '" +
                          concepts_[size_t(id)].name + "'");
}

std::vector<ConceptId> Ontology::Find(std::string_view lemma) const {
  std::vector<ConceptId> out;
  auto range = lemma_index_.equal_range(ToLower(lemma));
  for (auto it = range.first; it != range.second; ++it) {
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<ConceptId> Ontology::FindClass(std::string_view lemma) const {
  // Find() returns ids sorted ascending, i.e. in insertion order — the
  // first-sense heuristic of WordNet: when a lemma has several class senses
  // the earliest (most salient) one wins.
  for (ConceptId id : Find(lemma)) {
    if (!concepts_[size_t(id)].is_instance) return id;
  }
  return Status::NotFound("no class concept for lemma '" +
                          std::string(lemma) + "'");
}

const std::vector<ConceptId>& Ontology::Related(ConceptId id,
                                                RelationKind kind) const {
  static const std::vector<ConceptId> kNone;
  if (!IsValidId(id)) return kNone;
  auto it = edges_[size_t(id)].find(static_cast<int>(kind));
  if (it == edges_[size_t(id)].end()) return kNone;
  return it->second;
}

bool Ontology::IsA(ConceptId a, ConceptId b) const {
  if (!IsValidId(a) || !IsValidId(b)) return false;
  // Breadth-first over the upward edges, synonyms included. `walk` is the
  // queue from `head` on and, as a whole, the visited set that bounds the
  // walk. Upward walks are short, so a linear membership test is enough,
  // and the thread's buffer keeps its capacity: a warm call allocates
  // nothing.
  thread_local std::vector<ConceptId> walk;
  walk.assign(1, a);
  for (size_t head = 0; head < walk.size(); ++head) {
    ConceptId cur = walk[head];
    if (cur == b) return true;
    for (RelationKind k : {RelationKind::kInstanceOf, RelationKind::kHypernym,
                           RelationKind::kSynonymOf}) {
      for (ConceptId next : Related(cur, k)) {
        if (std::find(walk.begin(), walk.end(), next) == walk.end()) {
          walk.push_back(next);
        }
      }
    }
  }
  return false;
}

std::vector<ConceptId> Ontology::HypernymPath(ConceptId id) const {
  std::vector<ConceptId> path;
  std::unordered_set<ConceptId> seen;
  ConceptId cur = id;
  while (IsValidId(cur) && seen.insert(cur).second) {
    path.push_back(cur);
    const std::vector<ConceptId>* up =
        &Related(cur, RelationKind::kInstanceOf);
    if (up->empty()) up = &Related(cur, RelationKind::kHypernym);
    if (up->empty()) break;
    cur = up->front();
  }
  return path;
}

std::vector<ConceptId> Ontology::SubtreeOf(ConceptId id, size_t limit) const {
  std::vector<ConceptId> out;
  if (!IsValidId(id)) return out;
  std::unordered_set<ConceptId> visited{id};
  std::deque<ConceptId> queue{id};
  while (!queue.empty() && out.size() < limit) {
    ConceptId cur = queue.front();
    queue.pop_front();
    for (RelationKind k :
         {RelationKind::kHyponym, RelationKind::kHasInstance}) {
      for (ConceptId next : Related(cur, k)) {
        if (visited.insert(next).second) {
          out.push_back(next);
          queue.push_back(next);
        }
      }
    }
  }
  return out;
}

std::vector<ConceptId> Ontology::AllConcepts() const {
  std::vector<ConceptId> out(concepts_.size());
  for (size_t i = 0; i < concepts_.size(); ++i) {
    out[i] = static_cast<ConceptId>(i);
  }
  return out;
}

}  // namespace ontology
}  // namespace dwqa
