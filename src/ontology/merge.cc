#include "ontology/merge.h"

#include <unordered_map>

#include "common/string_util.h"
#include "text/lemmatizer.h"

namespace dwqa {
namespace ontology {

const char* MergeDecisionName(MergeDecision d) {
  switch (d) {
    case MergeDecision::kExactMatch:
      return "exact";
    case MergeDecision::kPartialMatch:
      return "partial";
    case MergeDecision::kHeadHyponym:
      return "head-hyponym";
    case MergeDecision::kNewTree:
      return "new-tree";
    case MergeDecision::kNewInstance:
      return "new-instance";
  }
  return "?";
}

std::string OntologyMerger::HeadWord(const std::string& name) {
  std::vector<std::string> words = SplitWhitespace(ToLower(name));
  if (words.empty()) return "";
  // The head of an English compound nominal is its final word; singularize
  // it so "Sales" finds the concept "sale".
  return text::Lemmatizer::Lemmatize(words.back(), "NNS");
}

namespace {

/// Best partial match of `lemma` among upper class concepts (similarity at
/// or above `threshold`; ties go to the earlier, more salient sense).
ConceptId BestPartialMatch(const Ontology& upper, const std::string& lemma,
                           double threshold) {
  ConceptId best = kInvalidConcept;
  double best_sim = threshold;
  for (ConceptId id : upper.AllConcepts()) {
    const Concept& c = upper.GetConcept(id);
    if (c.is_instance) continue;
    double sim = StringSimilarity(lemma, c.lemma);
    if (sim > best_sim) {
      best = id;
      best_sim = sim;
    }
  }
  return best;
}

}  // namespace

Result<MergeReport> OntologyMerger::Merge(Ontology* upper,
                                          const Ontology& domain,
                                          const MergeOptions& options) {
  if (upper == nullptr) {
    return Status::InvalidArgument("upper ontology must not be null");
  }
  // The passes read `domain`'s concepts and relation lists by reference
  // while they add to `upper`: the two must be distinct ontologies.
  if (upper == &domain) {
    return Status::InvalidArgument("cannot merge an ontology into itself");
  }
  MergeReport report;
  // Image of every domain concept in the upper ontology.
  std::unordered_map<ConceptId, ConceptId> image;

  // ---- Pass 1: place class concepts ------------------------------------
  for (ConceptId did : domain.AllConcepts()) {
    const Concept& dc = domain.GetConcept(did);
    if (dc.is_instance) continue;
    MergeRecord record;
    record.domain_concept = dc.name;

    auto exact = upper->FindClass(dc.lemma);
    ConceptId partial = kInvalidConcept;
    if (!exact.ok() && options.enable_partial) {
      partial =
          BestPartialMatch(*upper, dc.lemma, options.partial_threshold);
    }
    if (exact.ok()) {
      image[did] = *exact;
      record.decision = MergeDecision::kExactMatch;
      record.target = upper->GetConcept(*exact).name;
      ++report.exact;
    } else if (partial != kInvalidConcept) {
      // Partial match: expose the domain name as a synonym of the match.
      image[did] = partial;
      record.decision = MergeDecision::kPartialMatch;
      record.target = upper->GetConcept(partial).name;
      DWQA_RETURN_NOT_OK(upper->AddAlias(partial, dc.lemma));
      ++report.partial;
      ++report.synonyms_added;
    } else {
      std::string head = HeadWord(dc.name);
      auto head_match = upper->FindClass(head);
      if (options.enable_head && head != dc.lemma && head_match.ok()) {
        // New hyponym of the head concept ("Last Minute Sales" under
        // "sale").
        DWQA_ASSIGN_OR_RETURN(
            ConceptId nid, upper->AddConcept(dc.name, dc.gloss, "merge"));
        DWQA_RETURN_NOT_OK(
            upper->AddRelation(nid, RelationKind::kHypernym, *head_match));
        image[did] = nid;
        record.decision = MergeDecision::kHeadHyponym;
        record.target = upper->GetConcept(*head_match).name;
        ++report.head;
      } else {
        // New ontological tree: concept with no hypernym.
        DWQA_ASSIGN_OR_RETURN(
            ConceptId nid, upper->AddConcept(dc.name, dc.gloss, "merge"));
        image[did] = nid;
        record.decision = MergeDecision::kNewTree;
        ++report.new_tree;
      }
    }
    report.records.push_back(std::move(record));
  }

  // ---- Pass 2: place instances under their class images ----------------
  for (ConceptId did : domain.AllConcepts()) {
    const Concept& dc = domain.GetConcept(did);
    if (!dc.is_instance) continue;
    MergeRecord record;
    record.domain_concept = dc.name;
    record.is_instance = true;

    // The class this instance belongs to, mapped into the upper ontology.
    ConceptId upper_class = kInvalidConcept;
    for (ConceptId k : domain.Related(did, RelationKind::kInstanceOf)) {
      auto it = image.find(k);
      if (it != image.end()) {
        upper_class = it->second;
        break;
      }
    }

    // Does the upper ontology already know this individual (by any of its
    // names) as an instance *of the same class*? Then enrich with aliases,
    // as the paper does for JFK / Kennedy International Airport.
    ConceptId existing = kInvalidConcept;
    std::vector<std::string> names{dc.lemma};
    names.insert(names.end(), dc.aliases.begin(), dc.aliases.end());
    for (const std::string& n : names) {
      for (ConceptId uid : upper->Find(n)) {
        if (!upper->GetConcept(uid).is_instance) continue;
        if (upper_class == kInvalidConcept ||
            upper->IsA(uid, upper_class)) {
          existing = uid;
          break;
        }
      }
      if (existing != kInvalidConcept) break;
    }

    ConceptId inst = existing;
    if (existing != kInvalidConcept) {
      record.decision = MergeDecision::kExactMatch;
      record.target = upper->GetConcept(existing).name;
      for (const std::string& n : names) {
        if (n != upper->GetConcept(existing).lemma) {
          DWQA_RETURN_NOT_OK(upper->AddAlias(existing, n));
          ++report.synonyms_added;
        }
      }
      ++report.exact;
    } else {
      DWQA_ASSIGN_OR_RETURN(
          inst, upper->AddInstance(dc.name, dc.gloss, "merge"));
      for (const std::string& alias : dc.aliases) {
        DWQA_RETURN_NOT_OK(upper->AddAlias(inst, alias));
      }
      if (upper_class != kInvalidConcept) {
        DWQA_RETURN_NOT_OK(
            upper->AddRelation(inst, RelationKind::kInstanceOf, upper_class));
        record.decision = MergeDecision::kNewInstance;
        record.target = upper->GetConcept(upper_class).name;
        ++report.new_instances;
      } else {
        record.decision = MergeDecision::kNewTree;
        ++report.new_tree;
      }
    }
    image[did] = inst;
    ++report.instances_merged;
    report.records.push_back(std::move(record));
  }

  // ---- Pass 3: carry the remaining domain relations over ----------------
  for (ConceptId did : domain.AllConcepts()) {
    auto it_from = image.find(did);
    if (it_from == image.end()) continue;
    for (RelationKind kind :
         {RelationKind::kPartOf, RelationKind::kHasProperty,
          RelationKind::kAssociated}) {
      for (ConceptId to : domain.Related(did, kind)) {
        auto it_to = image.find(to);
        if (it_to == image.end()) continue;
        if (it_from->second == it_to->second) continue;
        DWQA_RETURN_NOT_OK(
            upper->AddRelation(it_from->second, kind, it_to->second));
      }
    }
    // Axioms travel with the concept.
    for (const Axiom& ax : domain.GetConcept(did).axioms) {
      DWQA_RETURN_NOT_OK(
          upper->SetAxiom(it_from->second, ax.key, ax.value));
    }
  }
  return report;
}

}  // namespace ontology
}  // namespace dwqa
