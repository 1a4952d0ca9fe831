#include "ontology/merge.h"

#include <gtest/gtest.h>

#include "ontology/enrichment.h"
#include "ontology/uml_to_ontology.h"
#include "ontology/wordnet.h"
#include "integration/last_minute_sales.h"

namespace dwqa {
namespace ontology {
namespace {

Ontology DomainOntology() {
  UmlModel model = integration::LastMinuteSales::MakeUmlModel();
  Ontology domain = UmlToOntology::Transform(model).ValueOrDie();
  std::vector<InstanceSeed> seeds = {
      {"El Prat", {}, "Barcelona", ""},
      {"JFK", {"Kennedy International Airport"}, "New York", ""},
  };
  EXPECT_TRUE(Enricher::Enrich(&domain, "airport", seeds).ok());
  return domain;
}

TEST(MergeTest, ExactMatchesMapOntoUpperConcepts) {
  Ontology upper = MiniWordNet::Build();
  size_t upper_airport_count = upper.Find("airport").size();
  auto report = OntologyMerger::Merge(&upper, DomainOntology());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->exact, 0u);
  // "Airport", "City", "State", "Country" all exist in the upper ontology:
  // no duplicate class concepts created.
  EXPECT_EQ(upper.Find("airport").size(), upper_airport_count);
}

TEST(MergeTest, HeadWordFallbackForLastMinuteSales) {
  // "Last Minute Sales" is not in WordNet; its head "Sale" is, so it is
  // added as a new hyponym of "sale" (§3, Step 3).
  Ontology upper = MiniWordNet::Build();
  auto report = OntologyMerger::Merge(&upper, DomainOntology());
  ASSERT_TRUE(report.ok());
  auto lms = upper.Find("last minute sales");
  ASSERT_FALSE(lms.empty());
  EXPECT_TRUE(upper.IsA(lms[0], upper.FindClass("sale").ValueOrDie()));
  bool recorded = false;
  for (const MergeRecord& r : report->records) {
    if (r.domain_concept == "Last Minute Sales") {
      EXPECT_EQ(r.decision, MergeDecision::kHeadHyponym);
      EXPECT_EQ(r.target, "sale");
      recorded = true;
    }
  }
  EXPECT_TRUE(recorded);
}

TEST(MergeTest, JfkAliasEnrichesKennedyInstance) {
  // The paper's example: "JFK" matches the existing WordNet instance
  // "Kennedy International Airport" through its alias and the two become
  // synonyms.
  Ontology upper = MiniWordNet::Build();
  ASSERT_TRUE(OntologyMerger::Merge(&upper, DomainOntology()).ok());
  ConceptId airport = upper.FindClass("airport").ValueOrDie();
  std::vector<ConceptId> jfk_airport;
  for (ConceptId id : upper.Find("jfk")) {
    if (upper.IsA(id, airport)) jfk_airport.push_back(id);
  }
  ASSERT_EQ(jfk_airport.size(), 1u);
  EXPECT_EQ(upper.GetConcept(jfk_airport[0]).lemma,
            "kennedy international airport");
}

TEST(MergeTest, ElPratAddedAsNewAirportInstance) {
  // "El Prat" has no airport instance in the upper ontology (only the
  // musical group) → a new instance is attached under "airport".
  Ontology upper = MiniWordNet::Build();
  ASSERT_TRUE(OntologyMerger::Merge(&upper, DomainOntology()).ok());
  ConceptId airport = upper.FindClass("airport").ValueOrDie();
  bool has_airport_sense = false;
  bool still_has_group_sense = false;
  for (ConceptId id : upper.Find("el prat")) {
    if (upper.IsA(id, airport)) has_airport_sense = true;
    if (upper.IsA(id, upper.FindClass("group").ValueOrDie())) {
      still_has_group_sense = true;
    }
  }
  EXPECT_TRUE(has_airport_sense);
  EXPECT_TRUE(still_has_group_sense);
}

TEST(MergeTest, PartOfRelationsCarriedOver) {
  Ontology upper = MiniWordNet::Build();
  ASSERT_TRUE(OntologyMerger::Merge(&upper, DomainOntology()).ok());
  ConceptId airport = upper.FindClass("airport").ValueOrDie();
  for (ConceptId id : upper.Find("el prat")) {
    if (!upper.IsA(id, airport)) continue;
    auto parts = upper.Related(id, RelationKind::kPartOf);
    ASSERT_FALSE(parts.empty());
    EXPECT_EQ(upper.GetConcept(parts[0]).lemma, "barcelona");
    return;
  }
  FAIL() << "no airport sense of El Prat after merge";
}

TEST(MergeTest, NewTreeWhenNothingSimilar) {
  Ontology upper = MiniWordNet::Build();
  Ontology domain;
  ConceptId weird =
      domain.AddConcept("Zorblax Quux", "utterly novel", "uml").ValueOrDie();
  (void)weird;
  auto report = OntologyMerger::Merge(&upper, domain);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->new_tree, 1u);
  auto found = upper.Find("zorblax quux");
  ASSERT_EQ(found.size(), 1u);
  // A new tree has no hypernym.
  EXPECT_TRUE(upper.Related(found[0], RelationKind::kHypernym).empty());
}

TEST(MergeTest, PartialMatchLinksAsSynonym) {
  Ontology upper = MiniWordNet::Build();
  Ontology domain;
  // "temperatures" ~ "temperature" at > 0.85 similarity.
  ASSERT_TRUE(domain.AddConcept("Temperatur", "a misspelling", "uml").ok());
  MergeOptions options;
  options.partial_threshold = 0.8;
  auto report = OntologyMerger::Merge(&upper, domain, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->partial, 1u);
  // The domain name became an alias of the upper concept.
  auto found = upper.Find("temperatur");
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(upper.GetConcept(found[0]).lemma, "temperature");
}

TEST(MergeTest, DisablingHeadFallbackCreatesNewTrees) {
  Ontology upper = MiniWordNet::Build();
  MergeOptions options;
  options.enable_head = false;
  options.enable_partial = false;
  auto report = OntologyMerger::Merge(&upper, DomainOntology(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->head, 0u);
  EXPECT_GT(report->new_tree, 0u);
}

TEST(MergeTest, AxiomsTravelWithConcepts) {
  Ontology upper = MiniWordNet::Build();
  Ontology domain;
  ConceptId c = domain.AddConcept("temperature", "attr", "uml").ValueOrDie();
  ASSERT_TRUE(domain.SetAxiom(c, "unit", "ºC|F").ok());
  ASSERT_TRUE(OntologyMerger::Merge(&upper, domain).ok());
  ConceptId upper_temp = upper.FindClass("temperature").ValueOrDie();
  EXPECT_EQ(upper.GetAxiom(upper_temp, "unit").ValueOrDie(), "ºC|F");
}

TEST(MergeTest, HeadWordExtraction) {
  EXPECT_EQ(OntologyMerger::HeadWord("Last Minute Sales"), "sale");
  EXPECT_EQ(OntologyMerger::HeadWord("City"), "city");
  EXPECT_EQ(OntologyMerger::HeadWord(""), "");
  EXPECT_EQ(OntologyMerger::HeadWord("Airport Dimension"), "dimension");
}

TEST(MergeTest, NullUpperRejected) {
  Ontology domain;
  EXPECT_TRUE(OntologyMerger::Merge(nullptr, domain)
                  .status()
                  .IsInvalidArgument());
}

TEST(MergeTest, SelfMergeRejected) {
  Ontology onto = DomainOntology();
  size_t concepts = onto.concept_count();
  EXPECT_TRUE(OntologyMerger::Merge(&onto, onto).status().IsInvalidArgument());
  EXPECT_EQ(onto.concept_count(), concepts);
}

TEST(MergeTest, ReportCountsAreConsistent) {
  Ontology upper = MiniWordNet::Build();
  auto report = OntologyMerger::Merge(&upper, DomainOntology());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(),
            report->exact + report->partial + report->head +
                report->new_tree + report->new_instances);
}

}  // namespace
}  // namespace ontology
}  // namespace dwqa
