// Microbenchmarks of the QA substrate: question analysis, passage
// selection and answer extraction — the per-question cost structure behind
// bench_fig3_aliqan_phases.

#include <benchmark/benchmark.h>

#include "bench/bench_json_main.h"

#include "ontology/enrichment.h"
#include "ontology/wordnet.h"
#include "qa/aliqan.h"
#include "qa/answer_extractor.h"
#include "qa/crosslingual.h"
#include "qa/question_analyzer.h"
#include "web/synthetic_web.h"

namespace {

using namespace dwqa;

const char* kQuestion =
    "What is the weather like in January of 2004 in El Prat?";

ontology::Ontology& MergedOntology() {
  static auto* onto = [] {
    auto* o = new ontology::Ontology(ontology::MiniWordNet::Build());
    std::vector<ontology::InstanceSeed> seeds = {
        {"El Prat", {}, "Barcelona", ""}};
    ontology::Enricher::Enrich(o, "airport", seeds).ValueOrDie();
    return o;
  }();
  return *onto;
}

const web::SyntheticWeb& Web() {
  static auto* webb = [] {
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid"};
    config.months = {1};
    return new web::SyntheticWeb(
        web::SyntheticWeb::Build(config).ValueOrDie());
  }();
  return *webb;
}

qa::AliQAn& IndexedAliqan() {
  static auto* aliqan = [] {
    auto* a = new qa::AliQAn(&MergedOntology());
    a->IndexCorpus(&Web().documents());
    return a;
  }();
  return *aliqan;
}

void BM_QuestionAnalysis(benchmark::State& state) {
  qa::QuestionAnalyzer analyzer(&MergedOntology());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Analyze(kQuestion));
  }
}
BENCHMARK(BM_QuestionAnalysis);

void BM_PassageSelection(benchmark::State& state) {
  qa::AliQAn& aliqan = IndexedAliqan();
  auto analysis = aliqan.AnalyzeQuestion(kQuestion).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(aliqan.SelectPassages(analysis));
  }
}
BENCHMARK(BM_PassageSelection);

// The live ask's extraction: one Prepare, then pattern matching over the
// corpus's cached sentence analyses of every retrieved passage.
void BM_AnswerExtraction(benchmark::State& state) {
  qa::AliQAn& aliqan = IndexedAliqan();
  auto analysis = aliqan.AnalyzeQuestion(kQuestion).ValueOrDie();
  auto passages = aliqan.SelectPassages(analysis).ValueOrDie();
  const text::AnalyzedCorpus& corpus = aliqan.corpus();
  std::vector<text::SentenceView> views;
  for (const auto& p : passages) {
    views.push_back(corpus.View(p.doc, p.first_sentence, p.last_sentence));
  }
  qa::AnswerExtractor extractor(&MergedOntology());
  std::vector<qa::AnswerCandidate> candidates;
  for (auto _ : state) {
    qa::PreparedQuestion prepared =
        extractor.Prepare(analysis, corpus.dictionary());
    candidates.clear();
    for (size_t i = 0; i < passages.size(); ++i) {
      extractor.ExtractAnalyzed(prepared, views[i], i, passages[i].doc,
                                &candidates);
    }
    benchmark::DoNotOptimize(candidates.data());
  }
}
BENCHMARK(BM_AnswerExtraction);

// All of a live ask's extraction step: BM_AnswerExtraction, then Rank and
// the source strings of the answers it keeps (the `qa.extraction` span).
void BM_AnswerExtractionRanked(benchmark::State& state) {
  qa::AliQAn& aliqan = IndexedAliqan();
  auto analysis = aliqan.AnalyzeQuestion(kQuestion).ValueOrDie();
  auto passages = aliqan.SelectPassages(analysis).ValueOrDie();
  const text::AnalyzedCorpus& corpus = aliqan.corpus();
  qa::AnswerExtractor extractor(&MergedOntology());
  for (auto _ : state) {
    qa::PreparedQuestion prepared =
        extractor.Prepare(analysis, corpus.dictionary());
    std::vector<qa::AnswerCandidate> candidates;
    for (size_t i = 0; i < passages.size(); ++i) {
      const ir::Passage& p = passages[i];
      extractor.ExtractAnalyzed(
          prepared, corpus.View(p.doc, p.first_sentence, p.last_sentence), i,
          p.doc, &candidates);
    }
    std::vector<qa::AnswerCandidate> answers =
        qa::AnswerExtractor::Rank(std::move(candidates),
                                  aliqan.config().max_answers);
    qa::AnswerExtractor::AttachSources(passages, corpus, &Web().documents(),
                                       &answers);
    benchmark::DoNotOptimize(answers.data());
  }
}
BENCHMARK(BM_AnswerExtractionRanked);

void BM_FullAsk(benchmark::State& state) {
  qa::AliQAn& aliqan = IndexedAliqan();
  for (auto _ : state) {
    benchmark::DoNotOptimize(aliqan.Ask(kQuestion));
  }
}
BENCHMARK(BM_FullAsk);

void BM_SpanishTranslation(benchmark::State& state) {
  const std::string question =
      "\xC2\xBF\x43u\xC3\xA1l es la temperatura en El Prat en enero de "
      "2004?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(qa::SpanishTranslator::Translate(question));
  }
}
BENCHMARK(BM_SpanishTranslation);

}  // namespace

DWQA_BENCH_JSON_MAIN("bench_micro_qa");
