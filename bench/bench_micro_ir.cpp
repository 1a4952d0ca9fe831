// Microbenchmarks of the IR substrate, including the passage-window
// ablation the DESIGN.md calls out (IR-n's defining parameter; the paper's
// footnote 6 reports 8-sentence passages).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_json_main.h"

#include "common/string_util.h"
#include "integration/last_minute_sales.h"
#include "integration/pipeline.h"
#include "ir/inverted_index.h"
#include "ir/passage_index.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace {

using dwqa::ir::InvertedIndex;
using dwqa::ir::PassageIndex;

dwqa::web::SyntheticWeb& Corpus() {
  static auto* web = [] {
    dwqa::web::WebConfig config;
    config.months = {1};
    config.noise_pages = 60;
    return new dwqa::web::SyntheticWeb(
        dwqa::web::SyntheticWeb::Build(config).ValueOrDie());
  }();
  return *web;
}

void BM_IndexCorpusDocLevel(benchmark::State& state) {
  const auto& docs = Corpus().documents();
  for (auto _ : state) {
    InvertedIndex index;
    for (const auto& doc : docs.documents()) {
      index.AddDocument(doc.id, doc.raw);
    }
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexCorpusDocLevel);

void BM_DocSearch(benchmark::State& state) {
  const auto& docs = Corpus().documents();
  InvertedIndex index;
  for (const auto& doc : docs.documents()) {
    index.AddDocument(doc.id, doc.raw);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Search("Barcelona January 2004 temperature"));
  }
}
BENCHMARK(BM_DocSearch);

/// Passage retrieval cost and behaviour across window sizes (ablation).
void BM_PassageSearchWindow(benchmark::State& state) {
  const auto& docs = Corpus().documents();
  PassageIndex index(static_cast<size_t>(state.range(0)));
  for (const auto& doc : docs.documents()) {
    index.AddDocument(doc.id, doc.raw);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Search("Barcelona January 2004 temperature", 5));
  }
}
BENCHMARK(BM_PassageSearchWindow)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// The live ask's retrieval set-up as the end-to-end benchmark builds it:
/// the full synthetic web (12 months, 40 distractor pages) indexed by the
/// Last Minute Sales pipeline (Steps 1-4), and the main-SB query
/// (AliQAn::SelectPassages') of every question of the ask pool — weather,
/// airport-phrased weather and CLEF-style questions.
struct AskPool {
  std::unique_ptr<dwqa::web::SyntheticWeb> web;
  dwqa::ontology::UmlModel uml;
  std::unique_ptr<dwqa::dw::Warehouse> wh;
  std::unique_ptr<dwqa::integration::IntegrationPipeline> pipeline;
  std::vector<std::string> queries;
};

const AskPool& AskPoolFixture() {
  static const AskPool* fixture = [] {
    using dwqa::integration::LastMinuteSales;
    auto* fx = new AskPool();
    dwqa::web::WebConfig web_config;
    web_config.year = 2004;
    web_config.months = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    web_config.noise_pages = 40;
    fx->web = std::make_unique<dwqa::web::SyntheticWeb>(
        dwqa::web::SyntheticWeb::Build(web_config).ValueOrDie());
    std::vector<dwqa::web::GoldQuestion> pool =
        dwqa::web::QuestionFactory::WeatherQuestions(*fx->web);
    std::vector<std::pair<std::string, std::string>> airport_of_city;
    for (const auto& airport : LastMinuteSales::Airports()) {
      airport_of_city.push_back({dwqa::ToLower(airport.city), airport.name});
    }
    for (auto& q : dwqa::web::QuestionFactory::AirportWeatherQuestions(
             *fx->web, airport_of_city)) {
      pool.push_back(std::move(q));
    }
    for (auto& q : dwqa::web::QuestionFactory::ClefStyleQuestions()) {
      pool.push_back(std::move(q));
    }
    fx->uml = LastMinuteSales::MakeUmlModel();
    fx->wh = std::make_unique<dwqa::dw::Warehouse>(
        LastMinuteSales::MakeWarehouse().ValueOrDie());
    fx->pipeline = std::make_unique<dwqa::integration::IntegrationPipeline>(
        fx->wh.get(), &fx->uml, LastMinuteSales::DefaultPipelineConfig());
    if (!fx->pipeline->RunAll(&fx->web->documents()).ok()) std::abort();
    const dwqa::qa::AliQAn& aliqan = *fx->pipeline->aliqan();
    for (const auto& q : pool) {
      auto analysis = aliqan.AnalyzeQuestion(q.question).ValueOrDie();
      std::string query = dwqa::Join(analysis.main_sbs, " ");
      if (dwqa::Trim(query).empty()) query = analysis.question;
      fx->queries.push_back(std::move(query));
    }
    return fx;
  }();
  return *fixture;
}

/// The live ask's retrieval step: one PassageIndex::Search (k = 5, the
/// pipeline's passages_to_analyze) per ask-pool query. One iteration
/// searches the whole pool.
void BM_PassageSearchAskPool(benchmark::State& state) {
  const AskPool& fx = AskPoolFixture();
  const PassageIndex& index = fx.pipeline->aliqan()->passage_index();
  for (auto _ : state) {
    for (const std::string& query : fx.queries) {
      benchmark::DoNotOptimize(index.Search(query, 5));
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(fx.queries.size()));
}
BENCHMARK(BM_PassageSearchAskPool)->Unit(benchmark::kMicrosecond);

void BM_PassageIndexBuild(benchmark::State& state) {
  const auto& docs = Corpus().documents();
  for (auto _ : state) {
    PassageIndex index(8);
    for (const auto& doc : docs.documents()) {
      index.AddDocument(doc.id, doc.raw);
    }
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_PassageIndexBuild);

// ---------------------------------------------------------------------------
// Corpus-size sweep for the segmented index cores (36 / 1k / 10k docs):
// full rebuild grows with the corpus, appending one document to a built
// index must stay flat (memtable insert + amortized seal/merge), and
// querying the merged manifest shows the block-max search cost.

/// Deterministic short document — enough shared vocabulary for real
/// posting lists, enough variation for distinct postings.
std::string SweepDoc(size_t i) {
  static const char* kCities[] = {"Barcelona", "Madrid", "Valencia",
                                  "Seville"};
  std::ostringstream out;
  out << "The temperature in " << kCities[i % 4] << " on day "
      << (i % 28 + 1) << " of January was " << (i % 30)
      << " degrees. Flights from terminal " << (i % 9) << " were "
      << ((i % 2 != 0) ? "delayed" : "punctual") << " that morning.";
  return out.str();
}

void BM_SegmentedFullBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) docs.push_back(SweepDoc(i));
  for (auto _ : state) {
    InvertedIndex index;
    for (size_t i = 0; i < n; ++i) {
      index.AddDocument(dwqa::ir::DocId(i), docs[i]);
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_SegmentedFullBuild)
    ->Arg(36)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// The two ingest/query benches below run both instantiations of the
// shared segment lifecycle: the doc index under the historical names, the
// passage index (8-sentence windows) under a `Passage` suffix.

template <typename Index>
Index SweepIndex(const dwqa::ir::SegmentedIndexOptions& options) {
  if constexpr (std::is_same_v<Index, InvertedIndex>) {
    return InvertedIndex(options);
  } else {
    return PassageIndex(8, options);
  }
}

template <typename Index>
void BM_SegmentedIncrementalIngest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Index index = SweepIndex<Index>({});
  for (size_t i = 0; i < n; ++i) {
    index.AddDocument(dwqa::ir::DocId(i), SweepDoc(i));
  }
  // Pre-render the appended text so only the index append is timed.
  std::vector<std::string> extra;
  for (size_t i = 0; i < 1024; ++i) extra.push_back(SweepDoc(n + i));
  size_t next = n;
  for (auto _ : state) {
    index.AddDocument(dwqa::ir::DocId(next), extra[(next - n) % 1024]);
    ++next;
  }
}
BENCHMARK(BM_SegmentedIncrementalIngest<InvertedIndex>)
    ->Name("BM_SegmentedIncrementalIngest")
    ->Arg(36)
    ->Arg(1000)
    ->Arg(10000);
BENCHMARK(BM_SegmentedIncrementalIngest<PassageIndex>)
    ->Name("BM_SegmentedIncrementalIngestPassage")
    ->Arg(36)
    ->Arg(1000)
    ->Arg(10000);

template <typename Index>
void BM_SegmentedMergedQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  dwqa::ir::SegmentedIndexOptions options;
  options.seal_every = 8;
  options.merge_trigger = 4;
  Index index = SweepIndex<Index>(options);
  for (size_t i = 0; i < n; ++i) {
    index.AddDocument(dwqa::ir::DocId(i), SweepDoc(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Search("temperature Barcelona January degrees"));
  }
}
BENCHMARK(BM_SegmentedMergedQuery<InvertedIndex>)
    ->Name("BM_SegmentedMergedQuery")
    ->Arg(36)
    ->Arg(1000)
    ->Arg(10000);
BENCHMARK(BM_SegmentedMergedQuery<PassageIndex>)
    ->Name("BM_SegmentedMergedQueryPassage")
    ->Arg(36)
    ->Arg(1000)
    ->Arg(10000);

}  // namespace

DWQA_BENCH_JSON_MAIN("bench_micro_ir");
