// E4 — Reproduces Figure 3 (the AliQAn architecture) as a phase-timing
// study, quantifying the paper's §1 claim: "IR tools are usually run as a
// first filtering phase, and QA works on IR output. In this way, time of
// analysis ... is highly decreased."
//
// Part 1 (corpus sweep): corpus size × {IR filter ON, OFF}; per phase
// wall-clock plus the amount of text the expensive extraction module sees.
//
// Part 2 (parallel indexation scaling): serial vs N-thread off-line
// indexation (the linguistic analysis every ask later reads) over one
// corpus. The parallel build must stay byte-identical to the serial one
// (postings and answers are compared inline); on hardware with ≥ 4 cores
// the 4-thread build must also be > 1.5× faster — on smaller machines the
// numbers are recorded without the speedup gate.
//
// Results are appended to the shared bench-JSON artifact
// ($DWQA_BENCH_JSON, default BENCH_phase3.json). `--smoke` shrinks both
// parts for the `perf`-labeled ctest smoke and gates only the
// deterministic invariant (identical builds); the speedup threshold is
// judged by the full run alone.

#include <cstring>
#include <iostream>
#include <thread>

#include "bench/bench_json.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "ontology/enrichment.h"
#include "ontology/wordnet.h"
#include "qa/aliqan.h"
#include "web/synthetic_web.h"

using namespace dwqa;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  PrintBanner(std::cout,
              "Figure 3 — AliQAn two-phase architecture: indexation + "
              "3-module search phase");
  std::cout << "Claim under test: the IR-n filtering module cuts the text "
               "volume (and time)\nthe answer-extraction module spends per "
               "question.\n";

  bench::JsonSectionWriter json("bench_fig3_aliqan_phases");

  TablePrinter table({"docs", "IR filter", "index ms", "analysis ms",
                      "retrieval ms", "extraction ms", "sentences analyzed"});

  const std::string question =
      "What is the temperature in Barcelona in January of 2004?";

  std::vector<size_t> noise_levels = smoke ? std::vector<size_t>{10u}
                                           : std::vector<size_t>{10u, 60u,
                                                                 160u};
  const int kRuns = smoke ? 2 : 5;
  for (size_t noise : noise_levels) {
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid", "Paris", "Rome"};
    config.months = {1};
    config.noise_pages = noise;
    auto webb = web::SyntheticWeb::Build(config).ValueOrDie();

    for (bool filter : {true, false}) {
      ontology::Ontology wn = ontology::MiniWordNet::Build();
      qa::AliQAnConfig qa_config;
      qa_config.use_ir_filter = filter;
      qa::AliQAn aliqan(&wn, qa_config);
      if (!aliqan.IndexCorpus(&webb.documents()).ok()) return 1;
      // Warm + measured run (timings are per last Ask call; average kRuns).
      double analysis = 0, retrieval = 0, extraction = 0;
      size_t sentences = 0;
      for (int r = 0; r < kRuns; ++r) {
        auto answers = aliqan.Ask(question);
        if (!answers.ok() || answers->empty()) {
          std::cerr << "no answer at noise=" << noise << std::endl;
          return 1;
        }
        analysis += aliqan.last_timings().analysis_ms;
        retrieval += aliqan.last_timings().retrieval_ms;
        extraction += aliqan.last_timings().extraction_ms;
        sentences = aliqan.last_timings().sentences_analyzed;
      }
      table.AddRow({std::to_string(webb.documents().size()),
                    filter ? "ON" : "OFF",
                    FormatDouble(aliqan.last_timings().indexation_ms, 1),
                    FormatDouble(analysis / kRuns, 2),
                    FormatDouble(retrieval / kRuns, 2),
                    FormatDouble(extraction / kRuns, 2),
                    std::to_string(sentences)});
      std::string key = "sweep_docs" + std::to_string(webb.documents().size()) +
                        (filter ? "_filter_on" : "_filter_off");
      json.Add(key + "_extraction_ms", extraction / kRuns, "ms");
      json.Add(key + "_sentences", double(sentences), "sentences");
    }
  }
  table.Print(std::cout);
  std::cout << "\n[shape check] extraction time and sentence volume grow "
               "with corpus size when the\nfilter is OFF and stay flat "
               "when it is ON.\n";

  ontology::Ontology wn = ontology::MiniWordNet::Build();
  std::vector<ontology::InstanceSeed> seeds = {{"El Prat", {}, "Barcelona",
                                                ""}};
  if (!ontology::Enricher::Enrich(&wn, "airport", seeds).ok()) return 1;

  // ----- Part 2: serial vs N-thread off-line indexation scaling ----------
  PrintBanner(std::cout,
              "Parallel indexation — ThreadPool scaling of the off-line "
              "analysis phase");
  web::WebConfig scaling_config;
  scaling_config.cities = {"Barcelona", "Madrid", "Paris", "Rome"};
  scaling_config.months = {1};
  scaling_config.noise_pages = smoke ? 40u : 200u;
  auto scaling_web = web::SyntheticWeb::Build(scaling_config).ValueOrDie();
  const int kIndexRuns = smoke ? 2 : 3;

  const std::vector<size_t> thread_counts = {1, 2, 4};
  std::vector<double> index_ms(thread_counts.size(), 0.0);
  std::string serial_postings;
  std::string serial_answer;
  bool identical = true;
  TablePrinter scaling({"threads", "index ms (best)", "speedup vs serial",
                        "identical build"});
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    qa::AliQAnConfig qa_config;
    qa_config.threads = thread_counts[t];
    qa::AliQAn aliqan(&wn, qa_config);
    double best = 0.0;
    for (int run = 0; run < kIndexRuns; ++run) {
      if (!aliqan.IndexCorpus(&scaling_web.documents()).ok()) return 1;
      double ms = aliqan.last_timings().indexation_ms;
      if (run == 0 || ms < best) best = ms;
    }
    index_ms[t] = best;
    // Equality gate: every thread count builds the same postings bytes and
    // answers the probe question identically.
    std::string postings = aliqan.document_index().DebugString() +
                           aliqan.passage_index().DebugString();
    auto answers = aliqan.Ask(question);
    if (!answers.ok() || answers->empty()) {
      std::cerr << "no answer at threads=" << thread_counts[t] << std::endl;
      return 1;
    }
    std::string answer = answers->answers.front().answer_text;
    if (t == 0) {
      serial_postings = std::move(postings);
      serial_answer = std::move(answer);
    } else if (postings != serial_postings || answer != serial_answer) {
      identical = false;
    }
    scaling.AddRow({std::to_string(thread_counts[t]), FormatDouble(best, 1),
                    FormatDouble(index_ms[0] / best, 2) + "x",
                    t == 0 ? "baseline" : (identical ? "yes" : "NO")});
    json.Add("scaling_indexation_ms_t" + std::to_string(thread_counts[t]),
             best, "ms");
  }
  scaling.Print(std::cout);

  const double speedup_4t = index_ms.back() > 0
                                ? index_ms.front() / index_ms.back()
                                : 0.0;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  json.Add("scaling_speedup_4t", speedup_4t, "x");
  json.Add("scaling_hw_threads", double(hw_threads), "threads");
  json.Add("scaling_identical", identical ? 1.0 : 0.0, "bool");
  std::cout << "\n4-thread indexation speedup: " << FormatDouble(speedup_4t, 2)
            << "x on " << hw_threads << " hardware thread(s)\n";

  if (!json.Flush()) return 1;
  std::cout << "[bench-json] wrote section bench_fig3_aliqan_phases to "
            << bench::BenchJsonPath() << "\n";

  // Shape checks: (1) parallel indexation is byte-identical to serial at
  // every thread count, and, in the full run only, (2) on hardware with
  // >= 4 cores, 4 threads must index > 1.5x faster. --smoke runs under
  // `ctest -j` beside other tests, where timings are noise, so it reports
  // the speedup without gating it.
  bool shape_ok = identical;
  if (!smoke && hw_threads >= 4 && speedup_4t <= 1.5) {
    std::cout << "[shape check] 4-thread speedup " << FormatDouble(speedup_4t, 2)
              << "x <= 1.5x on " << hw_threads << "-thread hardware\n";
    shape_ok = false;
  }
  std::cout << (shape_ok ? "[shape check] PASS\n" : "[shape check] FAIL\n");
  return shape_ok ? 0 : 1;
}
