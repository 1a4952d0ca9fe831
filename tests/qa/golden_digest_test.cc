// Golden answer digests: the perfbench ask pool (weather, airport-phrased
// and CLEF-style questions) over the full synthetic web, asked with the
// answer ladder off and on, must reproduce the checked-in digest of every
// AnswerSet field, every candidate's passage_text and the structured-fact
// CSV. A third mode, `unfiltered`, bypasses IR-n (use_ir_filter = false) so
// whole documents go through extraction; it covers a slice of the pool
// (the CLEF-style questions plus every tenth weather question) because each
// of its asks reads the entire corpus. The digests pin the answers
// themselves, so any rewrite of analysis, retrieval, extraction or ranking
// that changes a byte fails here.
//
// To re-record after an intentional answer change, run the test with
// DWQA_UPDATE_GOLDEN_DIGESTS=1 and commit the rewritten file.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "integration/last_minute_sales.h"
#include "integration/pipeline.h"
#include "qa/structured.h"
#include "tests/qa/answer_set_render.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace qa {
namespace {

using integration::IntegrationPipeline;
using integration::LastMinuteSales;

constexpr char kDigestFile[] = DWQA_TESTS_DIR "/qa/golden_digests.txt";

/// FNV-1a, 64-bit.
uint64_t Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The bytes a digest covers: the golden rendering, each candidate's
/// passage_text and the structured facts.
std::string Render(const AnswerSet& set) {
  std::string out = Serialize(set);
  for (const AnswerCandidate& a : set.answers) {
    out += "T|" + a.passage_text + "\n";
  }
  out += StructuredFactsToCsv(ToStructuredFacts(set, "temperature"));
  return out;
}

/// Every Full-rung answer's passage is one the set lists, and its sentence
/// lies in that passage: the source strings are filled after ranking, so a
/// wrong passage or sentence would otherwise go unnoticed (the digest's
/// `T|` lines only pin the text, not where it came from).
void ExpectFullAnswersCiteTheirPassage(const AnswerSet& set,
                                       const std::string& question) {
  for (const AnswerCandidate& a : set.answers) {
    if (a.level != DegradationLevel::kFull) continue;
    EXPECT_NE(std::find(set.passages.begin(), set.passages.end(),
                        a.passage_text),
              set.passages.end())
        << question << ": " << a.answer_text;
    EXPECT_FALSE(a.sentence.empty()) << question << ": " << a.answer_text;
    EXPECT_NE(a.passage_text.find(a.sentence), std::string::npos)
        << question << ": " << a.answer_text;
  }
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// One line per (mode, question): "<mode> <digest> <question>".
struct GoldenLine {
  std::string mode;
  std::string digest;
  std::string question;
  /// Full rendering, printed on a mismatch.
  std::string rendering;
};

std::string Format(const GoldenLine& line) {
  return line.mode + " " + line.digest + " " + line.question;
}

TEST(GoldenDigestTest, PerfbenchAskPoolMatchesRecordedDigests) {
  // The perfbench fixture's corpus: every city x 12 months plus 40
  // distractor pages, Steps 1-4 over the Last Minute Sales scenario.
  web::WebConfig web_config;
  web_config.year = 2004;
  web_config.months = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  web_config.noise_pages = 40;
  web::SyntheticWeb web = web::SyntheticWeb::Build(web_config).ValueOrDie();

  std::vector<web::GoldQuestion> pool =
      web::QuestionFactory::WeatherQuestions(web);
  std::vector<web::GoldQuestion> unfiltered_pool =
      web::QuestionFactory::ClefStyleQuestions();
  for (size_t i = 0; i < pool.size(); i += 10) {
    unfiltered_pool.push_back(pool[i]);
  }
  std::vector<std::pair<std::string, std::string>> airport_of_city;
  for (const auto& airport : LastMinuteSales::Airports()) {
    airport_of_city.push_back({ToLower(airport.city), airport.name});
  }
  for (web::GoldQuestion& q :
       web::QuestionFactory::AirportWeatherQuestions(web, airport_of_city)) {
    pool.push_back(std::move(q));
  }
  for (web::GoldQuestion& q : web::QuestionFactory::ClefStyleQuestions()) {
    pool.push_back(std::move(q));
  }

  struct Mode {
    const char* name;
    bool ladder;
    bool ir_filter;
    const std::vector<web::GoldQuestion>* questions;
  };
  const Mode modes[] = {{"plain", false, true, &pool},
                        {"ladder", true, true, &pool},
                        {"unfiltered", false, false, &unfiltered_pool}};

  ontology::UmlModel uml = LastMinuteSales::MakeUmlModel();
  std::vector<GoldenLine> actual;
  for (const Mode& mode : modes) {
    dw::Warehouse wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
    integration::PipelineConfig config =
        LastMinuteSales::DefaultPipelineConfig();
    config.qa.degradation.enable_relaxed = mode.ladder;
    config.qa.degradation.enable_ir_only = mode.ladder;
    config.qa.use_ir_filter = mode.ir_filter;
    IntegrationPipeline pipeline(&wh, &uml, config);
    ASSERT_TRUE(pipeline.RunAll(&web.documents()).ok());
    for (const web::GoldQuestion& gq : *mode.questions) {
      Result<AnswerSet> set = pipeline.aliqan()->Ask(gq.question);
      if (set.ok()) ExpectFullAnswersCiteTheirPassage(*set, gq.question);
      GoldenLine line;
      line.mode = mode.name;
      line.question = gq.question;
      line.rendering = set.ok() ? Render(*set) : set.status().ToString();
      line.digest = Hex(Digest(line.rendering));
      actual.push_back(std::move(line));
    }
  }

  if (std::getenv("DWQA_UPDATE_GOLDEN_DIGESTS") != nullptr) {
    std::ofstream out(kDigestFile);
    out << "# Golden answer digests (tests/qa/golden_digest_test.cc): "
           "<mode> <fnv1a-64> <question>\n";
    for (const GoldenLine& line : actual) out << Format(line) << "\n";
    ASSERT_TRUE(out.good()) << kDigestFile;
    GTEST_SKIP() << "re-recorded " << actual.size() << " digests";
  }

  std::ifstream in(kDigestFile);
  ASSERT_TRUE(in.good()) << "missing " << kDigestFile;
  std::vector<std::string> expected;
  for (std::string l; std::getline(in, l);) {
    if (!l.empty() && l[0] != '#') expected.push_back(l);
  }
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(Format(actual[i]), expected[i])
        << "rendering:\n" << actual[i].rendering;
  }
}

}  // namespace
}  // namespace qa
}  // namespace dwqa
