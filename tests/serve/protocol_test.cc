// Wire-format tests: framing, request/response round-trips, the
// question normalization behind the answer-cache key, and a seeded
// mutation fuzzer over whole DWQA1 frames.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace dwqa {
namespace serve {
namespace {

TEST(EndpointTest, NamesRoundTrip) {
  for (Endpoint endpoint :
       {Endpoint::kAsk, Endpoint::kFeed, Endpoint::kBi, Endpoint::kIngest,
        Endpoint::kHealth, Endpoint::kMetrics}) {
    auto parsed = ParseEndpoint(EndpointName(endpoint));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, endpoint);
  }
  EXPECT_FALSE(ParseEndpoint("teleport").ok());
  EXPECT_FALSE(ParseEndpoint("").ok());
}

TEST(RequestTest, SerializeParseRoundTrip) {
  Request req;
  req.id = 7;
  req.tenant = "acme";
  req.endpoint = Endpoint::kAsk;
  req.questions = {"What is the temperature in Madrid?"};
  req.budget = 12.5;
  req.no_cache = true;
  auto parsed = Request::Parse(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->id, 7u);
  EXPECT_EQ(parsed->tenant, "acme");
  EXPECT_EQ(parsed->endpoint, Endpoint::kAsk);
  ASSERT_EQ(parsed->questions.size(), 1u);
  EXPECT_EQ(parsed->questions[0], "What is the temperature in Madrid?");
  EXPECT_DOUBLE_EQ(parsed->budget, 12.5);
  EXPECT_TRUE(parsed->no_cache);
  EXPECT_EQ(parsed->fact_name, "Weather");
  EXPECT_EQ(parsed->attribute, "temperature");
}

TEST(RequestTest, FeedCarriesSeveralQuestionsAndFactTarget) {
  Request req;
  req.id = 1;
  req.tenant = "acme";
  req.endpoint = Endpoint::kFeed;
  req.fact_name = "Prices";
  req.attribute = "price";
  req.questions = {"q one", "q two", "q three"};
  auto parsed = Request::Parse(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->endpoint, Endpoint::kFeed);
  EXPECT_EQ(parsed->fact_name, "Prices");
  EXPECT_EQ(parsed->attribute, "price");
  EXPECT_EQ(parsed->questions,
            (std::vector<std::string>{"q one", "q two", "q three"}));
}

TEST(RequestTest, IngestRoundTripsHeadersAndPayloadContent) {
  Request req;
  req.id = 11;
  req.tenant = "acme";
  req.endpoint = Endpoint::kIngest;
  req.doc_url = "http://example.test/new-page";
  req.doc_title = "A new page";
  req.doc_format = "html";
  // Content travels in the payload section, so newlines and '=' survive.
  req.doc_content = "<html>line one\nkey = value\n</html>\n";
  auto parsed = Request::Parse(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->endpoint, Endpoint::kIngest);
  EXPECT_EQ(parsed->tenant, "acme");
  EXPECT_EQ(parsed->doc_url, "http://example.test/new-page");
  EXPECT_EQ(parsed->doc_title, "A new page");
  EXPECT_EQ(parsed->doc_format, "html");
  EXPECT_EQ(parsed->doc_content, req.doc_content);
}

TEST(RequestTest, IngestRejectsUnknownDocumentFormat) {
  auto parsed = Request::Parse("endpoint=ingest\nid=1\nformat=pdf\n\nbody");
  ASSERT_FALSE(parsed.ok());
  // The request-shape validation error names the offending value — the
  // message examples/serve and docs/SERVING.md point callers at.
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_NE(parsed.status().message().find("protocol: unknown format 'pdf'"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(RequestTest, BiScopeRoundTripsAndRejectsUnknownValues) {
  Request req;
  req.id = 21;
  req.tenant = "acme";
  req.endpoint = Endpoint::kBi;
  req.scope = "federated";
  auto parsed = Request::Parse(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->endpoint, Endpoint::kBi);
  EXPECT_EQ(parsed->scope, "federated");

  // "local" and an absent scope both parse (and mean the same thing).
  auto local = Request::Parse("endpoint=bi\nid=1\nscope=local\n");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->scope, "local");
  auto none = Request::Parse("endpoint=bi\nid=1\n");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->scope.empty());

  auto bad = Request::Parse("endpoint=bi\nid=1\nscope=galactic\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("protocol: unknown scope 'galactic'"),
            std::string::npos)
      << bad.status().ToString();
}

TEST(RequestTest, RejectsMalformedBodies) {
  // No endpoint at all.
  EXPECT_FALSE(Request::Parse("id=1\n").ok());
  // Unknown endpoint.
  EXPECT_FALSE(Request::Parse("endpoint=warp\nid=1\n").ok());
  // Non-numeric id.
  EXPECT_FALSE(Request::Parse("endpoint=ask\nid=abc\n").ok());
  // Non-numeric budget.
  EXPECT_FALSE(Request::Parse("endpoint=ask\nid=1\nbudget=lots\n").ok());
  // Header line without '='.
  EXPECT_FALSE(Request::Parse("endpoint=ask\nbare line\n").ok());
}

TEST(RequestTest, IgnoresUnknownKeysForForwardCompatibility) {
  auto parsed =
      Request::Parse("endpoint=ask\nid=3\nshiny_new_option=yes\nq=hi\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->id, 3u);
  ASSERT_EQ(parsed->questions.size(), 1u);
}

TEST(ResponseTest, SerializeParseRoundTripWithAnswerAndPayload) {
  Response resp;
  resp.id = 9;
  resp.endpoint = "ask";
  resp.status = "ok";
  resp.code = "OK";
  resp.cached = true;
  resp.stale = true;
  resp.answer = {{"degradation", "Full"}, {"answered", "1"},
                 {"answer", "8\xC2\xBA\x43"}};
  resp.payload = "line one\nline two\n";
  const std::string body = resp.Serialize();
  auto parsed = Response::Parse(body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->id, 9u);
  EXPECT_EQ(parsed->status, "ok");
  EXPECT_TRUE(parsed->cached);
  EXPECT_TRUE(parsed->stale);
  EXPECT_EQ(parsed->AnswerField("degradation"), "Full");
  EXPECT_EQ(parsed->AnswerField("answer"), "8\xC2\xBA\x43");
  EXPECT_EQ(parsed->AnswerField("missing"), "");
  EXPECT_EQ(parsed->payload, "line one\nline two\n");
  // Re-serializing the parse reproduces the body byte for byte.
  EXPECT_EQ(parsed->Serialize(), body);
}

TEST(ResponseTest, AnswerBlockIsTheCacheUnit) {
  Response resp;
  resp.answer = {{"a", "1"}, {"b", "two"}};
  EXPECT_EQ(resp.AnswerBlock(), "a=1\nb=two\n");
}

TEST(FramingTest, WriteReadRoundTrip) {
  Framing framing;
  std::stringstream stream;
  ASSERT_TRUE(framing.WriteFrame(stream, "endpoint=ask\nid=1\n").ok());
  ASSERT_TRUE(framing.WriteFrame(stream, "second body").ok());
  auto first = framing.ReadFrame(stream);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "endpoint=ask\nid=1\n");
  auto second = framing.ReadFrame(stream);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "second body");
  // Clean EOF is NotFound, distinguishable from a corrupt stream.
  EXPECT_TRUE(framing.ReadFrame(stream).status().IsNotFound());
}

TEST(FramingTest, RejectsBadMagicOversizeAndTruncation) {
  Framing framing;
  framing.max_frame_bytes = 16;

  std::stringstream bad_magic("HTTP/1.1 200 OK\n");
  EXPECT_TRUE(
      framing.ReadFrame(bad_magic).status().IsInvalidArgument());

  std::stringstream oversize("DWQA1 1024\n");
  EXPECT_TRUE(framing.ReadFrame(oversize).status().IsInvalidArgument());

  std::stringstream truncated("DWQA1 10\nabc");
  EXPECT_TRUE(framing.ReadFrame(truncated).status().IsIOError());

  std::stringstream bad_length("DWQA1 ten\n");
  EXPECT_TRUE(
      framing.ReadFrame(bad_length).status().IsInvalidArgument());
}

TEST(FramingTest, RejectsWrappedCountsAndUnterminatedHeaders) {
  // Found by the frame fuzzer below: 2^64 + 16 used to wrap to 16 and
  // frame a 16-byte body, and a header cut before its newline read as a
  // complete empty frame.
  Framing framing;
  std::stringstream wrapped("DWQA1 18446744073709551632\nendpoint=health\n");
  EXPECT_TRUE(framing.ReadFrame(wrapped).status().IsInvalidArgument());
  std::stringstream unterminated("DWQA1 0");
  EXPECT_TRUE(framing.ReadFrame(unterminated).status().IsIOError());
  // The header is bounded like the body: a line that never ends is not
  // buffered whole.
  std::stringstream endless("DWQA1 " + std::string(100'000, '0'));
  EXPECT_TRUE(framing.ReadFrame(endless).status().IsInvalidArgument());
  EXPECT_FALSE(Request::Parse("endpoint=ask\nid=18446744073709551616\n").ok());
}

TEST(RequestTest, BudgetRoundTripsExactlyAndMustBeFinite) {
  Request req;
  req.budget = 0.1234567890123;
  auto parsed = Request::Parse(req.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->budget, req.budget);
  auto huge = Request::Parse("endpoint=ask\nbudget=1" + std::string(400, '0') +
                             "\n");
  EXPECT_TRUE(huge.status().IsInvalidArgument());
}

TEST(NormalizeQuestionTest, CollapsesCaseWhitespaceAndPunctuation) {
  EXPECT_EQ(NormalizeQuestion("What is  the temperature in Madrid?"),
            "what is the temperature in madrid");
  EXPECT_EQ(NormalizeQuestion("  what IS the\ttemperature in MADRID ?! "),
            "what is the temperature in madrid");
  // Different questions stay different.
  EXPECT_NE(NormalizeQuestion("temperature in Madrid"),
            NormalizeQuestion("temperature in Barcelona"));
  EXPECT_EQ(NormalizeQuestion("???"), "");
}

// --- DWQA1 frame fuzzer -----------------------------------------------------

/// Valid request and response frames the fuzzer starts from.
std::vector<std::string> SeedFrames() {
  std::vector<std::string> bodies;
  Request ask;
  ask.id = 42;
  ask.tenant = "acme";
  ask.questions = {"What is the temperature in Madrid in January of 2004?"};
  ask.budget = 12.5;
  ask.no_cache = true;
  bodies.push_back(ask.Serialize());
  Request feed;
  feed.id = 7;
  feed.tenant = "acme";
  feed.endpoint = Endpoint::kFeed;
  feed.fact_name = "Prices";
  feed.attribute = "price";
  feed.questions = {"q one", "q two"};
  bodies.push_back(feed.Serialize());
  Request ingest;
  ingest.id = 3;
  ingest.tenant = "acme";
  ingest.endpoint = Endpoint::kIngest;
  ingest.doc_url = "http://example.test/page";
  ingest.doc_title = "A page";
  ingest.doc_format = "html";
  ingest.doc_content = "<p>El Prat airport is in Barcelona.</p>\nx=y\n";
  bodies.push_back(ingest.Serialize());
  Request bi;
  bi.id = 9;
  bi.tenant = "acme";
  bi.endpoint = Endpoint::kBi;
  bi.scope = "federated";
  bodies.push_back(bi.Serialize());
  Response answer;
  answer.id = 42;
  answer.endpoint = "ask";
  answer.status = "ok";
  answer.code = "OK";
  answer.cached = true;
  answer.answer = {{"degradation", "Full"}, {"answered", "1"},
                   {"answer", "8\xC2\xBA\x43"}, {"score", "0.9000"}};
  bodies.push_back(answer.Serialize());
  Response health;
  health.id = 1;
  health.endpoint = "health";
  health.status = "ok";
  health.code = "OK";
  health.answer = {{"draining", "0"}, {"tick", "17"}};
  health.payload = "tenant acme: generation=3 cache_entries=2\n";
  bodies.push_back(health.Serialize());
  Response shed;
  shed.id = 5;
  shed.endpoint = "ask";
  shed.status = "rejected";
  shed.code = "Overloaded";
  shed.reason = "queue_full";
  bodies.push_back(shed.Serialize());

  std::vector<std::string> frames;
  for (const std::string& body : bodies) {
    frames.push_back("DWQA1 " + std::to_string(body.size()) + "\n" + body);
  }
  return frames;
}

/// One edit of a frame: a truncation, a byte flip, an inserted or deleted
/// byte, a forged byte count (oversized, negative, overflowing, padded or
/// not a number) or a spliced header line.
void MutateFrame(Rng* rng, std::string* frame) {
  static const char* kCounts[] = {
      "0", "1", "-1", "-42", "4096", "99999999", "18446744073709551615",
      "18446744073709551616", "18446744073709551632",
      "36893488147419103232", "999999999999999999999999999999", "+5",
      " 5", "5 ", "0x10", "", "007"};
  static const char* kLines[] = {
      "id=18446744073709551616\n", "id=-1\n",        "budget=-1\n",
      "budget=1e999\n",            "budget=nan\n",   "budget=.5\n",
      "budget=0.1234567890123\n",  "endpoint=\n",    "endpoint=warp\n",
      "scope=x\n",                 "format=pdf\n",   "nocache=1\n",
      "=\n",                       "q=\n",           "no equals sign\n",
      "\n",                        "cached=1\n",     "status=ok\n",
      "\r\n"};
  const size_t size = frame->size();
  switch (rng->NextBelow(6)) {
    case 0:  // Truncate.
      frame->resize(rng->NextBelow(size + 1));
      break;
    case 1:  // Flip a byte to any value.
      if (size > 0) {
        (*frame)[rng->NextIndex(size)] = static_cast<char>(rng->Next());
      }
      break;
    case 2: {  // Insert a byte from the grammar's alphabet.
      static const char kAlphabet[] = "\n=-+.0123456789 \r\0\xff";
      frame->insert(frame->begin() + rng->NextBelow(size + 1),
                    kAlphabet[rng->NextIndex(sizeof(kAlphabet) - 1)]);
      break;
    }
    case 3:  // Delete a byte.
      if (size > 0) frame->erase(rng->NextIndex(size), 1);
      break;
    case 4: {  // Forge the byte count.
      size_t start = frame->rfind("DWQA1 ", 0) == 0 ? 6 : 0;
      size_t eol = frame->find('\n', start);
      if (eol == std::string::npos) eol = frame->size();
      frame->replace(start, eol - start,
                     kCounts[rng->NextIndex(std::size(kCounts))]);
      break;
    }
    default: {  // Splice a header line in at a line start.
      size_t at = 0;
      for (size_t i = 0; i < size; ++i) {
        if ((*frame)[i] == '\n' && rng->NextBool(0.3)) {
          at = i + 1;
          break;
        }
      }
      frame->insert(at, kLines[rng->NextIndex(std::size(kLines))]);
      break;
    }
  }
}

/// True when `digits` is the decimal spelling of `value` (leading zeros
/// allowed) — checked on the text, so it holds for counts past 2^64 too.
bool SpellsCount(std::string digits, size_t value) {
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  size_t first = digits.find_first_not_of('0');
  digits = first == std::string::npos ? "0" : digits.substr(first);
  return digits == std::to_string(value);
}

/// A parsed request survives Serialize → Parse unchanged.
void ExpectRequestFixedPoint(const Request& request) {
  const std::string text = request.Serialize();
  auto again = Request::Parse(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
  EXPECT_EQ(again->Serialize(), text);
  EXPECT_EQ(again->budget, request.budget) << text;
}

/// A parsed response survives Serialize → Parse byte for byte.
void ExpectResponseFixedPoint(const Response& response) {
  const std::string text = response.Serialize();
  auto again = Response::Parse(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
  EXPECT_EQ(again->Serialize(), text);
}

// Frame fuzz: a mutated frame is read to a body whose length is exactly
// the declared count (within the cap), or refused with a typed error. A
// body that parses re-serializes to a fixed point; one that does not is
// refused as InvalidArgument. Never a crash, never an untyped error.
TEST(ProtocolFuzzProperty, MutatedFramesReadAndParseOrFailTyped) {
  Framing framing;
  framing.max_frame_bytes = 512;
  const std::vector<std::string> seeds = SeedFrames();
  Rng rng(20);
  size_t read_ok = 0;
  size_t requests_ok = 0;
  size_t responses_ok = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    std::string frame = seeds[rng.NextIndex(seeds.size())];
    const size_t edits = 1 + rng.NextBelow(4);
    for (size_t e = 0; e < edits; ++e) MutateFrame(&rng, &frame);
    SCOPED_TRACE("trial " + std::to_string(trial));

    std::istringstream in(frame);
    Result<std::string> body = framing.ReadFrame(in);
    if (!body.ok()) {
      const Status& status = body.status();
      EXPECT_TRUE(status.IsNotFound() || status.IsInvalidArgument() ||
                  status.IsIOError())
          << status.ToString();
      continue;
    }
    ++read_ok;
    const size_t eol = frame.find('\n');
    ASSERT_NE(eol, std::string::npos);
    EXPECT_TRUE(SpellsCount(frame.substr(6, eol - 6), body->size()))
        << "declared '" << frame.substr(6, eol - 6) << "', read "
        << body->size() << " bytes";
    EXPECT_LE(body->size(), framing.max_frame_bytes);

    auto request = Request::Parse(*body);
    if (request.ok()) {
      ++requests_ok;
      ExpectRequestFixedPoint(*request);
    } else {
      EXPECT_TRUE(request.status().IsInvalidArgument())
          << request.status().ToString();
    }
    auto response = Response::Parse(*body);
    if (response.ok()) {
      ++responses_ok;
      ExpectResponseFixedPoint(*response);
    } else {
      EXPECT_TRUE(response.status().IsInvalidArgument())
          << response.status().ToString();
    }
  }
  // The mutations keep enough frames intact to exercise the parsers.
  EXPECT_GT(read_ok, 1000u);
  EXPECT_GT(requests_ok, 300u);
  EXPECT_GT(responses_ok, 300u);
}

}  // namespace
}  // namespace serve
}  // namespace dwqa
