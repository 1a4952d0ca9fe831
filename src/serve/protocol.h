#ifndef DWQA_SERVE_PROTOCOL_H_
#define DWQA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dwqa {
namespace serve {

/// \file protocol.h
/// \brief Wire format of the QA-as-a-service front-end: a framed,
/// length-prefixed request/response protocol over any byte stream
/// (stdin/stdout, a local socket, a test stringstream).
///
/// Frame:      `DWQA1 <decimal byte count>\n<body>`
/// Body:       header lines `key=value\n`, then an optional blank line
///             followed by a free-text payload (metrics/health/BI tables).
///
/// The body is line-oriented on purpose: the repo has no JSON parser, and
/// a `key=value` header block keeps both sides greppable and diffable in
/// golden tests. Values must not contain newlines; multi-line content
/// travels in the payload section.

/// \brief The six endpoints of the serving layer.
enum class Endpoint {
  kAsk,      ///< One question against the tenant's QA engine.
  kFeed,     ///< A Step-5 feed batch (questions → facts → warehouse).
  kBi,       ///< The sales-vs-weather BI analysis over the tenant's DW.
  kIngest,   ///< Appends one document to the tenant's corpus and indexes
             ///< it incrementally (segmented-index append, no rebuild).
  kHealth,   ///< Server-level health (never admission-controlled).
  kMetrics,  ///< Prometheus export (never admission-controlled).
};

/// "ask", "feed", "bi", "ingest", "health", "metrics" — the wire names.
const char* EndpointName(Endpoint endpoint);

/// Parses a wire name; InvalidArgument on an unknown endpoint.
Result<Endpoint> ParseEndpoint(const std::string& name);

/// \brief Why a request was turned away without being executed. These are
/// the typed rejections the load bench asserts on: a client can always
/// distinguish "the server is protecting itself" (kOverloaded — back off),
/// "your budget ran out" (kDeadlineExceeded — maybe retry with more) and
/// "the backend is tripping" (kCircuitOpen — come back after the
/// cool-down) from a real failure.
enum class RejectKind {
  kOverloaded,        ///< Queue depth / cost budget / rate / concurrency.
  kDeadlineExceeded,  ///< The per-request deadline budget ran out.
  kCircuitOpen,       ///< Fast-fail: the tenant's breaker is not closed.
  kDraining,          ///< The server is shutting down gracefully.
  kUnknownTenant,     ///< No tenant registered under that name.
  kBadRequest,        ///< The frame parsed but the request is malformed.
};

/// "Overloaded", "DeadlineExceeded", "CircuitOpen", "Draining",
/// "UnknownTenant", "BadRequest" — stable names for the `code=` field.
const char* RejectKindName(RejectKind kind);

/// \brief One parsed client request.
struct Request {
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t id = 0;
  /// Tenant whose pipeline serves the request ("" is rejected except for
  /// health/metrics, which report across tenants).
  std::string tenant;
  Endpoint endpoint = Endpoint::kAsk;
  /// Questions: exactly one for `ask`, one or more for `feed`.
  std::vector<std::string> questions;
  /// Feed target fact table (default "Weather").
  std::string fact_name = "Weather";
  /// Feed/ask attribute (default "temperature").
  std::string attribute = "temperature";
  /// Per-request deadline budget in cost units; <= 0 means unlimited.
  /// Threaded into the QA engine's Deadline ledger so a slow request sheds
  /// via the degradation ladder instead of stalling a worker.
  double budget = 0.0;
  /// When true the answer cache is bypassed (live-fresh, Snippet-1 "direct
  /// mode"); default is cached-fast.
  bool no_cache = false;
  /// Warehouse scope of a `bi` request (`scope=` header): "" or "local"
  /// answers from the tenant's own warehouse; "federated" fans the analysis
  /// out across the tenant's federation (rejected as BadRequest when the
  /// tenant has none). Any other value fails Parse.
  std::string scope;
  /// \name Ingest document (`ingest` endpoint only)
  /// @{
  /// Source URL (`url=` header; may be empty).
  std::string doc_url;
  /// Document title (`title=` header; may be empty).
  std::string doc_title;
  /// "text" | "html" | "xml" (`format=` header; default "text").
  std::string doc_format = "text";
  /// Raw document content. Travels in the payload section (after the blank
  /// line) because header values cannot contain newlines.
  std::string doc_content;
  /// @}

  /// Renders the `key=value` body (not the frame).
  std::string Serialize() const;
  /// Parses a request body. InvalidArgument on unknown endpoint, bad id,
  /// or a bad budget; unknown keys are ignored (forward compatibility).
  static Result<Request> Parse(const std::string& body);
};

/// \brief One server response.
///
/// `answer` carries the deterministic answer fields (degradation level,
/// text, value, unit, location, date, url, score) as ordered pairs — the
/// cache stores exactly this block, which is what makes "cache hit is
/// byte-identical to the cold path" testable.
struct Response {
  uint64_t id = 0;
  std::string endpoint;
  /// "ok" | "rejected" | "error" — every request ends in exactly one.
  std::string status;
  /// Machine-readable code: "OK" for ok, a RejectKindName for rejected,
  /// a StatusCode name for error.
  std::string code;
  /// Admission-control detail for rejections ("queue_full", "rate_limited",
  /// ...), empty otherwise.
  std::string reason;
  /// The answer was served from the cache (fresh or stale).
  bool cached = false;
  /// The cached answer had outlived its TTL (stale-while-degraded serve).
  bool stale = false;
  /// Deterministic answer fields, in serialization order.
  std::vector<std::pair<std::string, std::string>> answer;
  /// Free-text payload after the blank line (metrics, health, BI report).
  std::string payload;

  /// Renders the body (headers, answer block, optional payload).
  std::string Serialize() const;
  /// Parses a response body; unknown header keys land in `answer` in
  /// arrival order, so Serialize(Parse(x)) == x for well-formed bodies.
  static Result<Response> Parse(const std::string& body);

  /// The serialized answer block alone ("" when no answer) — the unit of
  /// cache storage and of the byte-equivalence tests.
  std::string AnswerBlock() const;
  /// First answer field with key `key` ("" when absent).
  std::string AnswerField(const std::string& key) const;
};

/// \brief Frame reader/writer over std::istream/std::ostream.
///
/// `max_frame_bytes` bounds untrusted input: an oversize declared length
/// fails the read instead of allocating it.
struct Framing {
  size_t max_frame_bytes = 1 << 20;

  /// Writes `body` as one frame and flushes.
  Status WriteFrame(std::ostream& out, const std::string& body) const;

  /// Reads one frame body. NotFound on clean EOF before a frame started,
  /// InvalidArgument on a malformed header or oversize length, IOError on
  /// a stream truncated mid-body.
  Result<std::string> ReadFrame(std::istream& in) const;
};

/// Normalizes a question into its answer-cache key: lowercased, whitespace
/// collapsed, leading/trailing space and trailing `?`/`.`/`!` stripped —
/// "What is  the temperature in Madrid?" and "what is the temperature in
/// madrid" share one cache entry.
std::string NormalizeQuestion(const std::string& question);

}  // namespace serve
}  // namespace dwqa

#endif  // DWQA_SERVE_PROTOCOL_H_
