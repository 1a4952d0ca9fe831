#include "serve/protocol.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/string_util.h"

namespace dwqa {
namespace serve {

namespace {

constexpr char kMagic[] = "DWQA1 ";
/// Longest frame header read: the magic plus the 20 digits of the largest
/// uint64 count, with room for leading zeros.
constexpr size_t kMaxHeaderBytes = 64;

/// Splits `body` into `key=value` header lines and the post-blank-line
/// payload. Lines without '=' before the blank line are reported invalid.
struct SplitBody {
  std::vector<std::pair<std::string, std::string>> headers;
  std::string payload;
};

Result<SplitBody> Split(const std::string& body) {
  SplitBody split;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    std::string line = eol == std::string::npos
                           ? body.substr(pos)
                           : body.substr(pos, eol - pos);
    pos = eol == std::string::npos ? body.size() : eol + 1;
    if (line.empty()) {
      // Blank separator: the rest is the payload, verbatim.
      split.payload = body.substr(pos);
      break;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("protocol: header line without '=': '" +
                                     line + "'");
    }
    split.headers.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return split;
}

Result<uint64_t> ParseU64(const std::string& value, const char* what) {
  if (value.empty()) {
    return Status::InvalidArgument(std::string("protocol: empty ") + what);
  }
  uint64_t out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string("protocol: bad ") + what +
                                     " '" + value + "'");
    }
    const uint64_t digit = uint64_t(c - '0');
    if (out > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      // Wrapping would read a huge count as a small one.
      return Status::InvalidArgument(std::string("protocol: ") + what +
                                     " '" + value + "' out of range");
    }
    out = out * 10 + digit;
  }
  return out;
}

}  // namespace

const char* EndpointName(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kAsk: return "ask";
    case Endpoint::kFeed: return "feed";
    case Endpoint::kBi: return "bi";
    case Endpoint::kIngest: return "ingest";
    case Endpoint::kHealth: return "health";
    case Endpoint::kMetrics: return "metrics";
  }
  return "unknown";
}

Result<Endpoint> ParseEndpoint(const std::string& name) {
  if (name == "ask") return Endpoint::kAsk;
  if (name == "feed") return Endpoint::kFeed;
  if (name == "bi") return Endpoint::kBi;
  if (name == "ingest") return Endpoint::kIngest;
  if (name == "health") return Endpoint::kHealth;
  if (name == "metrics") return Endpoint::kMetrics;
  return Status::InvalidArgument("protocol: unknown endpoint '" + name +
                                 "'");
}

const char* RejectKindName(RejectKind kind) {
  switch (kind) {
    case RejectKind::kOverloaded: return "Overloaded";
    case RejectKind::kDeadlineExceeded: return "DeadlineExceeded";
    case RejectKind::kCircuitOpen: return "CircuitOpen";
    case RejectKind::kDraining: return "Draining";
    case RejectKind::kUnknownTenant: return "UnknownTenant";
    case RejectKind::kBadRequest: return "BadRequest";
  }
  return "Unknown";
}

std::string Request::Serialize() const {
  std::ostringstream out;
  out << "endpoint=" << EndpointName(endpoint) << "\n";
  out << "id=" << id << "\n";
  if (!tenant.empty()) out << "tenant=" << tenant << "\n";
  if (budget > 0.0) {
    // Shortest fixed-point spelling that parses back to the same double
    // (Parse takes no exponent).
    char digits[400];
    auto written = std::to_chars(digits, digits + sizeof(digits), budget,
                                 std::chars_format::fixed);
    out << "budget=" << std::string_view(digits, written.ptr - digits)
        << "\n";
  }
  if (no_cache) out << "nocache=1\n";
  if (!scope.empty()) out << "scope=" << scope << "\n";
  if (fact_name != "Weather") out << "fact=" << fact_name << "\n";
  if (attribute != "temperature") out << "attribute=" << attribute << "\n";
  if (!doc_url.empty()) out << "url=" << doc_url << "\n";
  if (!doc_title.empty()) out << "title=" << doc_title << "\n";
  if (doc_format != "text") out << "format=" << doc_format << "\n";
  for (const auto& q : questions) out << "q=" << q << "\n";
  if (!doc_content.empty()) out << "\n" << doc_content;
  return out.str();
}

Result<Request> Request::Parse(const std::string& body) {
  DWQA_ASSIGN_OR_RETURN(SplitBody split, Split(body));
  Request req;
  bool saw_endpoint = false;
  for (const auto& [key, value] : split.headers) {
    if (key == "endpoint") {
      DWQA_ASSIGN_OR_RETURN(req.endpoint, ParseEndpoint(value));
      saw_endpoint = true;
    } else if (key == "id") {
      DWQA_ASSIGN_OR_RETURN(req.id, ParseU64(value, "id"));
    } else if (key == "tenant") {
      req.tenant = value;
    } else if (key == "budget") {
      if (!IsNumber(value)) {
        return Status::InvalidArgument("protocol: bad budget '" + value +
                                       "'");
      }
      req.budget = std::strtod(value.c_str(), nullptr);
      if (!std::isfinite(req.budget)) {
        return Status::InvalidArgument("protocol: budget '" + value +
                                       "' out of range");
      }
      if (!(req.budget >= 0.0)) {
        return Status::InvalidArgument("protocol: negative budget '" +
                                       value + "'");
      }
    } else if (key == "nocache") {
      req.no_cache = value == "1" || value == "true";
    } else if (key == "scope") {
      if (value != "local" && value != "federated") {
        return Status::InvalidArgument("protocol: unknown scope '" + value +
                                       "'");
      }
      req.scope = value;
    } else if (key == "fact") {
      req.fact_name = value;
    } else if (key == "attribute") {
      req.attribute = value;
    } else if (key == "url") {
      req.doc_url = value;
    } else if (key == "title") {
      req.doc_title = value;
    } else if (key == "format") {
      if (value != "text" && value != "html" && value != "xml") {
        return Status::InvalidArgument("protocol: unknown format '" + value +
                                       "'");
      }
      req.doc_format = value;
    } else if (key == "q") {
      req.questions.push_back(value);
    }
    // Unknown keys are skipped: older servers must tolerate newer clients.
  }
  if (!saw_endpoint) {
    return Status::InvalidArgument("protocol: request without endpoint=");
  }
  req.doc_content = split.payload;
  return req;
}

std::string Response::Serialize() const {
  std::ostringstream out;
  out << "id=" << id << "\n";
  out << "endpoint=" << endpoint << "\n";
  out << "status=" << status << "\n";
  out << "code=" << code << "\n";
  if (!reason.empty()) out << "reason=" << reason << "\n";
  if (cached) out << "cached=1\n";
  if (stale) out << "stale=1\n";
  out << AnswerBlock();
  if (!payload.empty()) out << "\n" << payload;
  return out.str();
}

std::string Response::AnswerBlock() const {
  std::string out;
  for (const auto& [key, value] : answer) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

std::string Response::AnswerField(const std::string& key) const {
  for (const auto& [k, v] : answer) {
    if (k == key) return v;
  }
  return "";
}

Result<Response> Response::Parse(const std::string& body) {
  DWQA_ASSIGN_OR_RETURN(SplitBody split, Split(body));
  Response resp;
  for (const auto& [key, value] : split.headers) {
    if (key == "id") {
      DWQA_ASSIGN_OR_RETURN(resp.id, ParseU64(value, "id"));
    } else if (key == "endpoint") {
      resp.endpoint = value;
    } else if (key == "status") {
      resp.status = value;
    } else if (key == "code") {
      resp.code = value;
    } else if (key == "reason") {
      resp.reason = value;
    } else if (key == "cached") {
      resp.cached = value == "1";
    } else if (key == "stale") {
      resp.stale = value == "1";
    } else {
      resp.answer.emplace_back(key, value);
    }
  }
  resp.payload = split.payload;
  return resp;
}

Status Framing::WriteFrame(std::ostream& out,
                           const std::string& body) const {
  out << kMagic << body.size() << "\n" << body;
  out.flush();
  if (!out) return Status::IOError("protocol: frame write failed");
  return Status::OK();
}

Result<std::string> Framing::ReadFrame(std::istream& in) const {
  std::string header;
  char c = 0;
  bool terminated = false;
  while (in.get(c)) {
    if (c == '\n') {
      terminated = true;
      break;
    }
    if (header.size() == kMaxHeaderBytes) {
      return Status::InvalidArgument("protocol: frame header longer than " +
                                     std::to_string(kMaxHeaderBytes) +
                                     " bytes");
    }
    header += c;
  }
  if (!terminated && header.empty()) {
    return Status::NotFound("protocol: end of stream");
  }
  if (!StartsWith(header, kMagic)) {
    return Status::InvalidArgument("protocol: bad frame magic '" + header +
                                   "'");
  }
  if (!terminated) {
    return Status::IOError("protocol: stream truncated mid-header '" +
                           header + "'");
  }
  DWQA_ASSIGN_OR_RETURN(uint64_t length,
                        ParseU64(header.substr(6), "frame length"));
  if (length > max_frame_bytes) {
    return Status::InvalidArgument(
        "protocol: frame of " + std::to_string(length) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte limit");
  }
  std::string body(length, '\0');
  in.read(body.data(), static_cast<std::streamsize>(length));
  if (static_cast<uint64_t>(in.gcount()) != length) {
    return Status::IOError("protocol: stream truncated mid-frame (wanted " +
                           std::to_string(length) + " bytes, got " +
                           std::to_string(in.gcount()) + ")");
  }
  return body;
}

std::string NormalizeQuestion(const std::string& question) {
  std::string lower = ToLower(question);
  std::string out;
  out.reserve(lower.size());
  bool pending_space = false;
  for (char c : lower) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  while (!out.empty()) {
    char back = out.back();
    if (back == '?' || back == '.' || back == '!' || back == ' ') {
      out.pop_back();
    } else {
      break;
    }
  }
  return out;
}

}  // namespace serve
}  // namespace dwqa
