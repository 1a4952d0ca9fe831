#ifndef DWQA_BENCH_BENCH_JSON_H_
#define DWQA_BENCH_BENCH_JSON_H_

// Shared bench-JSON reporter: every bench that wants its numbers in the
// CI artifact appends a section through a JsonSectionWriter, and the merged
// result lands at $DWQA_BENCH_JSON (default ./BENCH_phase3.json).
//
// Benches run as independent processes (scripts/check.sh loops over
// build/bench/*), so the merge cannot happen in one process. Instead each
// writer stages its section as <dest>.d/<bench>.json and then rewrites the
// destination from *all* staged sections via a tmp-file + rename — the
// destination is always a complete, valid JSON document no matter which
// subset of benches has run, and re-running a bench replaces only its own
// section. The document also records the host that merged it last (nproc,
// build type, compiler), so a comparison can tell when two artifacts come
// from different machines.

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

// The build's CMAKE_BUILD_TYPE and compiler, set by bench/targets.cmake.
#ifndef DWQA_BENCH_BUILD_TYPE
#define DWQA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DWQA_BENCH_COMPILER
#define DWQA_BENCH_COMPILER "unknown"
#endif

namespace dwqa {
namespace bench {

/// JSON string escaping for metric names (quotes, backslashes, control
/// characters — bench names are ASCII but the writer does not assume it).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The `"host"` member of the artifact: online CPUs, build type and
/// compiler of this binary.
inline std::string HostJson() {
  std::string build_type = DWQA_BENCH_BUILD_TYPE;
  if (build_type.empty()) build_type = "unknown";
  std::ostringstream out;
  out << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"build_type\": \"" << JsonEscape(build_type)
      << "\", \"compiler\": \"" << JsonEscape(DWQA_BENCH_COMPILER) << "\"}";
  return out.str();
}

/// The destination path: $DWQA_BENCH_JSON or ./BENCH_phase3.json.
inline std::string BenchJsonPath() {
  const char* env = std::getenv("DWQA_BENCH_JSON");
  return (env != nullptr && env[0] != '\0') ? env : "BENCH_phase3.json";
}

/// \brief Collects one bench's metrics and merges them into the shared
/// JSON artifact on Flush().
class JsonSectionWriter {
 public:
  explicit JsonSectionWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Records one scalar. `unit` is informational ("ms", "q/s", "x", "");
  /// non-finite values are recorded as null.
  void Add(const std::string& metric, double value,
           const std::string& unit = "") {
    std::ostringstream row;
    row.precision(6);
    row << std::fixed;
    row << "      \"" << JsonEscape(metric) << "\": {\"value\": ";
    if (std::isfinite(value)) {
      row << value;
    } else {
      row << "null";
    }
    row << ", \"unit\": \"" << JsonEscape(unit) << "\"}";
    rows_.push_back(row.str());
  }

  /// Stages this bench's section and rewrites the merged artifact.
  /// Returns false (after a stderr note) when the filesystem refuses.
  bool Flush() const {
    const std::string dest = BenchJsonPath();
    const std::string staging = dest + ".d";
    ::mkdir(staging.c_str(), 0755);
    {
      std::ofstream section(staging + "/" + bench_name_ + ".json");
      if (!section) {
        std::fprintf(stderr, "bench_json: cannot stage %s\n",
                     bench_name_.c_str());
        return false;
      }
      section << "    \"" << JsonEscape(bench_name_) << "\": {\n";
      for (size_t i = 0; i < rows_.size(); ++i) {
        section << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
      }
      section << "    }";
    }
    return Merge(staging, dest);
  }

 private:
  /// Concatenates every staged section into `dest` atomically.
  static bool Merge(const std::string& staging, const std::string& dest) {
    std::vector<std::string> sections;
    DIR* dir = ::opendir(staging.c_str());
    if (dir == nullptr) return false;
    while (dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (name.size() > 5 && name.rfind(".json") == name.size() - 5) {
        sections.push_back(name);
      }
    }
    ::closedir(dir);
    std::sort(sections.begin(), sections.end());
    // One tmp file per process: under `ctest -j` several smokes merge into
    // `dest` at once, and a shared tmp name lets one rename another's file.
    const std::string tmp = dest + ".tmp." + std::to_string(::getpid());
    {
      std::ofstream out(tmp);
      if (!out) return false;
      out << "{\n  \"schema\": \"dwqa-bench-v1\",\n  \"host\": " << HostJson()
          << ",\n  \"benchmarks\": {\n";
      for (size_t i = 0; i < sections.size(); ++i) {
        std::ifstream in(staging + "/" + sections[i]);
        out << in.rdbuf() << (i + 1 < sections.size() ? ",\n" : "\n");
      }
      out << "  }\n}\n";
    }
    if (std::rename(tmp.c_str(), dest.c_str()) != 0) {
      std::fprintf(stderr, "bench_json: cannot rename %s\n", tmp.c_str());
      return false;
    }
    return true;
  }

  std::string bench_name_;
  std::vector<std::string> rows_;
};

}  // namespace bench
}  // namespace dwqa

#endif  // DWQA_BENCH_BENCH_JSON_H_
