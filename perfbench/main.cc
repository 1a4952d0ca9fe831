// dwqa end-to-end benchmark: the dwqa_perfbench binary.
//
//   dwqa_perfbench --workload ask_live|feed_bi|serve_mix --seed N
//                  --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 sets up the workload five times (setup_s is the median), runs
// its closed-loop clients for S seconds (feed_bi: through its fixed plan)
// against QaServer::Handle, checks every output, and prints the end-to-end
// metrics, every timing scaled to a reference host by the HostProbe passes
// run beside it. --trace 1 runs the single-client traced run and prints
// the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 when any
// output check fails.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "common/string_util.h"
#include "perfbench.h"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Probe passes right before and right after each set-up.
constexpr int kSetupProbes = 5;
/// feed_bi tenants, each fed its 108 questions once: a fixed plan of
/// 8 x 136 requests (about 10 s at reference speed), so that p99_ms has ten
/// samples beyond it. The traced run feeds half as many.
constexpr size_t kFedTenants = 8;
constexpr size_t kTracedFedTenants = 4;
/// Tail percentile reported as p99_ms.
constexpr double kTail = 0.99;

struct Args {
  Workload workload = Workload::kAskLive;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-run";
};

bool ParseArgs(int argc, char** argv, Args* args) try {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0.0;
} catch (const std::exception&) {  // a malformed number
  return false;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A metric value with every digit it has.
std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json << ", ";
    json << "\"" << metrics[i].name << "\": {\"value\": "
         << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

FixtureSpec SpecFor(const Args& args, const std::string& wal_root) {
  FixtureSpec spec;
  spec.workload = args.workload;
  spec.wal_root = wal_root;
  if (args.workload == Workload::kFeedBi) {
    spec.fed_tenants = args.trace ? kTracedFedTenants : kFedTenants;
  }
  return spec;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// The run's wall time at the reference host's speed, over the clients:
/// each window of a client scaled by its factor, without the time the
/// client spent probing in it.
double ScaledSeconds(const RunLog& log,
                     const std::vector<std::vector<double>>& factors) {
  double total = 0.0;
  for (size_t c = 0; c < factors.size(); ++c) {
    std::vector<double> probe_s(factors[c].size(), 0.0);
    for (const ProbeSample& p : log.probes) {
      if (p.client == c && p.window < probe_s.size()) {
        probe_s[p.window] += p.ms / 1000.0;
      }
    }
    for (size_t w = 0; w < factors[c].size(); ++w) {
      const double begin = static_cast<double>(w) * kProbeWindowS;
      const double length =
          std::clamp(log.elapsed_s - begin, 0.0, kProbeWindowS);
      total += (length - probe_s[w]) / factors[c][w];
    }
  }
  return total / static_cast<double>(factors.size());
}

/// The untraced run: end-to-end metrics.
int RunEndToEnd(const Args& args, const std::string& root) {
  const HostProbe probe;
  uint64_t probe_cursor = 0;
  // Host speed around one set-up: probe passes right before and after it.
  auto probe_passes = [&](std::vector<double>* ms) {
    for (int i = 0; i < kSetupProbes; ++i) {
      ms->push_back(probe.RunMs(&probe_cursor));
    }
  };
  const FixtureSpec base = SpecFor(args, root + "/setup");
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();
    FixtureSpec spec = base;
    spec.wal_root += std::to_string(i);
    std::vector<double> probe_ms;
    probe_passes(&probe_ms);
    auto start = std::chrono::steady_clock::now();
    auto built = BuildFixture(spec);
    const double raw = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    if (!built.ok()) {
      std::cerr << "set-up failed: " << built.status() << std::endl;
      return 2;
    }
    probe_passes(&probe_ms);
    setup_raw_s.push_back(raw);
    setup_s.push_back(raw / (Quantile(probe_ms, 0.5) / kProbeReferenceMs));
    fx = std::move(built).ValueOrDie();
  }

  const size_t clients = ClientCount(args.workload);
  RunLog log =
      DriveClosedLoop(fx.get(), args.seed, clients,
                      RunBudget(args.workload, args.seconds), true, &probe);
  if (args.workload == Workload::kFeedBi && !log.finished) {
    log.problems.push_back("feed_bi plan cut off by the " +
                           FormatDouble(log.elapsed_s, 0) + " s cap after " +
                           std::to_string(log.attempted) + " requests");
  }
  CheckAfterRun(fx.get(), &log);

  // Every timing below is scaled to the reference host: a request by its
  // client's factor for the window it was sent in, the run time window by
  // window.
  const std::vector<std::vector<double>> factors = WindowFactors(
      log.probes, clients,
      static_cast<size_t>(log.elapsed_s / kProbeWindowS) + 1);
  for (Sample& sample : log.samples) {
    sample.ms /= factors[sample.client][sample.window];
  }
  const double seconds = ScaledSeconds(log, factors);

  auto latencies = [&](auto&& keep) {
    std::vector<double> out;
    for (const Sample& sample : log.samples) {
      if (keep(sample)) out.push_back(sample.ms);
    }
    return out;
  };
  auto of_kind = [&](Kind kind) {
    return latencies([kind](const Sample& s) { return s.kind == kind; });
  };
  const std::vector<double> all = latencies([](const Sample&) { return true; });
  const size_t executed = log.Executed();

  double precision = 0.0;
  size_t precision_base = 0;
  if (args.workload == Workload::kFeedBi) {
    precision = FedFactPrecision(*fx, &precision_base);
  } else {
    precision_base = log.asks_gold;
    precision = log.asks_gold == 0 ? 0.0
                                   : static_cast<double>(log.asks_correct) /
                                         static_cast<double>(log.asks_gold);
  }
  const double setup = Quantile(setup_s, 0.5);

  std::vector<Metric> metrics = {
      {"setup_s", setup, "s"},
      {"p50_ms", Quantile(all, 0.5), "ms"},
      {"p99_ms", Quantile(all, kTail), "ms"},
      {"qps", static_cast<double>(executed) / seconds, "1/s"},
      {"work_per_s", static_cast<double>(log.work) / seconds, "1/s"},
      {"ok_share",
       log.attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(log.failed) /
                                      static_cast<double>(log.attempted),
       "ratio"},
      {"answer_precision", precision, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  std::vector<std::vector<double>> client_probes(clients);
  for (const ProbeSample& p : log.probes) {
    client_probes[p.client].push_back(p.ms);
  }
  std::vector<double> all_factors;
  std::string medians;
  for (size_t c = 0; c < clients; ++c) {
    all_factors.insert(all_factors.end(), factors[c].begin(),
                       factors[c].end());
    if (c > 0) medians += "/";
    medians += FormatDouble(Quantile(client_probes[c], 0.5), 4);
  }
  std::cout << "host: " << log.probes.size()
            << " probe passes, median per client " << medians
            << " ms (reference " << FormatDouble(kProbeReferenceMs, 4)
            << " ms), window factors "
            << FormatDouble(Quantile(all_factors, 0.0), 3) << " to "
            << FormatDouble(Quantile(all_factors, 1.0), 3)
            << "; unscaled: setup_s = "
            << FormatDouble(Quantile(setup_raw_s, 0.5), 4) << " s, run "
            << FormatDouble(log.elapsed_s, 3) << " s\n";
  std::cout << "run: " << executed << " executed requests in "
            << FormatDouble(seconds, 3)
            << " s at reference speed; latencies from a uniform "
            << "sample of " << all.size() << ", p99 has "
            << static_cast<size_t>(static_cast<double>(all.size()) *
                                   (1.0 - kTail))
            << " samples beyond it\n";
  // The per-endpoint figures, for every endpoint the workload exercises.
  auto line = [](const std::string& name, double value,
                 const std::string& unit) {
    std::cout << "  " << name << " = " << FormatDouble(value, 4) << " "
              << unit << "\n";
  };
  std::cout << "per-endpoint metrics (" << WorkloadName(args.workload)
            << "):\n";
  line("setup_s", setup, "s");
  const std::vector<double> asks = of_kind(Kind::kAsk);
  if (!asks.empty()) {
    line("ask_p50_ms", Quantile(asks, 0.5), "ms");
    line("ask_p99_ms", Quantile(asks, 0.99), "ms");
    line("ask_qps",
         static_cast<double>(log.executed[static_cast<size_t>(Kind::kAsk)]) /
             seconds,
         "req/s");
  }
  const std::vector<double> feeds = of_kind(Kind::kFeed);
  if (!feeds.empty()) {
    size_t rows = 0;
    for (const Sample& sample : log.samples) {
      if (sample.kind == Kind::kFeed) rows += sample.work;
    }
    line("feed_p50_ms", Quantile(feeds, 0.5), "ms");
    line("feed_p95_ms", Quantile(feeds, 0.95), "ms");
    line("feed_facts_per_s", static_cast<double>(rows) / (Sum(feeds) / 1000.0),
         "facts/s");
  }
  const std::pair<Kind, const char*> other_kinds[] = {
      {Kind::kBiView, "bi_view_p50_ms"},
      {Kind::kBiRecompute, "bi_recompute_p50_ms"},
      {Kind::kBiFederated, "bi_fed_p50_ms"},
      {Kind::kIngest, "ingest_p50_ms"}};
  for (const auto& [kind, name] : other_kinds) {
    const std::vector<double> values = of_kind(kind);
    if (!values.empty()) line(name, Quantile(values, 0.5), "ms");
  }
  if (args.workload == Workload::kServeMix) {
    line("serve_qps", static_cast<double>(executed) / seconds, "req/s");
    line("serve_p99_ms", Quantile(all, 0.99), "ms");
  }
  std::cout << "  failed_share = "
            << FormatDouble(log.attempted == 0
                                ? 0.0
                                : static_cast<double>(log.failed) /
                                      static_cast<double>(log.attempted),
                            4)
            << " ratio (" << log.failed << " of " << log.attempted
            << " requests attempted)\n"
            << "  answer_precision = " << FormatDouble(precision, 4)
            << " ratio (over " << precision_base
            << (args.workload == Workload::kFeedBi ? " loaded Weather rows)"
                                                   : " gold asks)")
            << "\n";
  line("peak_rss_mb", PeakRssMb(), "MB");
  for (size_t k = 0; k < kKinds; ++k) {
    const size_t n = log.executed[k];
    if (n > 0) {
      std::cout << "  " << KindName(static_cast<Kind>(k)) << ": " << n
                << " executed\n";
    }
  }
  if (log.asks_gold > 0) {
    std::cout << "  asks: " << log.asks_cached << " of " << log.asks_gold
              << " served from the cache, " << log.asks_answered
              << " answered\n";
  }
  if (args.workload == Workload::kFeedBi) {
    std::cout << "  plan: " << (log.finished ? "finished" : "cut off")
              << ", " << fx->fed_tenants.size() << " tenants fed their "
              << fx->feed_questions.size() << " questions in "
              << log.executed[static_cast<size_t>(Kind::kFeed)]
              << " feeds\n";
  }
  if (args.workload == Workload::kServeMix) {
    // Where the clients' time went: Handle time per request class (its
    // share of the sample's Handle time, applied to the total), and the
    // benchmark's own share (building requests, checking replies).
    const double client_ms =
        static_cast<double>(clients) * log.elapsed_s * 1000.0;
    const double sampled_ms = Sum(all);
    std::string shares;
    auto share = [&](const std::string& name, auto&& keep) {
      const double ms = Sum(latencies(keep)) / sampled_ms * log.handle_ms;
      shares += " " + name + "=" + FormatDouble(100.0 * ms / client_ms, 1) +
                "%";
    };
    share("ask_cached", [](const Sample& s) {
      return s.kind == Kind::kAsk && s.cached;
    });
    share("ask_no_cache", [](const Sample& s) {
      return s.kind == Kind::kAsk && s.no_cache;
    });
    share("ask_missed", [](const Sample& s) {
      return s.kind == Kind::kAsk && !s.cached && !s.no_cache;
    });
    for (Kind kind : {Kind::kFeed, Kind::kBiView, Kind::kIngest}) {
      share(KindName(kind), [kind](const Sample& s) { return s.kind == kind; });
    }
    std::cout << "  client time:" << shares << " benchmark="
              << FormatDouble(100.0 * (1.0 - log.handle_ms / client_ms), 1)
              << "%\n";
    const MetricRegistry& served = *fx->server->metrics();
    std::cout << "  answer cache: "
              << FormatDouble(served.FamilySum(kMetricServeCacheLookups), 0)
              << " lookups, "
              << FormatDouble(served.FamilySum(kMetricServeCacheInsertions), 0)
              << " insertions, "
              << FormatDouble(served.FamilySum(kMetricServeCacheEvictions), 0)
              << " evictions, "
              << FormatDouble(served.FamilySum(kMetricServeCacheEntries), 0)
              << " entries after the run\n";
    size_t documents = 0;
    for (const std::string& tenant : fx->tenants) {
      documents += fx->server->tenant_pipeline(tenant)
                       ->aliqan()
                       ->document_index()
                       .document_count();
    }
    std::cout << "  ingested " << fx->ingest_cursor.load() << " of "
              << fx->withheld.size() << " withheld pages; the " 
              << fx->tenants.size() << " tenants index " << documents
              << " documents after the run\n";
  }

  fx.reset();
  const bool correct = log.problems.empty() && log.failed == 0;
  for (const std::string& p : log.problems) {
    std::cout << "CHECK FAILED: " << p << "\n";
  }
  PrintResult(correct, log.attempted, log.failed, metrics);
  return correct ? 0 : 1;
}

/// The traced run: per-layer metrics.
int RunLayers(const Args& args, const std::string& root) {
  const FixtureSpec spec = SpecFor(args, root + "/trace");
  std::vector<std::string> problems;
  auto report = RunTraced(spec, args.seed, args.seconds / 2, &problems);
  if (!report.ok()) {
    std::cerr << "traced run failed: " << report.status() << std::endl;
    return 2;
  }
  std::cout << "traced run (" << WorkloadName(args.workload)
            << ", 1 client):\n";
  for (const std::string& l : report->lines) std::cout << "  " << l << "\n";
  std::vector<Metric> metrics;
  for (const LayerMetric& spec : LayerMetrics()) {
    auto it = report->metrics.find(spec.name);
    metrics.push_back({spec.name, it == report->metrics.end() ? 0.0 : it->second,
                       spec.unit});
  }
  for (const std::string& p : problems) {
    std::cout << "CHECK FAILED: " << p << "\n";
  }
  const bool correct = problems.empty();
  PrintResult(correct, report->attempted, report->failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: dwqa_perfbench --workload ask_live|feed_bi|serve_mix "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n";
    return 2;
  }
  // Per-process scratch space (the WALs of feed_bi), removed on exit.
  const std::string root =
      args.workdir + "/" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::create_directories(root);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "fingerprint: workload=" << WorkloadName(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << " nproc=" << nproc
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " clients=" << (args.trace ? 1 : ClientCount(args.workload))
            << " wal_flush="
            << (args.workload == Workload::kFeedBi ? "sync_each_append"
                                                   : "none")
            << "\n";
  const int code =
      args.trace ? RunLayers(args, root) : RunEndToEnd(args, root);
  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
  return code;
}
