// The host probe: a fixed piece of non-dwqa work timed beside the run, and
// the per-window host speed factors derived from it.

#include "common/rng.h"
#include "perfbench.h"

namespace perfbench {

namespace {

/// Table entries and lookups per pass: about 18 MB, far more than a core's
/// 2 MB L2, so that the probe slows when other machines load the shared L3
/// and memory, as dwqa does; about 1 ms per pass on the reference host.
constexpr size_t kProbeKeys = 200000;
constexpr size_t kProbeLookups = 5000;
constexpr uint64_t kProbeSeed = 20040615;

}  // namespace

HostProbe::HostProbe() {
  Rng rng(kProbeSeed);
  keys_.reserve(kProbeKeys);
  table_.reserve(kProbeKeys);
  for (size_t i = 0; i < kProbeKeys; ++i) {
    keys_.push_back("term" + std::to_string(rng.NextBelow(100000000)) + "x");
    table_.emplace(keys_.back(), static_cast<uint32_t>(i));
  }
}

double HostProbe::RunMs(uint64_t* cursor) const {
  const Clock::time_point start = Clock::now();
  uint64_t at = *cursor;
  uint64_t sum = 0;
  for (size_t i = 0; i < kProbeLookups; ++i) {
    at = (at * 2654435761ULL + i) % keys_.size();
    auto it = table_.find(keys_[at]);
    if (it != table_.end()) sum += it->second;
  }
  // The sum feeds the next start, so the lookups cannot be optimized away.
  *cursor = at + (sum & 1);
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<std::vector<double>> WindowFactors(
    const std::vector<ProbeSample>& probes, size_t clients, size_t windows) {
  std::vector<std::vector<std::vector<double>>> passes(
      clients, std::vector<std::vector<double>>(windows));
  std::vector<std::vector<double>> all(clients);
  for (const ProbeSample& p : probes) {
    if (p.client >= clients) continue;
    if (p.window < windows) passes[p.client][p.window].push_back(p.ms);
    all[p.client].push_back(p.ms);
  }
  std::vector<std::vector<double>> factors(
      clients, std::vector<double>(windows, 1.0));
  for (size_t c = 0; c < clients; ++c) {
    if (all[c].empty()) continue;
    double last = Quantile(all[c], 0.5) / kProbeReferenceMs;
    for (size_t w = 0; w < windows; ++w) {
      if (!passes[c][w].empty()) {
        last = Quantile(passes[c][w], 0.5) / kProbeReferenceMs;
      }
      factors[c][w] = last;
    }
  }
  return factors;
}

}  // namespace perfbench
