#ifndef DWQA_COMMON_FAULT_H_
#define DWQA_COMMON_FAULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace dwqa {

/// \name Named fault points
///
/// Well-known injection sites of the QA→DW feed path. A FaultInjector rule
/// names the point it arms; callers probe the injector at these sites.
/// @{
/// Fetching one page / asking one question against the (synthetic) web.
inline constexpr char kFaultPointFetch[] = "web.fetch";
/// Normalizing a raw page (HTML stripping) before indexation.
inline constexpr char kFaultPointParse[] = "ir.parse";
/// The off-line corpus indexation pass.
inline constexpr char kFaultPointIndex[] = "ir.index";
/// Loading one fact record through the ETL boundary.
inline constexpr char kFaultPointEtlLoad[] = "dw.etl.load";
/// A mutating operation of a FaultFs (common/io.h): WAL appends, snapshot
/// writes, renames. Deliberately NOT part of FaultConfig::
/// TransientEverywhere — durability chaos is armed explicitly so the draw
/// schedule of existing blanket-fault tests stays frozen.
inline constexpr char kFaultPointIoWrite[] = "io.write";
/// Dispatching one federated sub-query to a member warehouse
/// (dw/federation/federated_engine.h). NOT part of TransientEverywhere —
/// federation chaos is armed per member warehouse so partial-coverage
/// degradation can be exercised without perturbing feed-path schedules.
inline constexpr char kFaultPointFedSubquery[] = "fed.subquery";
/// @}
///
/// A rule may also scope a point to one source by suffixing the source URL,
/// e.g. "dw.etl.load:http://weather.example/barcelona" — probes at the
/// scoped point only match rules armed with that exact name, so a poisoned
/// source never perturbs the draw schedule of healthy ones.

/// How an armed fault manifests.
enum class FaultMode {
  /// A retryable error (kUnavailable by default): the operation fails this
  /// time but would succeed if repeated — a flaky fetch, a busy backend.
  kTransient,
  /// The payload is cut short mid-stream (a dropped connection leaving a
  /// half-downloaded, possibly mid-tag HTML page).
  kTruncatePayload,
  /// Digits in the payload are garbled (OCR-style corruption, encoding
  /// bugs): temperatures become implausible magnitudes.
  kSwapDigits,
  /// Unit markers (º C, F, EUR) are destroyed, producing the paper's
  /// Figure-5 failure mode — a value whose scale cannot be trusted.
  kBreakUnits,
};

const char* FaultModeName(FaultMode mode);

/// One armed fault: at `point`, with probability `probability` per hit,
/// manifest as `mode`. Transient rules fail with `code`.
struct FaultRule {
  std::string point;                        ///< Fault-point name to arm.
  double probability = 0.0;                 ///< Per-hit firing probability.
  FaultMode mode = FaultMode::kTransient;   ///< How the fault manifests.
  StatusCode code = StatusCode::kUnavailable;  ///< Transient failure code.
};

/// \brief Configuration of a FaultInjector. No rules = injector disabled.
struct FaultConfig {
  uint64_t seed = 1;             ///< Seed of the injector's RNG stream.
  std::vector<FaultRule> rules;  ///< Armed rules; empty = disabled.

  /// Arms a transient rule of probability `rate` at every known fault point
  /// — the blanket "flaky world" used by the resilience bench.
  static FaultConfig TransientEverywhere(double rate, uint64_t seed = 1);
};

/// \brief Seeded, deterministic fault injector.
///
/// The synthetic web substitutes the live Web so extraction can be measured
/// exactly; the injector substitutes the live Web's *unreliability* so the
/// feed's resilience can be measured exactly. All draws come from one
/// SplitMix64 stream: a fixed seed reproduces the exact same fault schedule
/// across runs, which is what lets tests assert "retries mask every
/// transient failure" byte-for-byte.
class FaultInjector {
 public:
  /// Disabled injector: never fires, never draws.
  FaultInjector() = default;

  /// Injector armed with `config`'s rules, drawing from its seeded stream.
  explicit FaultInjector(FaultConfig config);

  /// True when at least one rule is armed.
  bool enabled() const { return !config_.rules.empty(); }

  /// Probes `point`: returns a non-OK transient Status when a transient
  /// rule fires, OK otherwise. Corruption rules never fire here.
  Status Hit(const std::string& point);

  /// Probes `point` for corruption rules: true when one fires, with the
  /// rule's mode in `*mode` (untouched otherwise).
  bool ShouldCorrupt(const std::string& point, FaultMode* mode);

  /// Applies `mode` to `payload` using the injector's own RNG stream.
  std::string Corrupt(std::string payload, FaultMode mode);

  /// \name Stateless corruption primitives (deterministic given the Rng)
  /// @{
  /// Cuts the payload at a random point.
  static std::string TruncatePayload(std::string payload, Rng* rng);
  /// Transposes adjacent digit pairs.
  static std::string SwapDigits(std::string payload, Rng* rng);
  /// Deletes unit markers (ºC / F) so extraction loses the scale.
  static std::string BreakUnits(std::string payload, Rng* rng);
  /// @}

  /// Times a rule fired at `point` (transient and corruption alike).
  size_t fires(const std::string& point) const;
  /// Total rule firings across all points.
  size_t total_fires() const;
  /// The armed configuration.
  const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
  Rng rng_{0};
  std::map<std::string, size_t> fires_;
};

}  // namespace dwqa

#endif  // DWQA_COMMON_FAULT_H_
