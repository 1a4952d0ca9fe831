#ifndef DWQA_COMMON_TRACE_H_
#define DWQA_COMMON_TRACE_H_

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dwqa {

class TraceRecorder;

/// \brief One recorded span of a question trace.
struct SpanRecord {
  /// Index of this span in TraceRecorder::spans().
  size_t id = 0;
  /// Index of the parent span, or kNoParent for a root.
  size_t parent = kNoParent;
  /// Nesting depth (0 for roots) — precomputed for the renderer.
  size_t depth = 0;
  /// Stage name, dotted by layer: "qa.analysis", "dw.etl.load", ...
  std::string name;
  /// Wall-clock duration; 0 while the span is still open.
  double duration_ms = 0.0;
  /// Key/value notes attached via Span::Annotate, in call order.
  std::vector<std::pair<std::string, std::string>> annotations;

  /// Sentinel parent id of root spans.
  static constexpr size_t kNoParent = static_cast<size_t>(-1);
};

/// \brief RAII span handle: records a span on construction, closes it (and
/// stamps the duration) on destruction or an explicit End().
///
/// A null recorder makes every operation a no-op, so instrumented code can
/// unconditionally create spans and pass `nullptr` when tracing is off —
/// the same convention the metrics layer uses for `MetricRegistry*`.
class Span {
 public:
  /// Opens a span named `name` under the recorder's current innermost open
  /// span (no-op when `recorder` is null).
  Span(TraceRecorder* recorder, const std::string& name);
  /// Closes the span if still open.
  ~Span();

  Span(const Span&) = delete;             ///< Non-copyable.
  Span& operator=(const Span&) = delete;  ///< Non-copyable.
  /// Moved-from spans become inert no-ops.
  Span(Span&& other) noexcept;
  /// Closes the current span (if open) and takes over `other`'s.
  Span& operator=(Span&& other) noexcept;

  /// Attaches a key/value note rendered as `key=value` in the trace tree.
  void Annotate(const std::string& key, const std::string& value);
  /// Numeric convenience overload (integers render without decimals).
  void Annotate(const std::string& key, double value);

  /// Closes the span now (idempotent). Use when sibling spans must start
  /// after this one inside the same scope.
  void End();

 private:
  TraceRecorder* recorder_ = nullptr;
  size_t id_ = 0;
  std::chrono::steady_clock::time_point start_;
  bool open_ = false;
};

/// \brief Lightweight per-question span recorder: spans form a tree via the
/// natural nesting of Span scopes (question → ask → analysis/retrieval/
/// extraction → validation → ETL), rendered as a flame-style text tree.
///
/// Parenting uses an open-span stack, so spans recorded through one
/// recorder must nest properly on one logical flow of control — the serial
/// Step-5 loop and the live Ask path.
/// Internals are mutex-guarded anyway so a misuse cannot corrupt memory.
class TraceRecorder {
 public:
  /// Empty recorder.
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;             ///< Non-copyable.
  TraceRecorder& operator=(const TraceRecorder&) = delete;  ///< Non-copyable.

  /// All spans recorded so far, in start order (parents before children).
  std::vector<SpanRecord> spans() const;

  /// True when no span was ever recorded.
  bool empty() const;

  /// Renders the trace as an indented flame-style tree:
  /// ```
  /// step5.question (3.21 ms) [question=...]
  /// ├─ qa.ask (2.10 ms) [level=IrOnly answers=1]
  /// │  ├─ qa.analysis (0.40 ms)
  /// │  ...
  /// ```
  std::string Render() const;

 private:
  friend class Span;

  /// Opens a span under the innermost open span; returns its id.
  size_t StartSpan(const std::string& name);
  /// Closes span `id`, stamping `duration_ms`.
  void EndSpan(size_t id, double duration_ms);
  /// Appends an annotation to span `id`.
  void Annotate(size_t id, const std::string& key, const std::string& value);

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  /// Ids of currently open spans, innermost last.
  std::vector<size_t> open_stack_;
};

}  // namespace dwqa

#endif  // DWQA_COMMON_TRACE_H_
