#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace isobench {

/// Layers a span can be charged to: the library's module names, plus
/// "bench" for the harness's own work (loop control and checks).
inline constexpr const char* kSpanLayers[] = {
    "bench", "sim", "net", "field", "isomap", "serve", "exec", "util", "eval"};

/// In-memory span recorder for the traced run. Spans are recorded by the
/// harness around its calls into the library (never inside it): name,
/// layer, start, end, parent span and the id of the operation (round,
/// tick or setup) the call belongs to. Nothing is written until
/// write_jsonl() at the end of the run. A disabled recorder reads no
/// clock and stores nothing, so the untraced pass runs the same code.
/// Single-threaded: only the thread that runs the workload opens spans.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  struct Span {
    const char* layer = nullptr;
    const char* name = nullptr;
    std::int64_t op = 0;
    std::int32_t parent = -1;  ///< Index of the enclosing span, -1 = root.
    std::chrono::steady_clock::time_point start{};
    std::chrono::steady_clock::time_point end{};
  };

  /// Closes its span when destroyed; open spans nest.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* layer, const char* name,
          std::int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int32_t index_ = -1;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum over `layer`'s spans of their duration minus the part covered
  /// by their child spans (seconds).
  double self_seconds(const std::string& layer) const;

  /// One JSON object per span, in opening order; times in nanoseconds
  /// from the first span's start. False on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  ///< Innermost open span.
};

}  // namespace isobench
