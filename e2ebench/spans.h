// In-memory span recording for the traced run.
//
// The benchmark wraps each public layer call it makes in a span (name,
// start, end, parent, request id). Spans stay in memory and are written
// out once the run ends; the per-layer table (count, total and self time)
// and the unattributed share of each request are computed from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

struct Span {
  const char* name = "";  ///< static string: the layer, or "request"
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  double start = 0.0;  ///< seconds since the recorder's origin
  double end = 0.0;
  /// False for a duration the program reported itself (a RunReport
  /// phase): it counts toward its layer and its parent's child time, but
  /// has no position on the timeline.
  bool timed = true;
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  /// RAII span around one call, nested under the innermost open span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint32_t id() const { return id_; }
    double seconds() const;

   private:
    SpanRecorder& recorder_;
    std::uint32_t id_;
  };

  /// Records a program-reported duration as an untimed child of `parent`.
  void attribute(const char* name, double seconds, std::uint32_t parent,
                 std::uint64_t request);

  /// Appends another recorder's spans (per-thread recorders are merged
  /// after their threads join).
  void append(const SpanRecorder& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

struct LayerStats {
  std::string name;
  std::uint64_t count = 0;
  double total = 0.0;  ///< seconds
  double self = 0.0;   ///< total minus time covered by child spans
};

struct TraceSummary {
  std::vector<LayerStats> layers;  ///< first-seen order, "request" excluded
  std::uint64_t requests = 0;
  double requestSeconds = 0.0;
  /// Request time not covered by any layer span directly under it.
  double unattributedSeconds = 0.0;

  /// Total seconds of `layer`, 0 when it never ran.
  double total(std::string_view layer) const;
};

TraceSummary summarize(const std::vector<Span>& spans);

/// The per-layer table as printable text.
std::string renderTable(const TraceSummary& summary);

/// Writes the spans as JSON lines.
void writeSpans(const std::vector<Span>& spans,
                const std::filesystem::path& path);

}  // namespace e2e
