#include "spans.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace e2e {

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint64_t request)
    : recorder_(recorder),
      id_(static_cast<std::uint32_t>(recorder.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = recorder.open_.empty() ? kNoParent : recorder.open_.back();
  span.request = request;
  recorder.spans_.push_back(span);
  recorder.open_.push_back(id_);
  // Stamp last, so the bookkeeping above is outside the span.
  recorder.spans_[id_].start = secondsSince(recorder.origin_);
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[id_].end = secondsSince(recorder_.origin_);
  recorder_.open_.pop_back();
}

double SpanRecorder::Scope::seconds() const {
  return secondsSince(recorder_.origin_) - recorder_.spans_[id_].start;
}

void SpanRecorder::attribute(const char* name, double seconds,
                             std::uint32_t parent, std::uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.end = seconds;
  span.timed = false;
  spans_.push_back(span);
}

void SpanRecorder::append(const SpanRecorder& other) {
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += offset;
    spans_.push_back(span);
  }
}

double TraceSummary::total(std::string_view layer) const {
  for (const LayerStats& l : layers) {
    if (l.name == layer) return l.total;
  }
  return 0.0;
}

TraceSummary summarize(const std::vector<Span>& spans) {
  std::vector<double> childTime(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != SpanRecorder::kNoParent) {
      childTime[s.parent] += s.end - s.start;
    }
  }
  TraceSummary out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end - s.start;
    if (std::strcmp(s.name, "request") == 0) {
      ++out.requests;
      out.requestSeconds += duration;
      out.unattributedSeconds += duration - childTime[i];
      continue;
    }
    const auto [it, inserted] = index.emplace(s.name, out.layers.size());
    if (inserted) out.layers.push_back(LayerStats{s.name});
    LayerStats& layer = out.layers[it->second];
    ++layer.count;
    layer.total += duration;
    layer.self += duration - childTime[i];
  }
  return out;
}

std::string renderTable(const TraceSummary& summary) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-20s %8s %12s %12s %8s\n", "layer",
                "count", "total_ms", "self_ms", "self_%");
  out += line;
  const double base = summary.requestSeconds > 0 ? summary.requestSeconds : 1;
  for (const LayerStats& l : summary.layers) {
    std::snprintf(line, sizeof(line), "%-20s %8llu %12.3f %12.3f %8.2f\n",
                  l.name.c_str(), static_cast<unsigned long long>(l.count),
                  l.total * 1e3, l.self * 1e3, 100.0 * l.self / base);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-20s %8llu %12.3f %12.3f %8.2f\n",
                "(unattributed)",
                static_cast<unsigned long long>(summary.requests),
                summary.requestSeconds * 1e3,
                summary.unattributedSeconds * 1e3,
                100.0 * summary.unattributedSeconds / base);
  out += line;
  return out;
}

void writeSpans(const std::vector<Span>& spans,
                const std::filesystem::path& path) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    if (s.timed) {
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                    "\"request\":%llu,\"start\":%.9f,\"end\":%.9f}\n",
                    i, s.name,
                    s.parent == SpanRecorder::kNoParent
                        ? -1LL
                        : static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.request), s.start,
                    s.end);
    } else {
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                    "\"request\":%llu,\"reported_seconds\":%.9f}\n",
                    i, s.name, static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.request), s.end);
    }
    out << line;
  }
}

}  // namespace e2e
