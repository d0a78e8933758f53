#include "spans.hpp"

#include <fstream>

namespace isobench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* layer,
                           const char* name, std::int64_t op)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = static_cast<std::int32_t>(recorder_.spans_.size());
  Span span;
  span.layer = layer;
  span.name = name;
  span.op = op;
  span.parent = recorder_.open_;
  recorder_.open_ = index_;
  span.start = std::chrono::steady_clock::now();
  recorder_.spans_.push_back(span);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = recorder_.spans_[static_cast<std::size_t>(index_)];
  span.end = std::chrono::steady_clock::now();
  recorder_.open_ = span.parent;
}

double SpanRecorder::self_seconds(const std::string& layer) const {
  // Children close before their parent and only one thread records spans,
  // so a parent's covered time is the plain sum of its children.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_s[static_cast<std::size_t>(span.parent)] +=
          std::chrono::duration<double>(span.end - span.start).count();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (layer == spans_[i].layer)
      total += std::chrono::duration<double>(spans_[i].end - spans_[i].start)
                   .count() -
               child_s[i];
  return total;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const auto t0 = spans_.empty() ? std::chrono::steady_clock::time_point{}
                                 : spans_.front().start;
  const auto ns = [t0](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"op\":" << s.op
       << ",\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
       << "\",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
       << "}\n";
  }
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace isobench
