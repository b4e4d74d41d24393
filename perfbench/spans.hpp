// In-memory span recorder for the benchmark's traced replay.
//
// Each span is one call the benchmark makes into a layer's public API:
// name, start, end, the span that caused it and the request (document) it
// belongs to. Spans stay in memory while the benchmark runs; totals per
// name feed the per-layer metrics and the raw spans are written out once,
// at exit. A disabled recorder reads no clock, which is how the replay
// measures its own tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Ends its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::uint32_t name, std::uint32_t parent,
          std::uint64_t request)
        : recorder_(recorder),
          index_(recorder.begin(name, parent, request)) {}
    ~Scope() { recorder_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t index() const { return index_; }

   private:
    SpanRecorder& recorder_;
    std::uint32_t index_;
  };

  explicit SpanRecorder(std::vector<std::string> names)
      : names_(std::move(names)),
        total_ns_(names_.size(), 0),
        count_(names_.size(), 0) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::uint32_t begin(std::uint32_t name, std::uint32_t parent,
                      std::uint64_t request) {
    if (!enabled_) return kNone;
    spans_.push_back(Span{name, parent, request, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  void end(std::uint32_t index) {
    if (index == kNone) return;
    Span& span = spans_[index];
    span.end_ns = now_ns();
    total_ns_[span.name] += span.end_ns - span.start_ns;
    ++count_[span.name];
  }

  /// Summed duration and number of the spans named `name`.
  double total_ns(std::uint32_t name) const {
    return static_cast<double>(total_ns_[name]);
  }
  std::uint64_t count(std::uint32_t name) const { return count_[name]; }

  /// Writes the first `limit` spans as CSV. Returns false on I/O failure.
  bool write_csv(const std::string& path, std::size_t limit) const {
    std::ofstream out(path);
    out << "index,name,parent,request,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size() && i < limit; ++i) {
      const Span& s = spans_[i];
      out << i << ',' << names_[s.name] << ','
          << (s.parent == kNone ? -1 : static_cast<std::int64_t>(s.parent))
          << ',' << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> total_ns_;
  std::vector<std::uint64_t> count_;
  bool enabled_ = true;
};

}  // namespace perfbench
