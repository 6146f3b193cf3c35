// Host-clock spans around the benchmark's own calls into each layer.
//
// Spans are kept in memory (one vector push per span) and written out
// once at the end of the run, so recording never touches the disk on a
// measured path. Each span has a name ("<layer>.<what>"), steady-clock
// start/end in ns since the recorder was created, its parent span (or
// -1) and a request id: replays of trace record i carry request id i+1
// (0 = not tied to a record).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace coicbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t request;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the currently open one; returns its index.
  std::int32_t Open(const char* name, std::uint64_t request = 0) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), -1, open_.empty() ? -1 : open_.back(),
                      request});
    open_.push_back(index);
    return index;
  }
  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t Close() {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  [[nodiscard]] std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null recorder records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t request = 0)
      : rec_(rec) {
    if (rec_) rec_->Open(name, request);
  }
  ~ScopedSpan() {
    if (rec_) rec_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace coicbench
