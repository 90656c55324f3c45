// Spans recorded by the benchmark around its calls into each layer.  A
// span has a name, a start, an end, the name of its parent span and the
// identifier of the slot or query it belongs to; spans of one slot or
// query share that identifier.  Every thread that records owns one
// SpanBuffer, reserved up front so recording neither locks nor allocates;
// the buffers are written out when the run ends.  A null buffer pointer
// means tracing is off and every ScopedSpan is a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  const char* parent = "";  ///< "" for a root span
  std::uint64_t id = 0;     ///< slot index or query id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(std::string thread, std::size_t capacity);

  /// Spans past the reserved capacity are counted, not stored, so the
  /// hot path never reallocates.
  void add(const char* name, const char* parent, std::uint64_t id,
           std::int64_t start_ns, std::int64_t end_ns) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({name, parent, id, start_ns, end_ns});
    } else {
      ++overflow_;
    }
  }

  [[nodiscard]] const std::string& thread() const { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::uint64_t overflow_ = 0;
};

/// Records [construction, destruction) into `buffer` unless it is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, const char* parent,
             std::uint64_t id)
      : buffer_(buffer),
        name_(name),
        parent_(parent),
        id_(id),
        start_(buffer != nullptr ? now_ns() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->add(name_, parent_, id_, start_, now_ns());
    }
  }

 private:
  SpanBuffer* buffer_;
  const char* name_;
  const char* parent_;
  std::uint64_t id_;
  std::int64_t start_;
};

/// Per-span-name totals over a set of buffers.
struct LayerTime {
  std::string name;
  std::uint64_t spans = 0;
  double self_us_total = 0.0;
  double duration_p50_us = 0.0;
  double duration_p99_us = 0.0;
};

/// Self time of every span: its duration minus the part of it covered by
/// its children (spans with the same id whose parent is its name).  One
/// entry per span name, in first-seen order.
std::vector<LayerTime> layer_times(const std::vector<const SpanBuffer*>& bufs);

/// Write every span as CSV (thread,name,parent,id,start_ns,end_ns) to
/// `path`; false on I/O error.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs);

}  // namespace perfbench
