#include "trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "stats.h"

namespace perfbench {

SpanBuffer::SpanBuffer(std::string thread, std::size_t capacity)
    : thread_(std::move(thread)) {
  spans_.reserve(capacity);
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (const auto& [start, end] : iv) {
    const std::int64_t s = std::max(start, cursor);
    const std::int64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

std::vector<LayerTime> layer_times(
    const std::vector<const SpanBuffer*>& bufs) {
  // Children of (parent name, id), across every buffer: a child may run on
  // another thread than its parent (a sink span's slot was fed elsewhere).
  std::map<std::pair<std::string, std::uint64_t>,
           std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanBuffer* buf : bufs) {
    for (const Span& s : buf->spans()) {
      if (s.parent[0] != '\0') {
        children[{s.parent, s.id}].emplace_back(s.start_ns, s.end_ns);
      }
    }
  }
  std::vector<LayerTime> out;
  std::map<std::string, std::size_t> index;
  std::map<std::string, std::vector<double>> durations;
  for (const SpanBuffer* buf : bufs) {
    for (const Span& s : buf->spans()) {
      auto [it, fresh] = index.emplace(s.name, out.size());
      if (fresh) {
        out.push_back({s.name, 0, 0.0, 0.0, 0.0});
      }
      LayerTime& lt = out[it->second];
      std::int64_t self = s.end_ns - s.start_ns;
      if (auto c = children.find({s.name, s.id}); c != children.end()) {
        auto intervals = c->second;
        self -= covered_ns(intervals, s.start_ns, s.end_ns);
      }
      ++lt.spans;
      lt.self_us_total += static_cast<double>(self) / 1000.0;
      durations[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                  1000.0);
    }
  }
  for (LayerTime& lt : out) {
    auto& d = durations[lt.name];
    lt.duration_p50_us = percentile(d, 50.0);
    lt.duration_p99_us = percentile(d, 99.0);
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "thread,name,parent,id,start_ns,end_ns\n";
  for (const SpanBuffer* buf : bufs) {
    for (const Span& s : buf->spans()) {
      out << buf->thread() << ',' << s.name << ',' << s.parent << ',' << s.id
          << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
