#include "ue/traffic.h"

#include <algorithm>
#include <cmath>

namespace nrs {

void TrafficSource::advance(double now_s) {
  if (now_s <= last_time_) {
    return;
  }
  generate(last_time_, now_s);
  last_time_ = now_s;
}

DrainResult TrafficSource::drain(std::size_t max_bytes) {
  DrainResult result;
  while (max_bytes > 0 && !queue_.empty()) {
    AppPacket& head = queue_.front();
    const std::size_t take = std::min(max_bytes, head.remaining_bytes);
    head.remaining_bytes -= take;
    max_bytes -= take;
    result.bytes += take;
    if (head.remaining_bytes == 0) {
      ++result.packets_completed;
      queue_.pop_front();
    }
  }
  backlog_bytes_ -= result.bytes;
  return result;
}

void TrafficSource::enqueue(std::size_t size_bytes, double arrival_s) {
  queue_.push_back(AppPacket{size_bytes, size_bytes, arrival_s});
  backlog_bytes_ += size_bytes;
}

FullBufferSource::FullBufferSource() : TrafficSource("full-buffer") {}

void FullBufferSource::generate(double /*from_s*/, double to_s) {
  // Keep a deep standing queue of MTU packets.
  while (backlog_bytes() < 4u * 1024u * 1024u) {
    enqueue(1500, to_s);
  }
}

CbrSource::CbrSource(double rate_bps, std::size_t packet_bytes)
    : TrafficSource("cbr"), rate_bps_(rate_bps), packet_bytes_(packet_bytes) {}

void CbrSource::generate(double from_s, double to_s) {
  carry_bytes_ += rate_bps_ / 8.0 * (to_s - from_s);
  while (carry_bytes_ >= static_cast<double>(packet_bytes_)) {
    enqueue(packet_bytes_, to_s);
    carry_bytes_ -= static_cast<double>(packet_bytes_);
  }
}

VideoSource::VideoSource(double rate_bps, std::uint64_t seed, double fps,
                         double on_s, double off_s)
    : TrafficSource("video"), rate_bps_(rate_bps), fps_(fps), on_s_(on_s),
      off_s_(off_s), rng_(seed) {}

void VideoSource::generate(double /*from_s*/, double to_s) {
  const double cycle = on_s_ + off_s_;
  while (next_frame_ <= to_s) {
    const double phase = std::fmod(next_frame_, cycle);
    if (phase < on_s_) {
      // Frame size varies +-30% around the nominal rate/fps; the frame is
      // delivered as a burst of MTU-sized packets, which is what the
      // paper's packet-aggregation analysis counts per TTI (Fig. 16d).
      const double nominal = rate_bps_ / 8.0 / fps_;
      const double jitter = rng_.uniform(0.7, 1.3);
      auto remaining = static_cast<std::size_t>(
          std::max(100.0, nominal * jitter));
      while (remaining > 0) {
        const std::size_t chunk = std::min<std::size_t>(1500, remaining);
        enqueue(chunk, next_frame_);
        remaining -= chunk;
      }
    }
    next_frame_ += 1.0 / fps_;
  }
}

FileDownloadSource::FileDownloadSource(std::size_t file_bytes, double think_s,
                                       std::uint64_t seed)
    : TrafficSource("download"), file_bytes_(file_bytes), think_s_(think_s),
      rng_(seed) {}

void FileDownloadSource::generate(double /*from_s*/, double to_s) {
  while (next_start_ <= to_s) {
    // The file arrives as a burst of MTU packets.
    std::size_t remaining = file_bytes_;
    while (remaining > 0) {
      const std::size_t chunk = std::min<std::size_t>(1500, remaining);
      enqueue(chunk, next_start_);
      remaining -= chunk;
    }
    next_start_ += think_s_ * rng_.uniform(0.5, 1.5);
  }
}

PoissonSource::PoissonSource(double packets_per_s, std::size_t mean_bytes,
                             std::uint64_t seed)
    : TrafficSource("poisson"), rate_(packets_per_s),
      mean_bytes_(mean_bytes), rng_(seed) {}

void PoissonSource::generate(double /*from_s*/, double to_s) {
  while (next_arrival_ <= to_s) {
    const double size =
        rng_.exponential(static_cast<double>(mean_bytes_));
    enqueue(static_cast<std::size_t>(std::max(64.0, size)), next_arrival_);
    next_arrival_ += rng_.exponential(1.0 / rate_);
  }
}

}  // namespace nrs
