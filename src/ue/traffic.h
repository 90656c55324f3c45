// Application traffic models driving the UEs (downlink and uplink).  The
// paper's UEs "use the data to watch videos or download files" (section
// 5.2.2); these sources generate the corresponding packet arrival
// processes.  Packet boundaries are kept so the packet-aggregation analysis
// (paper Appendix D / Fig. 16d) can count packets per TTI.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace nrs {

/// One application packet queued for transmission.
struct AppPacket {
  std::size_t size_bytes;
  std::size_t remaining_bytes;
  double arrival_s;
};

/// Result of draining bytes from a source in one TTI.
struct DrainResult {
  std::size_t bytes = 0;           ///< bytes actually consumed
  unsigned packets_completed = 0;  ///< full packets finishing in this TTI
};

/// Base class: subclasses generate packets in advance(); the scheduler
/// drains bytes per TTI.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Advance simulated time, enqueueing any packets that arrive by `now_s`.
  void advance(double now_s);

  /// Bytes waiting in the queue, kept as a running count.
  [[nodiscard]] std::size_t backlog_bytes() const { return backlog_bytes_; }

  /// True for sources that always have data (full-buffer).
  [[nodiscard]] virtual bool is_full_buffer() const { return false; }

  /// Consume up to `max_bytes` from the head of the queue.
  DrainResult drain(std::size_t max_bytes);

  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  explicit TrafficSource(std::string name) : name_(std::move(name)) {}

  /// Generate packets with arrival times in (last_time, now].  Called by
  /// advance(); push via enqueue().
  virtual void generate(double from_s, double to_s) = 0;

  void enqueue(std::size_t size_bytes, double arrival_s);

 private:
  std::string name_;
  std::deque<AppPacket> queue_;
  std::size_t backlog_bytes_ = 0;  ///< sum of the queue's remaining_bytes
  double last_time_ = 0.0;
};

/// Always-backlogged source (for saturation experiments).
class FullBufferSource final : public TrafficSource {
 public:
  FullBufferSource();
  [[nodiscard]] bool is_full_buffer() const override { return true; }

 protected:
  void generate(double from_s, double to_s) override;
};

/// Constant bit rate with fixed-size packets (e.g. a voice/telemetry flow).
class CbrSource final : public TrafficSource {
 public:
  CbrSource(double rate_bps, std::size_t packet_bytes = 1200);

 protected:
  void generate(double from_s, double to_s) override;

 private:
  double rate_bps_;
  std::size_t packet_bytes_;
  double carry_bytes_ = 0.0;
};

/// On/off video stream: bursts of frames at the frame rate while "on".
class VideoSource final : public TrafficSource {
 public:
  VideoSource(double rate_bps, std::uint64_t seed, double fps = 30.0,
              double on_s = 4.0, double off_s = 1.0);

 protected:
  void generate(double from_s, double to_s) override;

 private:
  double rate_bps_;
  double fps_;
  double on_s_;
  double off_s_;
  Rng rng_;
  double next_frame_ = 0.0;
};

/// Repeated file downloads: a large burst, then an idle think time.
class FileDownloadSource final : public TrafficSource {
 public:
  FileDownloadSource(std::size_t file_bytes, double think_s,
                     std::uint64_t seed);

 protected:
  void generate(double from_s, double to_s) override;

 private:
  std::size_t file_bytes_;
  double think_s_;
  Rng rng_;
  double next_start_ = 0.0;
};

/// Poisson packet arrivals with exponential sizes (web-ish background).
class PoissonSource final : public TrafficSource {
 public:
  PoissonSource(double packets_per_s, std::size_t mean_bytes,
                std::uint64_t seed);

 protected:
  void generate(double from_s, double to_s) override;

 private:
  double rate_;
  std::size_t mean_bytes_;
  Rng rng_;
  double next_arrival_ = 0.0;
};

}  // namespace nrs
