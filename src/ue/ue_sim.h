// UE emulator: the phones of the paper's evaluation (Moto G 5G handsets in
// the lab cells, the Amarisoft UE emulator for the 8-64 UE runs).  Each UE
// owns a fading channel to the gNB, generates application traffic, ACKs or
// NACKs transport blocks according to an SNR/MCS block-error model, and
// records delivered bytes in a PacketTrace — the stand-in for the tcpdump
// ground truth of paper section 5.2.2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "nr/grant.h"
#include "phy/channel.h"
#include "ue/traffic.h"

namespace nrs {

/// One delivered-data record (what tcpdump would see, per TTI).
struct TraceEntry {
  std::uint64_t slot = 0;
  std::size_t bytes = 0;
  unsigned packets = 0;
};

/// The per-UE delivery log, queryable as a windowed bit rate.
class PacketTrace {
 public:
  void record(std::uint64_t slot, std::size_t bytes, unsigned packets);

  [[nodiscard]] const std::vector<TraceEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }

  /// Delivered bit rate over [slot_end - window, slot_end), bits/second.
  [[nodiscard]] double rate_bps(std::uint64_t slot_end,
                                std::uint64_t window_slots,
                                double slot_duration_s) const;

 private:
  std::vector<TraceEntry> entries_;
  std::size_t total_bytes_ = 0;
};

struct UeConfig {
  unsigned id = 0;
  ChannelConfig channel;                    ///< UE <-> gNB link
  std::unique_ptr<TrafficSource> dl_traffic;
  std::unique_ptr<TrafficSource> ul_traffic;  ///< may be null
  std::uint64_t seed = 1;
};

/// Block error probability for a transport block sent at `entry`'s
/// spectral efficiency over a link at `snr_db` — a calibrated sigmoid
/// around the Shannon-gap threshold.  Exposed for tests and benches.
double block_error_probability(double snr_db, double efficiency_bits_per_re,
                               double gap_db = 3.0);

class UeEmulator {
 public:
  explicit UeEmulator(UeConfig config);

  [[nodiscard]] unsigned id() const { return config_.id; }
  [[nodiscard]] Rnti rnti() const { return rnti_; }
  void set_rnti(Rnti rnti) { rnti_ = rnti; }

  /// Advance one TTI: evolve the channel and the traffic sources.
  void step(std::uint64_t slot, double now_s);

  /// Current link SNR (what the CQI report conveys to the gNB).
  [[nodiscard]] double snr_db() const { return channel_.effective_snr_db(); }

  /// CQI-style quantized SNR report (0.5 dB steps, 100 ms-ish delay is
  /// modelled by the gNB's link adaptation, not here).
  [[nodiscard]] double reported_snr_db() const;

  /// Decide ACK/NACK for a transport block sent with this grant, drawing
  /// from the BLER model at the current link SNR.  Returns true on ACK.
  bool decide_ack(const Grant& grant);

  /// The gNB confirms delivery (after an ACK): record the application
  /// bytes/packets the transport block carried into the trace.
  void deliver(std::uint64_t slot, std::size_t bytes, unsigned packets);

  [[nodiscard]] TrafficSource* dl_traffic() { return config_.dl_traffic.get(); }
  [[nodiscard]] TrafficSource* ul_traffic() { return config_.ul_traffic.get(); }
  [[nodiscard]] const PacketTrace& trace() const { return trace_; }

  /// Bytes of the pending (NACKed) transport block per HARQ process, so
  /// the gNB can retransmit without regenerating traffic.
  [[nodiscard]] ChannelModel& channel() { return channel_; }

 private:
  UeConfig config_;
  ChannelModel channel_;
  Rng rng_;
  Rnti rnti_ = kInvalidRnti;
  PacketTrace trace_;
};

}  // namespace nrs
