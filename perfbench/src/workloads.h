// The three workloads.  Each builds its chain from opt.seed, sets up
// several times (setup_s is the median), measures for opt.seconds and
// returns its metrics plus every correctness-gate violation.  With
// opt.trace the measured window is split: an untraced half gives the
// reference rate, a traced half gives the per-layer numbers and the
// tracing overhead.
#pragma once

#include "chain.h"

namespace perfbench {

Report run_cell_e2e(const Options& opt);
Report run_sniffer_air(const Options& opt);
Report run_fleet_query(const Options& opt);

/// Open-loop sniffer run on pre-generated slots (sniffer_air phase A), for
/// the workload and the self-test.
struct OpenLoopResult {
  std::uint64_t attempted = 0;
  std::vector<std::uint64_t> refused_slots;  ///< declared lost
  std::vector<double> latency_us;   ///< due time -> recording sink
  std::vector<double> gen_late_us;  ///< push time - due time
  std::uint64_t buffers_in_flight = 0;
  bool acquired = false;
  std::vector<nrs::DecodedDci> dcis;
  /// Registry window from the end of acquisition to the drained window.
  RegistryWindow reg;
  std::uint64_t allocs = 0;  ///< heap allocations over the same window
  std::uint64_t bytes = 0;
  std::int64_t max_queue_depth = 0;  ///< sampled after every push
  std::int64_t max_reorder = 0;
  Ratio discovered;  ///< connected UEs the engine knows, after the window
};

/// Pre-generated input of sniffer_air: an acquisition prefix followed by
/// `window` fresh slots, all from one gNB + Pedestrian sniffer link.
struct SlotFeed {
  std::unique_ptr<nrs::GnbSim> gnb;  ///< keeps the ground truth
  std::vector<nrs::IqBuffer> slots;
  std::size_t prefix = 0;  ///< slots before the measured window
  std::vector<double> gnb_us;
  std::vector<double> radio_us;
};

/// Generate the feed: run the chain until a probe engine is acquired
/// (frame aligned), then `window` more slots.  A draw of the sniffer link
/// on which the probe misses a UE is replaced by the next one derived
/// from the seed; empty slots when no draw acquires.
SlotFeed generate_feed(std::uint64_t seed, nrs::ChannelProfile profile,
                       std::size_t window);

/// Push feed.slots[0..prefix) closed loop, then the window open loop at
/// `rate_hz`, into a fresh pipeline whose recording sink busy-waits
/// `sink_delay_us` per slot.  `spans` (may be null) records the
/// generator's push spans and the sink spans.
OpenLoopResult run_open_loop(const SlotFeed& feed, double rate_hz,
                             double sink_delay_us, SpanBuffer* gen_spans,
                             SpanBuffer* sink_spans);

}  // namespace perfbench
