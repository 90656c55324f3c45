#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <utility>

#include "nrscope/slot_sink.h"
#include "ue/traffic.h"

namespace nrs {

namespace {

using Clock = std::chrono::steady_clock;

/// Feed slots between a PCI-changing gNB restart and its UE population
/// re-attaching (~0.3 s at 30 kHz SCS) — long enough for the sniffer to
/// re-lock first.
constexpr std::uint64_t kUeReattachDelaySlots = 600;

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: cheap, well-mixed seed derivation.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic per-(cell, incarnation) seed: every restart draws a fresh
/// but reproducible stream, and no two cells ever share one.  A per-spec
/// seed base replaces (fleet seed, cell index): leased cells stay
/// deterministic across workers regardless of local index.
std::uint64_t cell_seed(const FleetCellSpec& spec, std::uint64_t fleet_seed,
                        std::uint32_t cell_index, unsigned incarnation) {
  if (spec.seed != 0) {
    fleet_seed = spec.seed;
    cell_index = 0;
  }
  return splitmix64(fleet_seed ^
                    splitmix64((static_cast<std::uint64_t>(cell_index) << 32) |
                               incarnation));
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  return splitmix64(base ^ splitmix64(stream));
}

/// Attach the spec's UE population to `gnb`.
void add_ues(GnbSim& gnb, const FleetCellSpec& spec, std::uint64_t seed) {
  for (unsigned u = 0; u < spec.n_ues; ++u) {
    UeConfig ue;
    ue.id = u;
    ue.channel.snr_db = spec.ue_snr_db;
    ue.channel.seed = derive_seed(seed, 1000 + u);
    ue.dl_traffic = std::make_unique<CbrSource>(spec.ue_rate_bps);
    ue.ul_traffic = std::make_unique<CbrSource>(spec.ue_rate_bps * 0.25);
    ue.seed = derive_seed(seed, 2000 + u);
    gnb.add_ue(std::move(ue));
  }
}

/// Build the cell's gNB from spec.cell; `with_ues` attaches the UE
/// population immediately (a restarted cell defers it instead).
std::unique_ptr<GnbSim> make_gnb(const FleetCellSpec& spec,
                                 std::uint64_t seed, bool with_ues) {
  GnbConfig gnb_config;
  gnb_config.cell = spec.cell;
  gnb_config.seed = seed;
  auto gnb = std::make_unique<GnbSim>(std::move(gnb_config));
  if (with_ues) {
    add_ues(*gnb, spec, seed);
  }
  return gnb;
}

}  // namespace

FleetCellSim build_fleet_cell(const FleetCellSpec& spec,
                              std::uint64_t fleet_seed,
                              std::uint32_t cell_index,
                              unsigned incarnation) {
  const std::uint64_t seed =
      cell_seed(spec, fleet_seed, cell_index, incarnation);
  FleetCellSim sim;
  sim.gnb = make_gnb(spec, seed, /*with_ues=*/true);

  VirtualRadioConfig radio_config;
  radio_config.n_prb = spec.cell.n_prb;
  radio_config.channel.snr_db = spec.sniffer_snr_db;
  radio_config.channel.seed = derive_seed(seed, 3000);
  // IQ-level faults ride inside the radio; the feeder-level kinds in the
  // same schedule are applied by advance_cell.  A restarted incarnation
  // replays the schedule from slot 0 (feed_slot resets with it).
  radio_config.faults = spec.faults;
  radio_config.fault_seed = derive_seed(seed, 4000);
  sim.radio = std::make_unique<VirtualRadio>(radio_config);

  sim.scope.n_prb = spec.cell.n_prb;
  sim.scope.scs = spec.cell.scs;
  return sim;
}

const char* to_string(FleetCellState state) {
  switch (state) {
    case FleetCellState::kRunning: return "running";
    case FleetCellState::kBackoff: return "backoff";
    case FleetCellState::kFailed: return "failed";
    case FleetCellState::kDetached: return "detached";
  }
  return "unknown";
}

/// Shared between one cell's advance task and its pipeline sink.  The ring
/// records the push wall-clock of each pushed slot, indexed by the
/// pipeline's slot number modulo the ring size; the sink subtracts it on
/// delivery for the push-to-delivery latency histogram.  The ring is 4x the
/// pipeline queue so an in-flight slot's entry cannot be overwritten.
struct FleetFeedState {
  explicit FleetFeedState(std::size_t ring)
      : ring_size(ring),
        push_us(std::make_unique<std::atomic<std::int64_t>[]>(ring)) {
    for (std::size_t i = 0; i < ring_size; ++i) {
      push_us[i].store(0, std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint64_t> slots_delivered{0};
  std::atomic<std::int64_t> last_progress_us{0};
  // Sync health, mirrored from each delivered SlotResult so the
  // supervisor can tell "resyncing in place" from "making no progress".
  std::atomic<std::uint8_t> sync_state{0};
  /// Wall-clock when the current resync spell began; 0 = not resyncing.
  std::atomic<std::int64_t> resync_since_us{0};
  std::atomic<std::uint64_t> degraded_slots{0};
  std::size_t ring_size;
  std::unique_ptr<std::atomic<std::int64_t>[]> push_us;
};

namespace {

/// Per-cell pipeline sink: runs on that cell's engine thread.  Feeds
/// the aggregator, stamps the heartbeat, and records slot latency.
class FleetCellSink : public SlotSink {
 public:
  FleetCellSink(std::uint32_t cell_index, std::shared_ptr<FleetFeedState> feed,
                FleetAggregator* aggregator, Histogram* fleet_latency,
                Histogram* cell_latency)
      : cell_index_(cell_index), feed_(std::move(feed)),
        aggregator_(aggregator), fleet_latency_(fleet_latency),
        cell_latency_(cell_latency) {}

  void on_slot(const SlotResult& result) override {
    const std::int64_t now = steady_now_us();
    const std::int64_t pushed =
        feed_->push_us[result.slot % feed_->ring_size].load(
            std::memory_order_acquire);
    if (pushed > 0 && now >= pushed) {
      const auto latency = static_cast<double>(now - pushed);
      fleet_latency_->observe(latency);
      cell_latency_->observe(latency);
    }
    aggregator_->on_cell_slot(cell_index_, result);
    feed_->sync_state.store(static_cast<std::uint8_t>(result.sync_state),
                            std::memory_order_release);
    if (result.sync_state == SyncState::kResync) {
      // Stamp only on entry, so the supervisor measures the whole spell.
      std::int64_t expected = 0;
      feed_->resync_since_us.compare_exchange_strong(
          expected, now, std::memory_order_acq_rel);
    } else {
      feed_->resync_since_us.store(0, std::memory_order_release);
    }
    if (result.degraded) {
      feed_->degraded_slots.fetch_add(1, std::memory_order_relaxed);
    }
    feed_->slots_delivered.fetch_add(1, std::memory_order_release);
    feed_->last_progress_us.store(now, std::memory_order_release);
  }

 private:
  std::uint32_t cell_index_;
  std::shared_ptr<FleetFeedState> feed_;
  FleetAggregator* aggregator_;
  Histogram* fleet_latency_;
  Histogram* cell_latency_;
};

}  // namespace

FleetOrchestrator::FleetOrchestrator(FleetConfig config,
                                     MetricsRegistry& registry)
    : config_(std::move(config)), registry_(&registry),
      aggregator_(registry, config_.rate_window_slots),
      pool_(config_.pool_threads),
      m_latency_(&registry.histogram("fleet.slot_latency_us")),
      m_crashes_(&registry.counter("fleet.crashes")),
      m_stalls_(&registry.counter("fleet.stalls")),
      m_resync_escalations_(&registry.counter("fleet.resync_escalations")) {
  std::vector<FleetCellSpec> specs = std::move(config_.cells);
  config_.cells.clear();
  cells_.reserve(specs.size());
  for (FleetCellSpec& spec : specs) {
    add_cell(std::move(spec));
  }
}

std::uint32_t FleetOrchestrator::add_cell(FleetCellSpec spec,
                                          unsigned initial_incarnation) {
  const auto index = static_cast<std::uint32_t>(cells_.size());
  auto runner = std::make_unique<CellRunner>();
  runner->spec = std::move(spec);
  runner->index = index;
  runner->incarnation = initial_incarnation;
  aggregator_.add_cell(index, runner->spec.cell);
  MetricsNamespace ns =
      registry_->with_prefix("fleet.cell" + std::to_string(index) + ".");
  runner->m_latency = &ns.histogram("slot_latency_us");
  runner->m_state = &ns.gauge("state");
  cells_.push_back(std::move(runner));
  start_cell(*cells_.back());
  return index;
}

bool FleetOrchestrator::remove_cell(std::uint32_t cell_index) {
  if (cell_index >= cells_.size()) {
    return false;
  }
  CellRunner& runner = *cells_[cell_index];
  if (runner.state == FleetCellState::kDetached) {
    return false;
  }
  if (runner.pipeline != nullptr) {
    runner.pipeline->stop();  // drains accepted slots into the aggregator
  }
  runner.pipeline.reset();
  runner.radio.reset();
  runner.gnb.reset();
  runner.feed.reset();
  set_state(runner, FleetCellState::kDetached);
  return true;
}

FleetOrchestrator::~FleetOrchestrator() { stop(); }

void FleetOrchestrator::set_state(CellRunner& runner, FleetCellState state) {
  runner.state = state;
  runner.m_state->set(static_cast<std::int64_t>(state));
}

void FleetOrchestrator::start_cell(CellRunner& runner) {
  FleetCellSim sim = build_fleet_cell(runner.spec, config_.seed,
                                      runner.index, runner.incarnation);
  runner.gnb = std::move(sim.gnb);
  runner.radio = std::move(sim.radio);
  runner.pipeline = std::make_unique<NrScopePipeline>(
      sim.scope, runner.spec.queue_depth);

  const std::size_t ring =
      std::max<std::size_t>(4 * runner.spec.queue_depth, 256);
  runner.feed = std::make_shared<FleetFeedState>(ring);
  runner.feed->last_progress_us.store(steady_now_us(),
                                      std::memory_order_release);
  // The orchestrator's own aggregator/heartbeat sink rides the same named
  // SinkChain surface as user sinks; a throwing user sink can never take
  // the supervision heartbeat down with it.
  runner.pipeline->add_sink("fleet", std::make_shared<FleetCellSink>(
                                         runner.index, runner.feed,
                                         &aggregator_, m_latency_,
                                         runner.m_latency));
  for (const SinkSpec& spec : sink_specs_) {
    if (auto sink = spec.factory(runner.index)) {
      runner.pipeline->add_sink(spec.name, std::move(sink),
                                spec.error_limit);
    }
  }

  runner.feed_slot = 0;
  runner.readd_ues_at = 0;
  runner.pushes = 0;
  runner.slots_at_start = aggregator_.cell_slots(runner.index);
  set_state(runner, FleetCellState::kRunning);
}

void FleetOrchestrator::apply_feeder_event(CellRunner& runner,
                                           const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kTimingJump: {
      // The gNB's air time runs ahead while the receiver misses it — and,
      // unlike an SDR overflow report, never learns by how much.  No
      // skip_slots() here: the sniffer's frame phase silently breaks and
      // only the sync monitor can notice (expected SSBs measure noise).
      const auto jump = static_cast<std::uint64_t>(
          std::max(1.0, event.magnitude));
      for (std::uint64_t j = 0; j < jump; ++j) {
        runner.gnb->step();
      }
      break;
    }
    case FaultKind::kCellRestart:
    case FaultKind::kSib1Change: {
      if (event.kind == FaultKind::kCellRestart) {
        // Same site, new identity: PCI moves by `magnitude` and the
        // CORESET scrambling identities move with it.
        const auto delta = std::max<std::uint16_t>(
            1, static_cast<std::uint16_t>(event.magnitude));
        runner.spec.cell.pci =
            static_cast<std::uint16_t>((runner.spec.cell.pci + delta) % 1008);
        runner.spec.cell.coreset.shift = runner.spec.cell.pci;
        runner.spec.cell.coreset.n_id = runner.spec.cell.pci;
      } else {
        // Same PCI, different SIB1: flipping the CCE interleaver moves
        // every PDCCH candidate, so tracked UEs decode garbage until the
        // sniffer's blind-decode monitor forces a SIB1 re-read.
        runner.spec.cell.coreset.interleaved =
            !runner.spec.cell.coreset.interleaved;
      }
      const std::uint64_t seed =
          derive_seed(cell_seed(runner.spec, config_.seed, runner.index,
                                runner.incarnation),
                      5000 + runner.feed_slot);
      const bool new_pci = event.kind == FaultKind::kCellRestart;
      runner.gnb = make_gnb(runner.spec, seed, /*with_ues=*/!new_pci);
      if (new_pci) {
        // Subscribers re-register over the seconds after a restart;
        // holding their RACH until the sniffer has re-locked onto the new
        // PCI keeps the attach observable (Msg2-assisted tracking has to
        // see it to learn the new C-RNTIs).
        runner.readd_ues_at = runner.feed_slot + kUeReattachDelaySlots;
        runner.readd_seed = seed;
      }
      break;
    }
    default:
      break;  // IQ-level kinds are the radio injector's business
  }
}

void FleetOrchestrator::advance_cell(CellRunner& runner) {
  for (std::uint64_t k = 0; k < config_.slots_per_tick; ++k) {
    if (const FaultEvent* event =
            runner.spec.faults.feeder_event_at(runner.feed_slot)) {
      apply_feeder_event(runner, *event);
    }
    if (runner.readd_ues_at != 0 &&
        runner.feed_slot >= runner.readd_ues_at) {
      add_ues(*runner.gnb, runner.spec, runner.readd_seed);
      runner.readd_ues_at = 0;
    }
    const ResourceGrid& grid = runner.gnb->step();
    FaultAction action = FaultAction::kNone;
    if (runner.spec.fault_hook) {
      // May throw: that is the crash-injection path, and it surfaces to
      // tick() through the pool task's future.
      action = runner.spec.fault_hook(runner.feed_slot, runner.incarnation);
    }
    ++runner.feed_slot;
    if (action == FaultAction::kMute) {
      continue;  // dark radio: the gNB ran, the sniffer saw nothing
    }
    // Pooled feed path (hot-path memory discipline): borrow a recycled
    // sample buffer from the pipeline, capture into it, and hand it back —
    // no per-slot buffer allocation once the pool is warm.
    auto samples = runner.pipeline->acquire_samples();
    runner.radio->capture_into(grid, *samples);
    // Stamp before the push: the slot's pipeline index is exactly
    // `pushes`, and the sink may consume it immediately.  The closed-loop
    // push waits for room, so a slow pipeline slows this cell's advance
    // instead of losing the slot; it refuses only a stopped pipeline,
    // which no tick ever feeds.
    runner.feed->push_us[runner.pushes % runner.feed->ring_size].store(
        steady_now_us(), std::memory_order_release);
    runner.pipeline->push_slot_wait(std::move(samples));
    ++runner.pushes;
    ++runner.pushed_lifetime;
  }
}

void FleetOrchestrator::fail_cell(CellRunner& runner, bool crashed) {
  (crashed ? m_crashes_ : m_stalls_)->inc();
  if (runner.pipeline != nullptr) {
    runner.pipeline->stop();  // drains accepted slots into the aggregator
  }
  runner.pipeline.reset();
  runner.radio.reset();
  runner.gnb.reset();
  runner.feed.reset();
  ++runner.restarts;
  ++runner.incarnation;
  aggregator_.on_cell_restart(runner.index);
  if (config_.max_restarts >= 0 &&
      runner.restarts > static_cast<unsigned>(config_.max_restarts)) {
    set_state(runner, FleetCellState::kFailed);
    return;
  }
  runner.backoff_s =
      runner.backoff_s <= 0.0
          ? config_.backoff_initial_s
          : std::min(config_.backoff_max_s,
                     runner.backoff_s * config_.backoff_factor);
  runner.restart_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(runner.backoff_s));
  set_state(runner, FleetCellState::kBackoff);
}

void FleetOrchestrator::tick() {
  const auto now = Clock::now();
  for (auto& cp : cells_) {
    if (cp->state == FleetCellState::kBackoff && now >= cp->restart_at) {
      start_cell(*cp);
    }
  }

  std::vector<std::pair<CellRunner*, std::future<void>>> inflight;
  inflight.reserve(cells_.size());
  for (auto& cp : cells_) {
    if (cp->state != FleetCellState::kRunning) {
      continue;
    }
    CellRunner* runner = cp.get();
    inflight.emplace_back(
        runner, pool_.submit([this, runner] { advance_cell(*runner); }));
  }
  for (auto& [runner, fut] : inflight) {
    try {
      fut.get();
    } catch (...) {
      fail_cell(*runner, /*crashed=*/true);
    }
  }

  const std::int64_t now_us = steady_now_us();
  const auto stall_us =
      static_cast<std::int64_t>(config_.stall_timeout_s * 1e6);
  const auto resync_deadline_us =
      static_cast<std::int64_t>(config_.resync_deadline_s * 1e6);
  for (auto& cp : cells_) {
    CellRunner& runner = *cp;
    if (runner.state != FleetCellState::kRunning) {
      continue;
    }
    if (aggregator_.cell_slots(runner.index) - runner.slots_at_start >=
        config_.healthy_slots) {
      runner.backoff_s = 0.0;  // healthy again: backoff restarts from initial
    }
    // A resyncing engine still delivers slots, so it never looks stalled;
    // in-place recovery is the preferred outcome and gets the whole
    // deadline.  Escalate to teardown only once the deadline passes.
    const std::int64_t resync_since =
        runner.feed->resync_since_us.load(std::memory_order_acquire);
    if (resync_since > 0 && now_us - resync_since > resync_deadline_us) {
      m_resync_escalations_->inc();
      fail_cell(runner, /*crashed=*/false);
      continue;  // fail_cell released runner.feed
    }
    if (now_us - runner.feed->last_progress_us.load(
                     std::memory_order_acquire) >
        stall_us) {
      fail_cell(runner, /*crashed=*/false);
    }
  }

  if (inflight.empty()) {
    // Every cell is in backoff (or failed): don't spin while waiting for
    // a restart deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ++tick_count_;
  if (config_.stream != nullptr && config_.aggregate_period_ticks > 0 &&
      tick_count_ % config_.aggregate_period_ticks == 0) {
    config_.stream->broadcast_frame(encode_frame(summary()));
  }
}

void FleetOrchestrator::run_until(std::uint64_t target_slots) {
  while (true) {
    bool any_live = false;
    bool all_done = true;
    for (const auto& cp : cells_) {
      if (cp->state == FleetCellState::kFailed ||
          cp->state == FleetCellState::kDetached) {
        continue;
      }
      any_live = true;
      if (cp->pushed_lifetime < target_slots) {
        all_done = false;
      }
    }
    if (!any_live || all_done) {
      return;
    }
    tick();
  }
}

void FleetOrchestrator::add_sink(const std::string& name,
                                 SinkFactory factory,
                                 std::uint64_t error_limit) {
  if (!factory) {
    return;
  }
  sink_specs_.push_back(SinkSpec{name, std::move(factory), error_limit});
  const SinkSpec& spec = sink_specs_.back();
  for (auto& cp : cells_) {
    if (cp->state == FleetCellState::kRunning && cp->pipeline != nullptr) {
      if (auto sink = spec.factory(cp->index)) {
        cp->pipeline->add_sink(spec.name, std::move(sink),
                               spec.error_limit);
      }
    }
  }
}

bool FleetOrchestrator::detach_sink(const std::string& name) {
  bool found = false;
  for (auto it = sink_specs_.begin(); it != sink_specs_.end();) {
    if (it->name == name) {
      it = sink_specs_.erase(it);
      found = true;
    } else {
      ++it;
    }
  }
  if (found) {
    for (auto& cp : cells_) {
      if (cp->pipeline != nullptr) {
        cp->pipeline->detach_sink(name);
      }
    }
  }
  return found;
}

void FleetOrchestrator::stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  for (auto& cp : cells_) {
    if (cp->pipeline != nullptr) {
      cp->pipeline->stop();
    }
  }
}

FleetCellState FleetOrchestrator::cell_state(std::uint32_t cell_index) const {
  return cells_.at(cell_index)->state;
}

unsigned FleetOrchestrator::cell_restarts(std::uint32_t cell_index) const {
  return cells_.at(cell_index)->restarts;
}

std::uint64_t FleetOrchestrator::cell_slots(std::uint32_t cell_index) const {
  return aggregator_.cell_slots(cell_index);
}

FleetSummary FleetOrchestrator::summary() const {
  const FleetRollup roll = aggregator_.rollup();
  FleetSummary s;
  s.slot = roll.slot;
  s.dcis_total = roll.dcis_total;
  s.restarts_total = roll.restarts_total;
  s.dl_mbps_total = roll.dl_mbps_total;
  s.ul_mbps_total = roll.ul_mbps_total;
  s.retx_rate = roll.retx_rate;
  s.spare_ranking = roll.spare_ranking;
  s.cells.reserve(roll.cells.size());
  for (const CellRollup& c : roll.cells) {
    CellSummary cs;
    cs.cell_index = c.cell_index;
    cs.name = c.name;
    cs.state = static_cast<std::uint8_t>(cells_.at(c.cell_index)->state);
    cs.slots = c.slots;
    cs.dcis = c.dcis;
    cs.restarts = c.restarts;
    cs.active_ues = c.active_ues;
    cs.dl_mbps = c.dl_mbps;
    cs.ul_mbps = c.ul_mbps;
    cs.retx_rate = c.retx_rate;
    cs.utilization = c.utilization;
    s.cells.push_back(std::move(cs));
  }
  return s;
}

}  // namespace nrs
