#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <utility>

#include "common/rng.h"
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

  std::size_t ring_size;
  std::unique_ptr<std::atomic<std::int64_t>[]> push_us;
};

namespace {

/// Per-cell pipeline sink: runs on that cell's engine thread.  Feeds the
/// aggregator and records slot latency.
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
      aggregator_(registry),
      pool_(config_.pool_threads),
      m_latency_(&registry.histogram("fleet.slot_latency_us")),
      m_crashes_(&registry.counter("fleet.crashes")),
      m_stalls_(&registry.counter("fleet.stalls")) {
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
  // The orchestrator's own aggregator sink rides the same named SinkChain
  // surface as user sinks; a throwing user sink never takes it down.
  runner.pipeline->add_sink("fleet", std::make_shared<FleetCellSink>(
                                         runner.index, runner.feed,
                                         &aggregator_, m_latency_,
                                         runner.m_latency));
  for (const SinkSpec& spec : sink_specs_) {
    if (auto sink = spec.factory(runner.index)) {
      runner.pipeline->add_sink(spec.name, std::move(sink));
    }
  }

  runner.feed_slot = 0;
  runner.muted_slots = 0;
  runner.readd_ues_at = 0;
  runner.pushes = 0;
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

void FleetOrchestrator::advance_cell(CellRunner& runner,
                                     std::uint64_t target) {
  for (std::uint64_t k = 0;
       k < config_.slots_per_tick && runner.pushed_lifetime < target; ++k) {
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
      // supervise() through the pool task's future.
      action = runner.spec.fault_hook(runner.feed_slot, runner.incarnation);
    }
    ++runner.feed_slot;
    if (action == FaultAction::kMute) {
      // Dark radio: the gNB ran, the sniffer saw nothing.  supervise() reads
      // the run after this task ends.
      ++runner.muted_slots;
      continue;
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
    runner.muted_slots = 0;
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
  if (runner.restarts > kMaxCellRestarts) {
    set_state(runner, FleetCellState::kFailed);
    return;
  }
  if (runner.pushes >= kHealthySlots) {
    runner.failures = 0;  // it ran healthy before failing
  }
  const std::chrono::duration<double> wait(
      backoff_base_delay(kCellBackoff, runner.failures++));
  runner.restart_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(wait);
  set_state(runner, FleetCellState::kBackoff);
}

void FleetOrchestrator::tick() { supervise(kNoTarget); }

void FleetOrchestrator::supervise(std::uint64_t target) {
  const auto now = Clock::now();
  for (auto& cp : cells_) {
    if (cp->state == FleetCellState::kBackoff && now >= cp->restart_at) {
      start_cell(*cp);
    }
  }

  std::vector<std::pair<CellRunner*, std::future<void>>> inflight;
  inflight.reserve(cells_.size());
  for (auto& cp : cells_) {
    if (cp->state != FleetCellState::kRunning ||
        cp->pushed_lifetime >= target) {
      continue;
    }
    CellRunner* runner = cp.get();
    inflight.emplace_back(runner, pool_.submit([this, runner, target] {
      advance_cell(*runner, target);
    }));
  }
  for (auto& [runner, fut] : inflight) {
    try {
      fut.get();
    } catch (...) {
      fail_cell(*runner, /*crashed=*/true);
      continue;
    }
    if (runner->muted_slots >= kStallSlots) {
      fail_cell(*runner, /*crashed=*/false);
    }
  }

  if (inflight.empty()) {
    // Every cell left to feed is in backoff (or failed): don't spin while
    // waiting for a restart deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
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
    supervise(target_slots);
  }
}

void FleetOrchestrator::add_sink(const std::string& name,
                                 SinkFactory factory) {
  if (!factory) {
    return;
  }
  sink_specs_.push_back(SinkSpec{name, std::move(factory)});
  const SinkSpec& spec = sink_specs_.back();
  for (auto& cp : cells_) {
    if (cp->state == FleetCellState::kRunning && cp->pipeline != nullptr) {
      if (auto sink = spec.factory(cp->index)) {
        cp->pipeline->add_sink(spec.name, std::move(sink));
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
  FleetSummary summary = aggregator_.summary();
  for (CellSummary& cell : summary.cells) {
    cell.state = static_cast<std::uint8_t>(cells_.at(cell.cell_index)->state);
  }
  return summary;
}

}  // namespace nrs
