// Fleet orchestration: N supervised (cell config, gNB sim, NrScopePipeline)
// triples running concurrently over one shared WorkerPool — the multi-cell
// deployment the paper gestures at when a single sniffer host watches
// several carriers.  Each tick the orchestrator hands every running cell a
// "advance slots_per_tick slots" task (gNB step -> virtual radio capture ->
// pipeline push); the cell's own pipeline thread demodulates and decodes,
// and a per-cell sink fans the results into the FleetAggregator.
//
// The air is simulated, so it can wait: the advance task feeds each slot
// with the pipeline's closed-loop push_slot_wait().  A slow pipeline slows
// its own cell's advance instead of losing a slot, so a cell's SlotResult
// stream is a function of its seed alone — the same stream the synchronous
// NrScope produces from build_fleet_cell(), whatever the pool size or
// queue depth.
//
// Supervision: every cell carries a heartbeat (slots delivered, wall-clock
// of last progress).  A cell whose advance task throws has crashed; a cell
// whose heartbeat goes quiet for stall_timeout_s has stalled: it is being
// fed, but nothing reaches its sniffer (a dark radio).  A wedged engine
// thread is not a stall the detector can see: it holds the cell's advance
// task inside push_slot_wait(), and with it the tick, just as it would
// hold the stop() inside a teardown.  Either way the supervisor tears the
// triple down (pipeline.stop() drains what was accepted), waits out a bounded
// exponential backoff, and rebuilds the triple from scratch with a fresh
// deterministic seed derived from (fleet seed, cell index, incarnation) —
// so the restarted sniffer re-syncs and re-acquires C-RNTIs through the
// RACH exactly like a restarted real deployment.  A cell that exceeds
// max_restarts is declared failed and the rest of the fleet carries on.
//
// Sync loss is deliberately NOT a teardown trigger: a resyncing engine
// still delivers (empty) slots, so the stall detector stays quiet and the
// cell heals in place through the engine's kResync path, keeping its
// tracked-UE state.  Only a cell stuck in kResync past resync_deadline_s
// is escalated to the full teardown/backoff/rebuild cycle (counted in
// fleet.resync_escalations).
//
// Fault injection: each cell can carry a FaultSchedule.  Its IQ-level
// kinds (outage, sample gap, glitch, CFO) ride inside the cell's
// VirtualRadio; the feeder-level kinds are applied here while feeding —
// kTimingJump fast-forwards the gNB without telling the sniffer,
// kCellRestart rebuilds the gNB with a shifted PCI, kSib1Change rebuilds
// it with the same PCI but a flipped CORESET interleaver (every tracked
// PDCCH candidate turns to garbage until SIB1 is re-read).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/worker_pool.h"
#include "fleet/aggregator.h"
#include "gnb/gnb_sim.h"
#include "net/stream_server.h"
#include "net/wire.h"
#include "nr/cell_config.h"
#include "nrscope/pipeline.h"
#include "radio/impairments.h"
#include "radio/virtual_radio.h"

namespace nrs {

enum class FleetCellState : std::uint8_t {
  kRunning = 0,
  kBackoff = 1,   ///< torn down, waiting for the restart deadline
  kFailed = 2,    ///< exceeded max_restarts; permanently down
  kDetached = 3,  ///< removed at runtime (remove_cell); never restarted
};

const char* to_string(FleetCellState state);

/// Fault-injection verdict for one feed slot (tests and demos).
enum class FaultAction : std::uint8_t {
  kNone,  ///< feed the slot normally
  kMute,  ///< drop it before the radio: the sniffer sees a dark cell and
          ///< the supervisor's stall detector eventually fires
};

/// Called once per gNB slot on the advance task's pool thread with the
/// feed slot index *within the current incarnation* and the incarnation
/// number.  Throwing models a crash of the cell monitor.
using FleetFaultHook =
    std::function<FaultAction(std::uint64_t slot, unsigned incarnation)>;

struct FleetCellSpec {
  CellConfig cell;
  unsigned n_ues = 2;
  double ue_rate_bps = 2e6;
  double ue_snr_db = 18.0;
  double sniffer_snr_db = 28.0;
  std::size_t queue_depth = 64;  ///< pipeline input queue bound
  FleetFaultHook fault_hook;     ///< optional injection (tests/demos)
  /// Scripted impairments, indexed by the feed slot within the current
  /// incarnation.  IQ-level kinds are wired into the cell's VirtualRadio;
  /// feeder-level kinds (timing jump, gNB restart, SIB1 change) fire in
  /// advance_cell at their start slot.  Validated at start_cell.
  FaultSchedule faults;
  /// Per-cell seed base override.  0 (default) derives the cell's seeds
  /// from (fleet seed, cell index, incarnation); non-zero replaces the
  /// (fleet seed, cell index) part, which is what a distributed worker
  /// needs — the coordinator picks one base per *global* cell, so the same
  /// cell draws the same stream no matter which worker (and at which local
  /// index) it lands on.
  std::uint64_t seed = 0;
};

struct FleetConfig {
  std::vector<FleetCellSpec> cells;
  unsigned pool_threads = 4;  ///< shared advance pool (the scale knob)
  std::uint64_t seed = 1;     ///< fleet seed; per-cell seeds derive from it
  std::uint64_t slots_per_tick = 20;

  // Supervision policy.  The stall timeout must absorb benign scheduling
  // delay: when cells outnumber pool threads a healthy cell can sit a few
  // tick rounds without delivering, and a false stall verdict costs a full
  // teardown + re-sync.
  double stall_timeout_s = 1.0;  ///< heartbeat silence -> stall
  double backoff_initial_s = 0.02;
  double backoff_max_s = 0.5;
  double backoff_factor = 2.0;
  /// Give up on a cell after this many restarts (-1 = never).
  int max_restarts = 8;
  /// A cell that delivers this many slots in one incarnation is healthy
  /// again: its backoff resets to the initial value.
  std::uint64_t healthy_slots = 200;
  /// Sync loss heals in place (the engine's kResync path) — but a cell
  /// still resyncing after this much wall-clock is escalated to a full
  /// teardown/rebuild.  Must be long enough for the engine's grace window
  /// (resync_grace_slots) to play out at the fleet's feed rate.
  double resync_deadline_s = 3.0;

  std::uint64_t rate_window_slots = 2000;

  /// Optional: broadcast a kFleet aggregate frame on this stream server
  /// every `aggregate_period_ticks` ticks (the fan-in counterpart of the
  /// per-cell slot streams).  Not owned; must outlive the orchestrator.
  TelemetryStreamServer* stream = nullptr;
  std::uint64_t aggregate_period_ticks = 1;
};

/// One fleet cell's simulated air (gNB with its UE population, and the
/// sniffer's virtual radio) plus its engine settings, exactly as the
/// orchestrator builds them for (fleet seed, cell index, incarnation).
/// Without feeder-level faults or a fault hook, feeding
/// radio.capture(gnb.step()) into an NrScope built from `scope`
/// reproduces the cell's stream synchronously.
struct FleetCellSim {
  std::unique_ptr<GnbSim> gnb;
  std::unique_ptr<VirtualRadio> radio;
  NrScopeConfig scope;
};

FleetCellSim build_fleet_cell(const FleetCellSpec& spec,
                              std::uint64_t fleet_seed,
                              std::uint32_t cell_index,
                              unsigned incarnation = 0);

/// Heartbeat + push-timestamp ring shared between a cell's advance task
/// (producer side) and its pipeline sink (engine thread).  Defined in
/// fleet.cc.
struct FleetFeedState;

class FleetOrchestrator {
 public:
  /// Builds and starts every cell (they begin RACHing / syncing on the
  /// first tick).  `registry` receives the fleet.* metrics: per-cell
  /// namespaces, restart counters, and the fleet.slot_latency_us
  /// push-to-delivery histogram.
  FleetOrchestrator(FleetConfig config, MetricsRegistry& registry);
  ~FleetOrchestrator();

  FleetOrchestrator(const FleetOrchestrator&) = delete;
  FleetOrchestrator& operator=(const FleetOrchestrator&) = delete;

  /// One supervision round: restart cells whose backoff expired, advance
  /// every running cell by slots_per_tick slots on the shared pool, then
  /// check heartbeats and emit the periodic aggregate frame.
  void tick();

  /// Tick until every non-failed cell has fed at least `target_slots`
  /// lifetime slots (restarts included), or every cell has failed.
  void run_until(std::uint64_t target_slots);

  /// Tear down every cell: pipelines drain their accepted slots into the
  /// aggregator and all threads join.  Idempotent; the destructor calls it.
  void stop();

  /// Builds one cell's sink — called once per (cell, incarnation), so a
  /// restarted cell gets a fresh sink from the same factory.
  using SinkFactory =
      std::function<std::shared_ptr<SlotSink>(std::uint32_t cell_index)>;

  /// Fleet-wide counterpart of NrScopePipeline::add_sink: register a named
  /// sink factory, applied to every live cell pipeline now and re-applied
  /// on every restart.  Fault isolation is per cell via the pipeline's
  /// SinkChain (same name, same error_limit semantics).  The orchestrator's
  /// own aggregator sink goes through this path too (name "fleet").
  /// Not thread-safe with tick(); call from the supervising thread.
  void add_sink(const std::string& name, SinkFactory factory,
                std::uint64_t error_limit = 1);

  /// Unregister the factory and detach the sink from every live cell.
  /// False when no factory of that name was registered.
  bool detach_sink(const std::string& name);

  /// Append and start one cell at runtime (the lease-driven grow path of a
  /// distributed worker).  `initial_incarnation` seeds the supervisor's
  /// incarnation counter, so a cell handed off from a dead worker resumes
  /// with a fresh deterministic stream instead of replaying its old one.
  /// Returns the new cell's index.  Not thread-safe with tick(); call from
  /// the supervising thread.
  std::uint32_t add_cell(FleetCellSpec spec,
                         unsigned initial_incarnation = 0);

  /// Tear the cell down (pipeline drains into the aggregator) and mark it
  /// kDetached: the supervisor never restarts it, ticks skip it, and its
  /// aggregator totals freeze in place.  Indices of other cells do not
  /// shift.  False when the index is out of range or the cell is already
  /// detached.  Not thread-safe with tick().
  bool remove_cell(std::uint32_t cell_index);

  [[nodiscard]] std::size_t n_cells() const { return cells_.size(); }
  [[nodiscard]] FleetCellState cell_state(std::uint32_t cell_index) const;
  [[nodiscard]] unsigned cell_restarts(std::uint32_t cell_index) const;
  /// Lifetime slots delivered by the cell's pipelines (across restarts).
  [[nodiscard]] std::uint64_t cell_slots(std::uint32_t cell_index) const;
  /// Cells torn down because they were stuck in kResync past the deadline.
  [[nodiscard]] std::uint64_t resync_escalations() const {
    return m_resync_escalations_->value();
  }

  [[nodiscard]] const FleetAggregator& aggregator() const {
    return aggregator_;
  }
  [[nodiscard]] FleetRollup rollup() const { return aggregator_.rollup(); }
  /// Wire-ready aggregate: rollup() plus each cell's supervision state.
  [[nodiscard]] FleetSummary summary() const;

 private:
  struct CellRunner {
    FleetCellSpec spec;
    std::uint32_t index = 0;
    FleetCellState state = FleetCellState::kBackoff;
    unsigned incarnation = 0;
    unsigned restarts = 0;
    double backoff_s = 0.0;  ///< 0 = healthy (next failure starts initial)
    std::chrono::steady_clock::time_point restart_at{};
    std::uint64_t feed_slot = 0;        ///< gNB slots this incarnation
    std::uint64_t pushes = 0;           ///< slots pushed this incarnation
    std::uint64_t pushed_lifetime = 0;  ///< pushes across incarnations
    std::uint64_t slots_at_start = 0;   ///< aggregator slots at (re)start
    std::uint64_t readd_ues_at = 0;  ///< feed slot to re-attach UEs (0=none)
    std::uint64_t readd_seed = 0;    ///< seed base for the re-attach
    std::unique_ptr<GnbSim> gnb;
    std::unique_ptr<VirtualRadio> radio;
    std::unique_ptr<NrScopePipeline> pipeline;
    std::shared_ptr<FleetFeedState> feed;
    Histogram* m_latency = nullptr;  ///< fleet.cell<N>.slot_latency_us
    Gauge* m_state = nullptr;        ///< fleet.cell<N>.state
  };

  void start_cell(CellRunner& runner);
  /// The per-tick pool task: step the gNB, consult the fault hook, capture
  /// and push slots_per_tick slots.  Exceptions propagate to tick().
  void advance_cell(CellRunner& runner);
  /// Feeder-level fault (timing jump / gNB restart / SIB1 change) firing
  /// at the current feed slot.  Runs on the advance task's pool thread.
  void apply_feeder_event(CellRunner& runner, const FaultEvent& event);
  void fail_cell(CellRunner& runner, bool crashed);
  void set_state(CellRunner& runner, FleetCellState state);

  struct SinkSpec {
    std::string name;
    SinkFactory factory;
    std::uint64_t error_limit = 1;
  };

  FleetConfig config_;
  MetricsRegistry* registry_;
  FleetAggregator aggregator_;
  WorkerPool pool_;
  std::vector<std::unique_ptr<CellRunner>> cells_;
  std::vector<SinkSpec> sink_specs_;
  std::uint64_t tick_count_ = 0;
  bool stopped_ = false;

  Histogram* m_latency_;  ///< fleet.slot_latency_us (push -> delivery)
  Counter* m_crashes_;
  Counter* m_stalls_;
  Counter* m_resync_escalations_;
};

}  // namespace nrs
