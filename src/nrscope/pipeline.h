// The asynchronous processing pipeline of paper Fig. 4: radio samples
// flow through a bounded queue to a pool of demodulation workers (the
// per-slot FFT is the dominant signal-processing cost, section 5.3.2), and
// an in-order collector runs the tracking engine and hands each result to
// the attached SlotSinks.
//
// Feeding: a feeder fills an acquire_samples() buffer and hands it over
// with one of two pushes.  A real radio cannot wait, so push_slot() is
// open loop: a full input queue refuses the slot (the paper's "on-demand
// slot data processing" load shedding) and the feeder declares the loss
// with skip_slots(1).  Simulated air can wait, so push_slot_wait() is
// closed loop: it blocks until the queue has room and never loses a slot,
// which makes the delivered stream independent of thread timing.
//
// Hot-path memory discipline (DESIGN.md): sample buffers and resource
// grids are pooled, the reorder stage is a fixed ring of pool handles, and
// the collector reuses one SlotResult — the steady state performs zero
// heap allocations per slot after warm-up.
//
// Output: the collector thread delivers each result, in slot order, to
// every attached SlotSink by const reference, and calls on_finish() once
// after the last slot.  stop() ends a run.
// Every stage reports into a shared MetricsRegistry (the engine's):
// queue depth/drop reasons, per-worker FFT time, reorder-buffer occupancy,
// collector wait and back-pressure, and — when the allocation shim is
// linked (common/alloc_shim.h) — process heap traffic as alloc.* gauges;
// metrics() snapshots all of it.
#pragma once

// perfbench/src/chain.cc calls std::find and relies on this include.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "nrscope/nrscope.h"
#include "nrscope/slot_sink.h"

namespace nrs {

class NrScopePipeline {
 public:
  NrScopePipeline(const NrScopeConfig& config, unsigned n_demod_workers,
                  std::size_t queue_depth = 64);
  ~NrScopePipeline();

  NrScopePipeline(const NrScopePipeline&) = delete;
  NrScopePipeline& operator=(const NrScopePipeline&) = delete;

  /// Attach a result consumer under `name`.  Attach sinks before the first
  /// push: a slot completed while no sink is attached reaches
  /// nobody (the engine's telemetry still sees it).  Fault isolation is the SinkChain's: a sink
  /// whose on_slot()/on_finish() throws is counted (pipeline.sink_errors
  /// and pipeline.sink.<name>.errors) and detached once its error budget
  /// — `error_limit` throws, default 1 — is spent, and the run continues.
  /// Returns the registered name (uniquified when `name` collides).
  std::string add_sink(std::string name, std::shared_ptr<SlotSink> sink,
                       std::uint64_t error_limit = 1);

  /// Anonymous attach: auto-names the sink ("sink0", "sink1", ...).
  std::string add_sink(std::shared_ptr<SlotSink> sink) {
    return add_sink({}, std::move(sink));
  }

  /// Detach by registered name; false when no such sink is attached.
  bool detach_sink(std::string_view name) { return sinks_.detach(name); }

  /// Currently attached sinks (faulty sinks shrink this).
  [[nodiscard]] std::size_t sink_count() const { return sinks_.size(); }
  [[nodiscard]] std::vector<std::string> sink_names() const {
    return sinks_.names();
  }

  /// Borrow a pooled sample buffer to fill and hand to a push.
  /// Recycled buffers keep their capacity, so a feeder that resizes to the
  /// slot length and overwrites the contents allocates nothing in steady
  /// state.  Dropping the handle (without pushing) returns the buffer.
  [[nodiscard]] BufferPool<IqBuffer>::Handle acquire_samples();

  /// Open-loop push, for a feed that cannot wait (real air): enqueue one
  /// slot without blocking.  Returns false when the pipeline is saturated
  /// (or already stopped) and the slot was refused — the buffer goes
  /// straight back to the pool either way, and the reason is counted in
  /// pipeline.slots_dropped.{queue_full,finished}.  A refused slot is air
  /// time the engine never sees: declare it with skip_slots(1), or it acts
  /// as an undeclared timing jump.
  bool push_slot(BufferPool<IqBuffer>::Handle samples);

  /// Closed-loop push, for a feed that can wait (simulated or recorded
  /// air): blocks until the input queue has room, so no slot is lost and
  /// the stream does not depend on thread timing.  Returns false only
  /// once stop() has closed the input (counted in
  /// pipeline.slots_dropped.finished).
  bool push_slot_wait(BufferPool<IqBuffer>::Handle samples);

  /// Declare `n` input slots lost (a known stream discontinuity, e.g. an
  /// SDR overflow report or a refused push_slot()): the collector jumps
  /// its reorder window over the missing indices instead of parking
  /// forever on slots that will never arrive, and the engine's slot clock
  /// advances so its frame phase stays locked across the gap.  Call from
  /// the feeder thread (the same single-caller contract as the pushes);
  /// takes effect once every slot pushed before the gap has been
  /// collected.
  void skip_slots(std::uint64_t n);

  /// End the run: close the input, let every queued slot drain through
  /// the engine and the sinks, fire the sinks' on_finish() once, and join
  /// every pipeline thread.  After stop() returns the engine is safe to
  /// inspect from any thread, and a fresh pipeline can be started on the
  /// same feed (the fleet supervisor's restart path).  Idempotent, but not
  /// safe to call concurrently from two threads.
  void stop();

  /// The tracking engine (valid to inspect after draining).
  [[nodiscard]] const NrScope& engine() const { return *engine_; }

  /// Snapshot of every pipeline.* stage metric plus the engine's own.
  [[nodiscard]] MetricsSnapshot metrics() const { return engine_->metrics(); }
  [[nodiscard]] MetricsRegistry& metrics_registry() {
    return engine_->metrics_registry();
  }

  /// Pooled buffers (sample + grid) currently checked out.  Once stop()
  /// returns this must be zero regardless of what state the engine was in
  /// when the feed ended: the drain hands every in-flight buffer back even
  /// mid-resync.  Nonzero after stop() means a pooled handle leaked.
  [[nodiscard]] std::size_t buffers_in_flight() const {
    return (sample_pool_.created() - sample_pool_.available()) +
           (grid_pool_.created() - grid_pool_.available());
  }

 private:
  struct Job {
    std::uint64_t index = 0;
    BufferPool<IqBuffer>::Handle samples;
  };

  /// One cell of the reorder ring between demod workers and the
  /// collector; an engaged handle marks the cell occupied.
  struct ReorderSlot {
    std::uint64_t index = 0;
    BufferPool<ResourceGrid>::Handle grid;
  };

  /// Bookkeeping shared by both pushes once a slot is enqueued.
  void count_accepted();
  void demod_loop(unsigned worker_index);
  void collect_loop();

  std::unique_ptr<NrScope> engine_;
  OfdmConfig ofdm_config_;
  unsigned n_prb_ = 0;

  // Pools outlive every stage that borrows from them: they are declared
  // before the queues / reorder ring that hold handles, and stop() joins
  // all threads before any member is destroyed.
  BufferPool<IqBuffer> sample_pool_;
  BufferPool<ResourceGrid> grid_pool_;

  BoundedQueue<Job> input_;
  std::vector<std::thread> demod_workers_;
  std::thread collector_;

  SinkChain sinks_;

  /// A declared input-stream discontinuity: indices in [from, to) were
  /// never pushed and must be jumped over by the collector.
  struct Gap {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
  };

  // Reorder ring between demod workers and the collector.  Slot index i
  // lives in cell i % size; the in-flight window (input queue + workers)
  // is strictly smaller than the ring, so a worker whose cell is still
  // occupied simply waits for the collector — bounded occupancy, no
  // per-slot node allocation.
  std::mutex reorder_mutex_;
  std::condition_variable reorder_cv_;
  std::vector<ReorderSlot> reorder_slots_;
  std::size_t reorder_count_ = 0;
  // The collector's next expected index.  Workers only park an index once
  // it is inside [collect_upto_, collect_upto_ + ring size): every index in
  // that window maps to a distinct cell, so a fast worker can never lap the
  // ring and steal the cell of a slower worker's still-unparked slot.
  std::uint64_t collect_upto_ = 0;
  bool demod_done_ = false;
  unsigned active_demods_ = 0;
  // Pending declared gaps, in feed order (guarded by reorder_mutex_).
  // Indices are assigned only on accepted pushes, so every pre-gap index
  // is guaranteed to arrive and the front gap begins exactly where the
  // collector's expected index will land.
  std::deque<Gap> gaps_;

  std::atomic<std::uint64_t> next_input_index_{0};

  // Stage metrics (handles into the engine's registry).
  Counter* m_slots_pushed_ = nullptr;
  Counter* m_drop_queue_full_ = nullptr;
  Counter* m_drop_finished_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
  Gauge* m_reorder_depth_ = nullptr;
  Histogram* m_demod_us_ = nullptr;
  std::vector<Histogram*> m_worker_demod_us_;
  Histogram* m_collector_wait_us_ = nullptr;
  Histogram* m_collect_us_ = nullptr;
  Counter* m_stream_gaps_ = nullptr;
  Counter* m_skipped_slots_ = nullptr;
  // Heap-traffic gauges, published per slot when the shim is linked.
  Gauge* m_alloc_allocs_ = nullptr;
  Gauge* m_alloc_frees_ = nullptr;
  Gauge* m_alloc_bytes_ = nullptr;
  Gauge* m_alloc_per_slot_ = nullptr;
};

}  // namespace nrs
