// The asynchronous processing pipeline of paper Fig. 4, as one feed queue
// and one engine thread: radio samples flow through a bounded queue to a
// thread that runs the tracking engine on each slot and hands each result
// to the attached SlotSinks.  The paper spreads each slot's FFT over
// demodulation workers, because the FFT dominates its signal processing
// (section 5.3.2); here the engine demodulates only the OFDM symbols it
// reads (NrScope::process_slot), which leaves too little FFT work to be
// worth a thread pool (DESIGN.md, "One engine thread").
//
// Feeding: a feeder fills an acquire_samples() buffer and hands it over
// with one of two pushes.  A real radio cannot wait, so push_slot() is
// open loop: a full input queue refuses the slot (the paper's "on-demand
// slot data processing" load shedding) and the feeder declares the loss
// with skip_slots(1).  Simulated air can wait, so push_slot_wait() is
// closed loop: it blocks until the queue has room and never loses a slot,
// which makes the delivered stream independent of thread timing.
//
// Hot-path memory discipline (DESIGN.md): sample buffers are pooled and
// the engine thread reuses one SlotResult — the steady state performs
// zero heap allocations per slot after warm-up.
//
// Output: the engine thread delivers each result, in slot order, to every
// attached SlotSink by const reference, and calls on_finish() once after
// the last slot.  stop() ends a run.
// Every stage reports into a shared MetricsRegistry (the engine's):
// queue depth/drop reasons, the engine thread's wait and per-slot time,
// and — when the allocation shim is linked (common/alloc_shim.h) —
// process heap traffic as alloc.* gauges; metrics() snapshots all of it.
#pragma once

// perfbench/src/chain.cc calls std::find and relies on this include.
#include <algorithm>
#include <atomic>
#include <cstdint>
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
  explicit NrScopePipeline(const NrScopeConfig& config,
                           std::size_t queue_depth = 64);
  /// Kept for perfbench/src, which still passes a demod worker count,
  /// until the next benchmark change: the middle argument is ignored.
  [[deprecated("there are no demod workers; use (config, queue_depth)")]]
  NrScopePipeline(const NrScopeConfig& config, unsigned,
                  std::size_t queue_depth)
      : NrScopePipeline(config, queue_depth) {}
  ~NrScopePipeline();

  NrScopePipeline(const NrScopePipeline&) = delete;
  NrScopePipeline& operator=(const NrScopePipeline&) = delete;

  /// Attach a result consumer under `name`.  Attach sinks before the first
  /// push: a slot completed while no sink is attached reaches nobody (the
  /// engine's telemetry still sees it).  Fault isolation is the
  /// SinkChain's: a sink whose on_slot()/on_finish() throws is counted
  /// (pipeline.sink_errors and pipeline.sink.<name>.errors) and detached at
  /// that first throw, and the run continues.  Returns the registered name
  /// (uniquified when `name` collides).
  std::string add_sink(std::string name, std::shared_ptr<SlotSink> sink);

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
  /// SDR overflow report or a refused push_slot()): the engine's slot
  /// clock advances over them, so its frame phase stays locked across the
  /// gap.  Call from the feeder thread (the same single-caller contract as
  /// the pushes).  The gap takes effect just before the next accepted
  /// slot is processed, or when the run drains if no slot follows it.
  void skip_slots(std::uint64_t n);

  /// End the run: close the input, let every queued slot drain through
  /// the engine and the sinks, fire the sinks' on_finish() once, and join
  /// the engine thread.  After stop() returns the engine is safe to
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

  /// Pooled sample buffers currently checked out.  Once stop() returns
  /// this must be zero regardless of what state the engine was in when
  /// the feed ended: the drain hands every in-flight buffer back even
  /// mid-resync.  Nonzero after stop() means a pooled handle leaked.
  [[nodiscard]] std::size_t buffers_in_flight() const {
    return sample_pool_.created() - sample_pool_.available();
  }

 private:
  struct Job {
    /// Slots declared lost (skip_slots) between the previous job and this.
    std::uint64_t gap_before = 0;
    BufferPool<IqBuffer>::Handle samples;
  };

  /// Bookkeeping shared by both pushes once a slot is enqueued.
  void count_accepted();
  void engine_loop();

  std::unique_ptr<NrScope> engine_;
  unsigned samples_per_slot_ = 0;

  // The pool outlives every holder of its handles: it is declared before
  // the queue, and stop() joins the engine thread before any member is
  // destroyed.
  BufferPool<IqBuffer> sample_pool_;
  BoundedQueue<Job> input_;
  std::thread engine_thread_;

  SinkChain sinks_;

  /// Slots declared lost since the last accepted push.  Written by the
  /// feeder; the engine thread reads it only after the input drains.
  std::atomic<std::uint64_t> pending_gap_{0};

  // Stage metrics (handles into the engine's registry).
  Counter* m_slots_pushed_ = nullptr;
  Counter* m_drop_queue_full_ = nullptr;
  Counter* m_drop_finished_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
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
