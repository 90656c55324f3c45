#include "nrscope/pipeline.h"

#include <stdexcept>

#include "common/alloc_hooks.h"

namespace nrs {

NrScopePipeline::NrScopePipeline(const NrScopeConfig& config,
                                 std::size_t queue_depth)
    : engine_(std::make_unique<NrScope>(config)),
      samples_per_slot_(make_ofdm_config(config.n_prb).samples_per_slot()),
      input_(queue_depth),
      sinks_(&engine_->metrics_registry(), "pipeline.") {
  if (queue_depth == 0) {
    throw std::invalid_argument("NrScopePipeline: queue_depth must be > 0");
  }
  MetricsRegistry& registry = engine_->metrics_registry();
  m_slots_pushed_ = &registry.counter("pipeline.slots_pushed");
  m_drop_queue_full_ =
      &registry.counter("pipeline.slots_dropped.queue_full");
  m_drop_finished_ = &registry.counter("pipeline.slots_dropped.finished");
  m_queue_depth_ = &registry.gauge("pipeline.input_queue_depth");
  m_collector_wait_us_ = &registry.histogram("pipeline.collector_wait_us");
  m_collect_us_ = &registry.histogram("pipeline.collect_us");
  m_stream_gaps_ = &registry.counter("pipeline.stream_gaps");
  m_skipped_slots_ = &registry.counter("pipeline.slots_skipped");
  m_alloc_allocs_ = &registry.gauge("alloc.allocs");
  m_alloc_frees_ = &registry.gauge("alloc.frees");
  m_alloc_bytes_ = &registry.gauge("alloc.bytes");
  m_alloc_per_slot_ = &registry.gauge("alloc.allocs_per_slot");

  // Pre-size the pool to the worst-case in-flight count so steady state
  // never constructs: samples live in the input queue, in the engine
  // thread's hands and in the caller's next acquire.  Buffers are created
  // at full slot length: steady-state rotation may not cycle through every
  // warmed buffer for thousands of slots, and the first assign() into a
  // cold (capacity-0) buffer would otherwise be a late surprise
  // allocation.
  sample_pool_.warm(queue_depth + 2, samples_per_slot_);

  engine_thread_ = std::thread([this] { engine_loop(); });
}

NrScopePipeline::~NrScopePipeline() { stop(); }

void NrScopePipeline::stop() {
  input_.close();
  if (engine_thread_.joinable()) {
    engine_thread_.join();
  }
}

std::string NrScopePipeline::add_sink(std::string name,
                                      std::shared_ptr<SlotSink> sink,
                                      std::uint64_t error_limit) {
  return sinks_.add(std::move(name), std::move(sink), error_limit);
}

BufferPool<IqBuffer>::Handle NrScopePipeline::acquire_samples() {
  return sample_pool_.acquire(samples_per_slot_);
}

bool NrScopePipeline::push_slot(BufferPool<IqBuffer>::Handle samples) {
  // A rejected job's handle dies right here, returning the buffer; its
  // gap stays pending for the next push.
  switch (input_.try_push_result(
      Job{pending_gap_.load(), std::move(samples)})) {
    case QueuePushResult::kOk:
      break;
    case QueuePushResult::kFull:
      m_drop_queue_full_->inc();
      return false;
    case QueuePushResult::kClosed:
      m_drop_finished_->inc();
      return false;
  }
  count_accepted();
  return true;
}

bool NrScopePipeline::push_slot_wait(BufferPool<IqBuffer>::Handle samples) {
  if (!input_.push(Job{pending_gap_.load(), std::move(samples)})) {
    m_drop_finished_->inc();
    return false;
  }
  count_accepted();
  return true;
}

void NrScopePipeline::count_accepted() {
  // The accepted job carries the pending gap (single feeder thread).
  pending_gap_ = 0;
  m_slots_pushed_->inc();
  m_queue_depth_->set(static_cast<std::int64_t>(input_.size()));
}

void NrScopePipeline::skip_slots(std::uint64_t n) {
  if (n == 0) {
    return;
  }
  pending_gap_ += n;
  m_stream_gaps_->inc();
  m_skipped_slots_->inc(n);
}

void NrScopePipeline::engine_loop() {
  SlotResult result;  // reused every slot; the engine clears it in place
  std::uint64_t last_allocs = 0;
  while (true) {
    std::optional<Job> job;
    {
      ScopedTimer wait_timer(*m_collector_wait_us_);
      job = input_.pop();
    }
    if (!job) {
      break;
    }
    m_queue_depth_->set(static_cast<std::int64_t>(input_.size()));
    if (job->gap_before > 0) {
      // Keep the engine's slot clock aligned with the feed.
      engine_->note_stream_gap(job->gap_before);
    }
    {
      ScopedTimer collect_timer(*m_collect_us_);
      engine_->process_slot(*job->samples, result);
    }
    job->samples.release();
    // Fault isolation is the chain's: a throwing sink is counted and
    // (once its error budget is spent) detached, and the run continues.
    sinks_.deliver_slot(result);
    if (alloc::hooks_active()) {
      const alloc::Totals t = alloc::totals();
      m_alloc_allocs_->set(static_cast<std::int64_t>(t.allocs));
      m_alloc_frees_->set(static_cast<std::int64_t>(t.frees));
      m_alloc_bytes_->set(static_cast<std::int64_t>(t.bytes));
      m_alloc_per_slot_->set(
          static_cast<std::int64_t>(t.allocs - last_allocs));
      last_allocs = t.allocs;
    }
  }
  // A gap declared after the last pushed slot still advances the clock.
  if (const std::uint64_t trailing = pending_gap_.exchange(0)) {
    engine_->note_stream_gap(trailing);
  }
  sinks_.deliver_finish();
}

}  // namespace nrs
