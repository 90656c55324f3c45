#include "nrscope/pipeline.h"

#include <limits>
#include <stdexcept>

#include "common/alloc_hooks.h"

namespace nrs {

NrScopePipeline::NrScopePipeline(const NrScopeConfig& config,
                                 unsigned n_demod_workers,
                                 std::size_t queue_depth)
    : engine_(std::make_unique<NrScope>(config)),
      ofdm_config_(make_ofdm_config(config.n_prb)), n_prb_(config.n_prb),
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
  m_reorder_depth_ = &registry.gauge("pipeline.reorder_occupancy");
  m_demod_us_ = &registry.histogram("pipeline.demod_us");
  m_collector_wait_us_ = &registry.histogram("pipeline.collector_wait_us");
  m_collect_us_ = &registry.histogram("pipeline.collect_us");
  m_stream_gaps_ = &registry.counter("pipeline.stream_gaps");
  m_skipped_slots_ = &registry.counter("pipeline.slots_skipped");
  m_alloc_allocs_ = &registry.gauge("alloc.allocs");
  m_alloc_frees_ = &registry.gauge("alloc.frees");
  m_alloc_bytes_ = &registry.gauge("alloc.bytes");
  m_alloc_per_slot_ = &registry.gauge("alloc.allocs_per_slot");

  active_demods_ = std::max(1u, n_demod_workers);
  // Every in-flight slot (queued, being demodulated, or parked in the
  // reorder ring) fits without two live indices sharing a cell.
  reorder_slots_.resize(queue_depth + active_demods_ + 1);
  demod_workers_.reserve(active_demods_);
  m_worker_demod_us_.reserve(active_demods_);
  for (unsigned i = 0; i < active_demods_; ++i) {
    m_worker_demod_us_.push_back(&registry.histogram(
        "pipeline.demod_us.worker" + std::to_string(i)));
  }
  // Pre-size the pools to the worst-case in-flight count so steady state
  // never constructs: samples live in the input queue, in a worker's hands
  // and in the caller's next acquire; grids live in workers' hands, the
  // reorder ring and the collector's current slot.  Sample buffers are
  // created at full slot length: steady-state rotation may not cycle
  // through every warmed buffer for thousands of slots, and the first
  // assign() into a cold (capacity-0) buffer would otherwise be a late
  // surprise allocation.
  sample_pool_.warm(queue_depth + active_demods_ + 2,
                    ofdm_config_.samples_per_slot());
  grid_pool_.warm(reorder_slots_.size() + active_demods_ + 1, n_prb_);

  for (unsigned i = 0; i < active_demods_; ++i) {
    demod_workers_.emplace_back([this, i] { demod_loop(i); });
  }
  collector_ = std::thread([this] { collect_loop(); });
}

NrScopePipeline::~NrScopePipeline() { stop(); }

void NrScopePipeline::stop() {
  input_.close();
  for (auto& t : demod_workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (collector_.joinable()) {
    collector_.join();
  }
}

std::string NrScopePipeline::add_sink(std::string name,
                                      std::shared_ptr<SlotSink> sink,
                                      std::uint64_t error_limit) {
  return sinks_.add(std::move(name), std::move(sink), error_limit);
}

BufferPool<IqBuffer>::Handle NrScopePipeline::acquire_samples() {
  return sample_pool_.acquire(ofdm_config_.samples_per_slot());
}

bool NrScopePipeline::push_slot(BufferPool<IqBuffer>::Handle samples) {
  // A rejected job's handle dies right here, returning the buffer.
  switch (input_.try_push_result(
      Job{next_input_index_.load(), std::move(samples)})) {
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
  if (!input_.push(Job{next_input_index_.load(), std::move(samples)})) {
    m_drop_finished_->inc();
    return false;
  }
  count_accepted();
  return true;
}

void NrScopePipeline::count_accepted() {
  // Indices are assigned only on accepted pushes (single feeder thread).
  ++next_input_index_;
  m_slots_pushed_->inc();
  m_queue_depth_->set(static_cast<std::int64_t>(input_.size()));
}

void NrScopePipeline::skip_slots(std::uint64_t n) {
  if (n == 0) {
    return;
  }
  // Same single-caller contract as the pushes, so the unguarded index
  // bump cannot race another feeder.
  const std::uint64_t from = next_input_index_.load();
  next_input_index_ = from + n;
  {
    std::lock_guard lock(reorder_mutex_);
    gaps_.push_back(Gap{from, from + n});
  }
  m_stream_gaps_->inc();
  m_skipped_slots_->inc(n);
  reorder_cv_.notify_all();
}

void NrScopePipeline::demod_loop(unsigned worker_index) {
  OfdmDemodulator demod(ofdm_config_);
  Histogram& worker_us = *m_worker_demod_us_[worker_index];
  while (auto job = input_.pop()) {
    m_queue_depth_->set(static_cast<std::int64_t>(input_.size()));
    auto grid = grid_pool_.acquire(n_prb_);
    {
      ScopedTimer shared_timer(*m_demod_us_);
      ScopedTimer worker_timer(worker_us);
      demod.demodulate_into(*job->samples, *grid);
    }
    // Return the sample buffer before (possibly) waiting on the ring.
    job->samples.release();
    const std::size_t cell = job->index % reorder_slots_.size();
    {
      std::unique_lock lock(reorder_mutex_);
      // Park only inside the collector's window: indexes there map to
      // distinct cells, so the cell is guaranteed free and a fast worker
      // cannot lap the ring past a slower worker's still-unparked slot.
      // The worker holding the collector's next expected index never
      // blocks here, so the pipeline always makes progress.
      reorder_cv_.wait(lock, [&] {
        return job->index < collect_upto_ + reorder_slots_.size() &&
               !reorder_slots_[cell].grid;
      });
      reorder_slots_[cell].index = job->index;
      reorder_slots_[cell].grid = std::move(grid);
      ++reorder_count_;
      m_reorder_depth_->set(static_cast<std::int64_t>(reorder_count_));
    }
    reorder_cv_.notify_all();
  }
  {
    std::lock_guard lock(reorder_mutex_);
    if (--active_demods_ == 0) {
      demod_done_ = true;
    }
  }
  reorder_cv_.notify_all();
}

void NrScopePipeline::collect_loop() {
  std::uint64_t expected = 0;
  SlotResult result;  // reused every slot; the engine clears it in place
  std::uint64_t last_allocs = 0;
  while (true) {
    BufferPool<ResourceGrid>::Handle grid;
    std::uint64_t gap_len = 0;
    {
      std::unique_lock lock(reorder_mutex_);
      ReorderSlot* cell = &reorder_slots_[expected % reorder_slots_.size()];
      {
        ScopedTimer wait_timer(*m_collector_wait_us_);
        reorder_cv_.wait(lock, [&] {
          return (!gaps_.empty() && gaps_.front().from == expected) ||
                 (cell->grid && cell->index == expected) || demod_done_;
        });
      }
      if (!gaps_.empty() && gaps_.front().from == expected) {
        // Every pre-gap index has been collected; jump the window over
        // the declared discontinuity instead of parking on indices that
        // will never arrive (the "stuck parking window" failure mode).
        const Gap gap = gaps_.front();
        gaps_.pop_front();
        gap_len = gap.to - gap.from;
        expected = gap.to;
        collect_upto_ = gap.to;
      } else if (cell->grid && cell->index == expected) {
        grid = std::move(cell->grid);
        --reorder_count_;
        collect_upto_ = expected + 1;
        m_reorder_depth_->set(static_cast<std::int64_t>(reorder_count_));
      } else if (demod_done_ && reorder_count_ == 0) {
        break;
      } else if (demod_done_) {
        // Shutdown with a gap (dropped mid-stream is impossible — indexes
        // are only assigned on successful enqueue — so this means the
        // remaining entries are after `expected`; skip forward to the
        // oldest one still parked in the ring).
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (const ReorderSlot& s : reorder_slots_) {
          if (s.grid && s.index < oldest) {
            oldest = s.index;
          }
        }
        expected = oldest;
        collect_upto_ = oldest;
        continue;
      }
    }
    if (gap_len > 0) {
      // Wake workers whose indices entered the jumped-forward window and
      // keep the engine's slot clock aligned with the feed.
      reorder_cv_.notify_all();
      engine_->note_stream_gap(gap_len);
      continue;
    }
    if (grid) {
      // Wake any worker waiting for the cell we just vacated.
      reorder_cv_.notify_all();
      {
        ScopedTimer collect_timer(*m_collect_us_);
        engine_->process_grid(*grid, result);
      }
      grid.release();
      result.slot = expected;
      // Fault isolation is the chain's: a throwing sink is counted and
      // (once its error budget is spent) detached, and the run continues.
      sinks_.deliver_slot(result);
      ++expected;
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
  }
  sinks_.deliver_finish();
}

}  // namespace nrs
