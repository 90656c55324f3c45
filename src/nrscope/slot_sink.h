// Output API of the sniffer pipeline: callers attach any number of
// SlotSinks, and the engine thread delivers each in-order SlotResult to
// every sink and calls on_finish() once after the last slot.
// TelemetryLogWriter (the paper's "Log File" sink) implements this
// interface, and MetricsCsvSink periodically dumps the MetricsRegistry so a
// run leaves a machine-readable per-stage timing record behind.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "nrscope/nrscope.h"

namespace nrs {

class SlotSink {
 public:
  virtual ~SlotSink() = default;

  /// One completed slot, called in slot order on the engine thread.
  virtual void on_slot(const SlotResult& result) = 0;

  /// Called exactly once after the final slot, before pipeline shutdown.
  virtual void on_finish() {}
};

/// The one sink-attachment surface shared by NrScopePipeline and the fleet
/// orchestrator: named sinks with uniform fault isolation.  A sink whose
/// on_slot()/on_finish() throws has the error counted — in the chain-wide
/// total (`<prefix>sink_errors`) and in its own per-sink counter
/// (`<prefix>sink.<name>.errors`) — and is detached once its error budget
/// (default 1) is spent; the run and the other sinks continue.
///
/// deliver_slot()/deliver_finish() are called by exactly one thread (the
/// pipeline's engine thread); add()/detach() are safe from any thread.
class SinkChain {
 public:
  /// `registry` receives the error counters; nullptr skips per-sink
  /// metrics (errors are still counted internally for detachment).
  explicit SinkChain(MetricsRegistry* registry = nullptr,
                     std::string metric_prefix = "pipeline.");

  /// Attach a sink under `name` (replaces nothing: duplicate names get a
  /// numeric suffix so per-sink metrics stay distinct).  `error_limit` is
  /// the number of throws tolerated before auto-detach; 0 means detach is
  /// disabled (errors are only counted).  Returns the registered name.
  std::string add(std::string name, std::shared_ptr<SlotSink> sink,
                  std::uint64_t error_limit = 1);

  /// Detach by name; false when no such sink is attached.
  bool detach(std::string_view name);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Fan one slot out to every attached sink (fault-isolated).
  void deliver_slot(const SlotResult& result);
  /// Fan on_finish() out to every attached sink (fault-isolated).
  void deliver_finish();

 private:
  struct Entry {
    std::string name;
    std::shared_ptr<SlotSink> sink;
    Counter* errors = nullptr;  ///< per-sink counter (may be null)
    std::uint64_t error_count = 0;
    std::uint64_t error_limit = 1;
  };

  /// Count one error against entries_[i]; returns true when the sink must
  /// be detached.  Caller holds mutex_.
  bool note_error_locked(std::size_t i);

  MetricsRegistry* registry_;
  std::string prefix_;
  Counter* total_errors_ = nullptr;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t auto_names_ = 0;
};

/// Appends a MetricsSnapshot to a CSV file every `period_slots` slots (and
/// once more at the end of the run).  Rows are
/// `slot,metric,kind,value,count,sum,min,max,p50,p95,p99`.
class MetricsCsvSink : public SlotSink {
 public:
  MetricsCsvSink(const std::string& path, const MetricsRegistry& registry,
                 std::uint64_t period_slots = 1000);

  void on_slot(const SlotResult& result) override;
  void on_finish() override;

 private:
  void dump();

  std::ofstream out_;
  const MetricsRegistry* registry_;
  std::uint64_t period_slots_;
  std::uint64_t seen_ = 0;
  std::uint64_t last_slot_ = 0;
};

}  // namespace nrs
