// Building blocks shared by the three workloads: the 16-UE Amarisoft
// chain, the benchmark's recording sink, the span-wrapping sink, and the
// report every workload fills in.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/matching.h"
#include "gnb/gnb_sim.h"
#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"
#include "radio/virtual_radio.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Predictor weights for cell_e2e's PredictionSink (cwd-relative).
  std::string weights = "tools/weights/predictor_v1.txt";
  /// Where a traced run writes its spans (cwd-relative directory).
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): its metrics, its operation
/// counts and every correctness-gate violation.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a correctness-gate violation unless `ok`.
  void require(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  }
};

/// 64-bit mix of the workload seed with a stream tag (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

constexpr unsigned kUes = 16;
constexpr double kSnifferSnrDb = 28.0;

/// Amarisoft preset (51 PRB, 30 kHz) gNB with 16 CBR UEs attached.
std::unique_ptr<nrs::GnbSim> make_gnb(std::uint64_t seed);

/// The sniffer link: `profile` at 28 dB.
nrs::VirtualRadioConfig radio_config(const nrs::CellConfig& cell,
                                     nrs::ChannelProfile profile,
                                     std::uint64_t seed);

/// The engine configuration bench_hotpath uses (dedupe on, MSG2-assisted
/// RACH, no inactivity eviction).
nrs::NrScopeConfig scope_config(const nrs::CellConfig& cell);

constexpr unsigned kDemodWorkers = 2;

/// True when the engine is tracking and knows every C-RNTI the gNB has
/// connected (and all kUes are connected).  Call only while the
/// pipeline is drained.
bool acquired(const nrs::NrScope& engine, const nrs::GnbSim& gnb);

/// Ground-truth DCIs in [from_slot, to_slot) that were not decoded, over
/// all ground-truth DCIs in that range (compute_miss_rate matching).
Ratio dci_miss_ratio(const nrs::GroundTruthLog& truth,
                     const std::vector<nrs::DecodedDci>& decoded,
                     std::uint64_t from_slot, std::uint64_t to_slot);

/// Peak resident set size of the process, MB (getrusage).
double peak_rss_mb();

/// CPU time the whole process has used so far, all threads, seconds.
double process_cpu_s();
/// CPU time the calling thread has used so far, seconds.
double thread_cpu_s();

/// Wall and CPU time of one set-up, timed from construction.
struct SetupTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< all threads of the process

  SetupTime() : wall0_(now_ns()), cpu0_(process_cpu_s()) {}
  /// Fix the two times at this point.
  void stop() {
    wall_s = static_cast<double>(now_ns() - wall0_) / 1e9;
    cpu_s = process_cpu_s() - cpu0_;
  }
  [[nodiscard]] std::string str() const;

 private:
  std::int64_t wall0_;
  double cpu0_;
};

/// The set-up metrics over a run's set-ups: setup_s, the median CPU
/// seconds (end-to-end), and setup_wall_s, the median wall seconds.
void report_setup(Report& r, const std::vector<SetupTime>& setups);

/// Benchmark-owned sink: stamps each slot's delivery time, keeps the
/// decoded DCIs, and counts deliveries.  Capacity is fixed up front so
/// the sink allocates nothing while measuring; slots past it are counted
/// but not stamped.  An optional sleep per slot slows the collector (the
/// self-test's deliberately slow consumer).
class RecordingSink : public nrs::SlotSink {
 public:
  RecordingSink(std::size_t max_slots, std::size_t max_dcis);

  void on_slot(const nrs::SlotResult& result) override;

  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  /// Delivery time of slot `index` (steady ns), 0 when not delivered.
  [[nodiscard]] std::int64_t delivered_ns(std::uint64_t index) const;
  /// Decoded DCIs so far (read only while the pipeline is drained).
  [[nodiscard]] const std::vector<nrs::DecodedDci>& dcis() const {
    return dcis_;
  }
  [[nodiscard]] std::uint64_t dcis_dropped() const { return dcis_dropped_; }
  void set_delay_us(double us) {
    delay_ns_ = static_cast<std::int64_t>(us * 1e3);
  }
  /// Record a "record" span per slot into `spans` (null = off).  The
  /// buffer is written by the collector thread only.
  void set_spans(SpanBuffer* spans) {
    spans_.store(spans, std::memory_order_release);
  }

 private:
  std::size_t max_slots_;
  std::unique_ptr<std::atomic<std::int64_t>[]> delivered_ns_;
  std::vector<nrs::DecodedDci> dcis_;
  std::uint64_t dcis_dropped_ = 0;
  std::int64_t delay_ns_ = 0;
  std::atomic<SpanBuffer*> spans_{nullptr};
  std::atomic<std::uint64_t> delivered_{0};
};

class StampArray;

/// Wraps a sink so each on_slot() records a span named `name`, and, when
/// `done` is set, stamps the time the inner call returned for the slot.
class TimedSink : public nrs::SlotSink {
 public:
  TimedSink(std::shared_ptr<nrs::SlotSink> inner, const char* name,
            StampArray* done = nullptr)
      : inner_(std::move(inner)), name_(name), done_(done) {}

  void on_slot(const nrs::SlotResult& result) override;
  void on_finish() override { inner_->on_finish(); }
  /// The buffer is written by the collector thread only.
  void set_spans(SpanBuffer* spans) {
    spans_.store(spans, std::memory_order_release);
  }

 private:
  std::shared_ptr<nrs::SlotSink> inner_;
  const char* name_;
  StampArray* done_;
  std::atomic<SpanBuffer*> spans_{nullptr};
};

/// Per-slot timestamps written by one thread and read by others.
class StampArray {
 public:
  explicit StampArray(std::size_t n);
  void set(std::uint64_t i, std::int64_t ns) {
    if (i < n_) {
      v_[i].store(ns, std::memory_order_release);
    }
  }
  [[nodiscard]] std::int64_t get(std::uint64_t i) const {
    return i < n_ ? v_[i].load(std::memory_order_acquire) : 0;
  }

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<std::int64_t>[]> v_;
};

/// Closed-loop push: wait until the input queue has room, then push.  A
/// push refused anyway is declared lost with skip_slots(1), so slot
/// indices stay aligned with the ground truth; returns false then.
bool push_when_room(nrs::NrScopePipeline& pipeline, const nrs::Gauge& depth,
                    std::size_t queue_depth,
                    nrs::BufferPool<nrs::IqBuffer>::Handle samples);

/// Moves the calling thread over the CPUs the process may use.  On a
/// shared host the speed of each vCPU differs by up to a quarter for
/// minutes at a time, and the scheduler leaves a busy thread on one vCPU
/// for a whole run, so the time a run's main thread takes for its work
/// would depend on where it landed.  Visiting every vCPU in turn gives
/// each run the same mix.  The thread's own mask is restored on
/// destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread to the next CPU of the mask.
  void next();

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  std::size_t i_ = 0;
};

/// Spin (yielding) until steady time `ns`.
void wait_until_ns(std::int64_t ns);

/// Poll until `done()` holds or `timeout_s` passes; returns done().
template <class Pred>
bool wait_for(Pred done, double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!done()) {
    if (now_ns() > deadline) {
      return done();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// The alloc.* per-layer pair over a window of `slots` slots.
void report_allocs(Report& r, const char* label, std::uint64_t allocs,
                   std::uint64_t bytes, std::uint64_t slots);

/// Append one named timing as `<name>.p50` / `<name>.p99` per-layer
/// metrics in microseconds.
void layer_timing(Report& r, const std::string& name, const Timing& t);
void layer_timing(Report& r, const std::string& name,
                  const HistogramWindow& w);

/// Print a per-layer self-time table from spans and append a
/// `self.<name>_us` per-layer metric (self time per op) for every name in
/// `names`; `ops` is the op count the self time is divided by.
void report_self_times(Report& r, const std::vector<const SpanBuffer*>& bufs,
                       const std::vector<const char*>& names,
                       std::uint64_t ops, const char* op_label);

/// Write the spans of a traced run under opt.trace_dir.
void save_spans(const Options& opt, const std::vector<const SpanBuffer*>& bufs);

}  // namespace perfbench
