#include "chain.h"

#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <filesystem>

#include "gnb/presets.h"
#include "ue/traffic.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1u;
}

std::unique_ptr<nrs::GnbSim> make_gnb(std::uint64_t seed) {
  nrs::GnbConfig cfg;
  cfg.cell = nrs::amarisoft_cell();
  cfg.seed = derive_seed(seed, 1);
  auto gnb = std::make_unique<nrs::GnbSim>(std::move(cfg));
  for (unsigned i = 0; i < kUes; ++i) {
    nrs::UeConfig ue;
    ue.channel.profile = nrs::ChannelProfile::kAwgn;
    ue.channel.snr_db = 24.0;
    ue.channel.seed = derive_seed(seed, 100 + i);
    ue.seed = derive_seed(seed, 200 + i);
    ue.dl_traffic = std::make_unique<nrs::CbrSource>(2e6);
    ue.ul_traffic = std::make_unique<nrs::CbrSource>(0.5e6);
    gnb->add_ue(std::move(ue));
  }
  return gnb;
}

nrs::VirtualRadioConfig radio_config(const nrs::CellConfig& cell,
                                     nrs::ChannelProfile profile,
                                     std::uint64_t seed) {
  nrs::VirtualRadioConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.channel.profile = profile;
  cfg.channel.snr_db = kSnifferSnrDb;
  cfg.channel.seed = derive_seed(seed, 2);
  return cfg;
}

nrs::NrScopeConfig scope_config(const nrs::CellConfig& cell) {
  nrs::NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.dedupe_candidates = true;
  cfg.rach.mode = nrs::RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  return cfg;
}

bool acquired(const nrs::NrScope& engine, const nrs::GnbSim& gnb) {
  if (engine.state() != nrs::SyncState::kTracking) {
    return false;
  }
  const std::vector<nrs::Rnti> connected = gnb.connected_rntis();
  if (connected.size() < kUes) {
    return false;
  }
  const std::vector<nrs::Rnti> known = engine.known_ues();
  for (const nrs::Rnti rnti : connected) {
    if (std::find(known.begin(), known.end(), rnti) == known.end()) {
      return false;
    }
  }
  return true;
}

Ratio dci_miss_ratio(const nrs::GroundTruthLog& truth,
                     const std::vector<nrs::DecodedDci>& decoded,
                     std::uint64_t from_slot, std::uint64_t to_slot) {
  std::vector<nrs::DecodedDci> in_range;
  in_range.reserve(decoded.size());
  for (const nrs::DecodedDci& d : decoded) {
    if (d.slot >= from_slot && d.slot < to_slot) {
      in_range.push_back(d);
    }
  }
  // compute_miss_rate counts truth from `from_slot` to the end of the log;
  // trim the tail by subtracting the truth DCIs at or after `to_slot`.
  const nrs::MissRateReport all =
      nrs::compute_miss_rate(truth, in_range, from_slot);
  const nrs::MissRateReport tail = nrs::compute_miss_rate(truth, {}, to_slot);
  const double total = static_cast<double>(all.dl_truth + all.ul_truth) -
                       static_cast<double>(tail.dl_truth + tail.ul_truth);
  const double matched = static_cast<double>(all.dl_matched + all.ul_matched);
  return {total - matched, total};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string SetupTime::str() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f s CPU, %.3f s wall", cpu_s, wall_s);
  return buf;
}

void report_setup(Report& r, const std::vector<SetupTime>& setups) {
  std::vector<double> cpu, wall;
  for (const SetupTime& s : setups) {
    cpu.push_back(s.cpu_s);
    wall.push_back(s.wall_s);
  }
  const double cpu_med = percentile(cpu, 50.0);
  const double wall_med = percentile(wall, 50.0);
  std::printf("  setup_s              %.3f s CPU (median of %zu; wall %.3f s)\n",
              cpu_med, setups.size(), wall_med);
  r.e2e("setup_s", cpu_med, "s");
  r.layer("setup_wall_s", wall_med, "s");
}

RecordingSink::RecordingSink(std::size_t max_slots, std::size_t max_dcis)
    : max_slots_(max_slots),
      delivered_ns_(new std::atomic<std::int64_t>[max_slots]) {
  for (std::size_t i = 0; i < max_slots; ++i) {
    delivered_ns_[i].store(0, std::memory_order_relaxed);
  }
  dcis_.reserve(max_dcis);
}

void RecordingSink::on_slot(const nrs::SlotResult& result) {
  ScopedSpan span(spans_.load(std::memory_order_acquire), "record", "slot",
                  result.slot);
  const std::int64_t t = now_ns();
  if (result.slot < max_slots_) {
    delivered_ns_[result.slot].store(t, std::memory_order_relaxed);
  }
  for (const nrs::DecodedDci& d : result.dcis) {
    if (dcis_.size() < dcis_.capacity()) {
      dcis_.push_back(d);
    } else {
      ++dcis_dropped_;
    }
  }
  if (delay_ns_ > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns_));
  }
  delivered_.fetch_add(1, std::memory_order_release);
}

std::int64_t RecordingSink::delivered_ns(std::uint64_t index) const {
  return index < max_slots_
             ? delivered_ns_[index].load(std::memory_order_relaxed)
             : 0;
}

void TimedSink::on_slot(const nrs::SlotResult& result) {
  {
    ScopedSpan span(spans_.load(std::memory_order_acquire), name_, "slot",
                    result.slot);
    inner_->on_slot(result);
  }
  if (done_ != nullptr) {
    done_->set(result.slot, now_ns());
  }
}

StampArray::StampArray(std::size_t n)
    : n_(n), v_(new std::atomic<std::int64_t>[n]) {
  for (std::size_t i = 0; i < n; ++i) {
    v_[i].store(0, std::memory_order_relaxed);
  }
}

bool push_when_room(nrs::NrScopePipeline& pipeline, const nrs::Gauge& depth,
                    std::size_t queue_depth,
                    nrs::BufferPool<nrs::IqBuffer>::Handle samples) {
  while (depth.value() >= static_cast<std::int64_t>(queue_depth)) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  if (pipeline.push_slot(std::move(samples))) {
    return true;
  }
  pipeline.skip_slots(1);
  return false;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&mask_);
  if (sched_getaffinity(0, sizeof mask_, &mask_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    sched_setaffinity(0, sizeof mask_, &mask_);
  }
}

void CpuRotation::next() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[i_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

void wait_until_ns(std::int64_t ns) {
  // Spin: sleeping wakes up late by up to milliseconds on virtualised
  // hosts, which would charge the host's timer to the pipeline.
  while (now_ns() < ns) {
    std::this_thread::yield();
  }
}

void report_allocs(Report& r, const char* label, std::uint64_t allocs,
                   std::uint64_t bytes, std::uint64_t slots) {
  const double n = static_cast<double>(std::max<std::uint64_t>(slots, 1));
  r.layer("alloc.allocs_per_slot", static_cast<double>(allocs) / n, "count");
  r.layer("alloc.bytes_per_slot", static_cast<double>(bytes) / n, "B");
  std::printf("  alloc (%s): %s allocs/slot, %s B/slot\n", label,
              Ratio{static_cast<double>(allocs), n}.str().c_str(),
              Ratio{static_cast<double>(bytes), n}.str().c_str());
}

void layer_timing(Report& r, const std::string& name, const Timing& t) {
  r.layer(name + ".p50", t.p50, "us");
  r.layer(name + ".p99", t.p99, "us");
  std::printf("  %-34s %s\n", name.c_str(), describe(t, "us").c_str());
}

void layer_timing(Report& r, const std::string& name,
                  const HistogramWindow& w) {
  const double tail_pct = tail_percentile(w.count);
  r.layer(name + ".p50", w.percentile(50.0), "us");
  r.layer(name + ".p99", w.percentile(99.0), "us");
  std::printf("  %-34s p50 %.1f us, p%g %.1f us (n=%llu, registry window)\n",
              name.c_str(), w.percentile(50.0), tail_pct,
              w.percentile(tail_pct),
              static_cast<unsigned long long>(w.count));
}

void report_self_times(Report& r, const std::vector<const SpanBuffer*>& bufs,
                       const std::vector<const char*>& names,
                       std::uint64_t ops, const char* op_label) {
  const std::vector<LayerTime> times = layer_times(bufs);
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  double total = 0.0;
  for (const LayerTime& lt : times) {
    total += lt.self_us_total;
  }
  std::printf("\n  per-layer self time (traced window, %llu %s):\n",
              static_cast<unsigned long long>(ops), op_label);
  std::printf("  %-12s %8s %14s %8s %12s %12s\n", "span", "spans",
              "self us/op", "share", "dur p50 us", "dur p99 us");
  for (const LayerTime& lt : times) {
    std::printf("  %-12s %8llu %14.2f %7.1f%% %12.1f %12.1f\n",
                lt.name.c_str(), static_cast<unsigned long long>(lt.spans),
                lt.self_us_total / n,
                total > 0 ? 100.0 * lt.self_us_total / total : 0.0,
                lt.duration_p50_us, lt.duration_p99_us);
  }
  for (const char* name : names) {
    double self = 0.0;
    for (const LayerTime& lt : times) {
      if (lt.name == name) {
        self = lt.self_us_total / n;
      }
    }
    r.layer(std::string("self.") + name + "_us", self, "us");
  }
  std::uint64_t overflow = 0;
  for (const SpanBuffer* b : bufs) {
    overflow += b->overflow();
  }
  if (overflow > 0) {
    std::printf("  (%llu spans past the reserved buffers were not kept)\n",
                static_cast<unsigned long long>(overflow));
  }
}

void save_spans(const Options& opt,
                const std::vector<const SpanBuffer*>& bufs) {
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".csv";
  if (!ec && write_spans(path, bufs)) {
    std::printf("  spans written to %s\n", path.c_str());
  } else {
    std::printf("  could not write spans to %s\n", path.c_str());
  }
}

}  // namespace perfbench
