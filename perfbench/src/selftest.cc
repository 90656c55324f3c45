// Self-tests of the benchmark: the percentile, ratio and snapshot-window
// helpers on synthetic data, the span self-time arithmetic, the CPU
// rotation of a busy benchmark thread, and a tiny
// open-loop run with a deliberately slowed sink, which must raise the slot
// latency and the refused share while the generator stays on time (the
// open loop does not hide stalls).
//
//   perfbench_selftest      exits 0 when every check passes
#include <cmath>
#include <cstdio>
#include <string>

#include "common/alloc_shim.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentiles() {
  std::printf("percentiles\n");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  check(near(percentile(v, 50.0), 50.5), "p50 of 1..100 is 50.5");
  check(near(percentile(v, 99.0), 99.01), "p99 of 1..100 is 99.01");
  check(near(percentile(v, 0.0), 1.0) && near(percentile(v, 100.0), 100.0),
        "p0 / p100 are the extremes");
  std::vector<double> empty;
  check(percentile(empty, 50.0) == 0.0, "empty sample set gives 0");
  check(tail_percentile(10000) == 99.9, "n=10000: p99.9 keeps 10 beyond");
  check(tail_percentile(1000) == 99.0, "n=1000: p99 keeps 10 beyond");
  check(tail_percentile(999) == 95.0, "n=999: falls back to p95");
  check(tail_percentile(20) == 50.0, "n=20: only the median is honest");
  const Timing t = summarize(v);
  check(t.n == 100 && t.tail_pct == 90.0 && near(t.tail, 90.1),
        "summarize reports n and the honest tail");

  // Blocks: a burst in one of five blocks moves that block, not the median.
  std::vector<double> blocks;
  for (int b = 0; b < 5; ++b) {
    for (int i = 0; i < 1000; ++i) {
      blocks.push_back(b == 2 ? 1e6 : 100.0 + i % 10);
    }
  }
  blocks.push_back(5.0);  // a short remainder joins the last block
  const Timing bt = block_summary(blocks, 1000);
  check(bt.blocks == 5 && bt.n == 5001, "5001 samples make 5 blocks");
  check(bt.p99 < 200.0 && bt.p50 < 200.0, "one disturbed block is outvoted");
}

void test_ratio() {
  std::printf("ratios\n");
  const Ratio r{3, 12};
  check(near(r.value(), 0.25) && r.str() == "0.25 (3/12)",
        "ratio prints its base");
  check(Ratio{5, 0}.value() == 0.0, "empty base gives 0, not NaN");
}

void test_windows() {
  std::printf("snapshot windows\n");
  nrs::HistogramSnapshot before;
  before.bounds = {10, 100, 1000};
  before.counts = {5, 0, 0, 0};
  before.sum = 25;
  before.max = 9;
  nrs::HistogramSnapshot after = before;
  after.counts = {5, 40, 60, 0};
  after.sum = 25 + 40 * 50 + 60 * 500;
  after.max = 900;
  after.count = 90;  // a torn snapshot: count lags the buckets
  const HistogramWindow w = histogram_window(&before, after);
  check(w.count == 100, "window count comes from the bucket differences");
  check(w.counts[0] == 0 && w.counts[1] == 40 && w.counts[2] == 60,
        "bucket differences");
  check(near(w.percentile(50.0), 100.0 + 900.0 * (10.0 / 60.0)),
        "p50 interpolates inside the covering bucket");
  check(w.percentile(20.0) > 10.0 && w.percentile(20.0) <= 100.0,
        "p20 falls in the second bucket");

  nrs::MetricsRegistry registry;
  nrs::Counter& c = registry.counter("x.count");
  nrs::Histogram& h = registry.histogram("x.us");
  c.inc(7);
  h.observe(3.0);
  const nrs::MetricsSnapshot s0 = registry.snapshot();
  c.inc(5);
  for (int i = 0; i < 100; ++i) {
    h.observe(150.0);
  }
  registry.counter("y.errors").inc(2);
  const RegistryWindow rw(s0, registry.snapshot());
  check(rw.counter("x.count") == 5, "counter window is the increment");
  check(rw.counter("y.errors") == 2, "a counter born in the window");
  check(rw.counter("missing") == 0, "an absent counter reads 0");
  check(rw.histogram("x.us").count == 100, "histogram window count");
  check(rw.counter_family("x.") == 5 && rw.counter_family("y.") == 2,
        "counter family sum");

  // 400..419 us: the default 200-500 us bucket reads the median as 350 us,
  // the fine bounds read it to within one 5 % step of the true 409.5 us.
  nrs::Histogram& coarse = registry.histogram("coarse.us");
  nrs::Histogram& fine =
      registry.histogram("fine.us", fine_latency_bounds_us());
  for (int i = 0; i < 1000; ++i) {
    coarse.observe(400.0 + i % 20);
    fine.observe(400.0 + i % 20);
  }
  const RegistryWindow bw({}, registry.snapshot());
  check(near(bw.histogram("coarse.us").percentile(50.0), 350.0),
        "default buckets: the median follows the bucket edges");
  check(std::fabs(bw.histogram("fine.us").percentile(50.0) - 409.5) <
            0.05 * 409.5,
        "fine bounds: the median is within 5 % of the samples' median");
}

void test_spans() {
  std::printf("span self time\n");
  SpanBuffer a("a", 16);
  SpanBuffer b("b", 16);
  a.add("slot", "", 1, 0, 1000);
  a.add("gnb", "slot", 1, 100, 400);
  a.add("radio", "slot", 1, 300, 700);  // overlaps gnb by 100
  b.add("sink", "slot", 1, 2000, 2500);  // outside the parent: not covered
  b.add("gnb", "slot", 2, 0, 50);        // another slot
  const std::vector<LayerTime> t = layer_times({&a, &b});
  auto self = [&](const char* name) {
    for (const LayerTime& lt : t) {
      if (lt.name == name) {
        return lt.self_us_total * 1000.0;
      }
    }
    return -1.0;
  };
  check(near(self("slot"), 400.0), "parent self = 1000 - union(300..700)");
  check(near(self("gnb"), 350.0), "child spans are all self time");
  check(near(self("sink"), 500.0), "a span on another thread");
  SpanBuffer full("f", 1);
  full.add("x", "", 0, 0, 1);
  full.add("x", "", 0, 1, 2);
  check(full.spans().size() == 1 && full.overflow() == 1,
        "a full buffer counts instead of growing");
}

void test_cpu_rotation() {
  std::printf("cpu rotation\n");
  cpu_set_t before;
  sched_getaffinity(0, sizeof before, &before);
  {
    CpuRotation rotation;
    bool pinned = true;
    for (int i = 0; i < 2 * CPU_COUNT(&before); ++i) {
      rotation.next();
      cpu_set_t now;
      sched_getaffinity(0, sizeof now, &now);
      pinned = pinned && CPU_COUNT(&now) == 1 &&
               CPU_ISSET(sched_getcpu(), &now) &&
               CPU_ISSET(sched_getcpu(), &before);
    }
    check(pinned, "each step pins the thread to one CPU of its mask");
  }
  cpu_set_t after;
  sched_getaffinity(0, sizeof after, &after);
  check(CPU_EQUAL(&before, &after), "the mask is restored afterwards");
}

void test_open_loop_stall() {
  std::printf("open loop with a slowed sink\n");
  const SlotFeed feed = generate_feed(7, nrs::ChannelProfile::kAwgn, 600);
  check(!feed.slots.empty(), "feed acquired");
  if (feed.slots.empty()) {
    return;
  }
  const OpenLoopResult base = run_open_loop(feed, 2000.0, 0.0, nullptr,
                                            nullptr);
  // 1 ms per slot against a 0.5 ms slot period: the backlog grows by half
  // a slot per slot until the 64-slot queue overflows.
  const OpenLoopResult slow = run_open_loop(feed, 2000.0, 1000.0, nullptr,
                                            nullptr);
  const Timing lb = summarize(base.latency_us);
  const Timing ls = summarize(slow.latency_us);
  const Timing late = summarize(slow.gen_late_us);
  std::printf("    base p99 %.0f us, slowed p99 %.0f us, refused %llu/%llu, "
              "generator late p99 %.1f us\n",
              lb.p99, ls.p99, static_cast<unsigned long long>(slow.refused_slots.size()),
              static_cast<unsigned long long>(slow.attempted), late.p99);
  check(base.acquired && slow.acquired, "both pipelines acquired");
  check(base.refused_slots.size() == 0, "the unslowed pipeline keeps up");
  check(ls.p99 > 5.0 * lb.p99, "the stall raises slot_latency p99");
  check(slow.refused_slots.size() > 0, "the stall raises failed_ratio");
  // The host may preempt the generator for up to ~15 ms when it is busy;
  // what matters is that its lateness is far below the stall it reports.
  check(late.p50 < 50.0 && late.p99 < 0.1 * ls.p99,
        "bench.gen_late_us stays small (p50 < 50 us, p99 < 10% of the "
        "slowed p99)");
  check(slow.buffers_in_flight == 0 && base.buffers_in_flight == 0,
        "no pooled buffer leaks after stop()");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_percentiles();
  perfbench::test_ratio();
  perfbench::test_windows();
  perfbench::test_spans();
  perfbench::test_cpu_rotation();
  perfbench::test_open_loop_stall();
  std::printf("%s: %d failure(s)\n",
              perfbench::failures == 0 ? "PASS" : "FAIL", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
