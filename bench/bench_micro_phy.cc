// Per-kernel microbenchmarks of the SIMD kernel layer (src/phy/kernels).
//
// Every primitive in the KernelTable is timed against realistic per-slot
// working sizes under each compiled-in backend, reporting ns/op and the
// scalar-vs-SIMD speedup.  A second table times the FFT and the OFDM
// modulator and demodulator at the 51-PRB carrier, a third the polar SC
// decoder per codeword, one codeword per call against lane batches, and a
// last one the CRC24C syndrome of a decoded DCI word.
//
// Usage: bench_micro_phy [--quick]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/crc.h"
#include "common/rng.h"
#include "common/types.h"
#include "phy/channel.h"
#include "phy/conv_code.h"
#include "phy/fft.h"
#include "phy/kernels/kernels.h"
#include "phy/ofdm.h"
#include "phy/polar.h"
#include "phy/resource_grid.h"

namespace nrs {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Time `fn` (one call = one op over the kernel's working set): run
/// batches until `budget_s` of wall clock is spent, return ns per op.
double time_ns(const std::function<void()>& fn, double budget_s) {
  // Calibrate the batch size to ~1 ms.
  std::size_t batch = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < batch; ++i) {
      fn();
    }
    const double dt = now_s() - t0;
    if (dt > 1e-3 || batch > (1u << 24)) {
      break;
    }
    batch *= 4;
  }
  double best = 1e30;
  const double deadline = now_s() + budget_s;
  do {
    const double t0 = now_s();
    for (std::size_t i = 0; i < batch; ++i) {
      fn();
    }
    const double per_op = (now_s() - t0) / static_cast<double>(batch);
    best = std::min(best, per_op);
  } while (now_s() < deadline);
  return best * 1e9;
}

struct Row {
  std::string name;
  std::size_t n = 0;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;  ///< 0 when no SIMD backend is available
};

struct Workload {
  Rng rng{42};
  std::vector<cf32> a, b, c;
  std::vector<cf32> slot, pristine;  ///< one 51-PRB slot of samples
  std::vector<float> fa, fb, fc;
  std::vector<std::uint8_t> u8a, u8b;
  std::vector<std::int32_t> i32;

  cf32 rc() {
    return {static_cast<float>(rng.gaussian()),
            static_cast<float>(rng.gaussian())};
  }
  void resize(std::size_t n) {
    a.resize(n);
    b.resize(n);
    c.resize(n);
    fa.resize(2 * n);
    fb.resize(2 * n);
    fc.resize(2 * n);
    u8a.resize(2 * n);
    u8b.resize(2 * n);
    i32.resize(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rc();
      b[i] = rc();
    }
    for (std::size_t i = 0; i < 2 * n; ++i) {
      fa[i] = static_cast<float>(rng.gaussian());
      fb[i] = static_cast<float>(rng.gaussian());
      u8a[i] = rng.chance(0.5) ? 1 : 0;
    }
    pristine.resize(make_ofdm_config(51).samples_per_slot());
    for (cf32& v : pristine) {
      v = rc();
    }
    slot = pristine;
  }
};

using KernelFn =
    std::function<void(const kernels::KernelTable&, Workload&)>;

struct Case {
  const char* name;
  std::size_t n;
  KernelFn fn;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  // Sizes mirror the real call sites: PSS correlation segments (127), a
  // CORESET's worth of pilots/REs, an aggregation-level-4 candidate's
  // LLRs, a polar node, a slice of a slot's channel noise, a slot through
  // a fading link, one Viterbi step.  The FFT has its own table
  // (run_ofdm).
  cases.push_back({"corr_energy_real", 127,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     cf32 corr;
                     float energy = 0.0f;
                     kt.corr_energy_real(w.a.data(), w.fa.data(), 127,
                                         &corr, &energy);
                   }});
  cases.push_back({"energy", 127,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     volatile float e = kt.energy(w.a.data(), 127);
                     (void)e;
                   }});
  cases.push_back({"cx_mul_conj_scale", 324,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     kt.cx_mul_conj_scale(w.a.data(), w.b.data(), 1.0f,
                                          w.c.data(), 324);
                   }});
  cases.push_back({"eq_qpsk_llr", 216,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     kt.eq_qpsk_llr(w.a.data(), w.b.data(), 2.0f,
                                    w.fc.data(), 216);
                   }});
  cases.push_back({"qam_llr_64qam", 512,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     kt.qam_llr(w.a.data(), 512, 3, 0.1543f, 8.0f,
                                w.fc.data());
                   }});
  cases.push_back({"descramble", 432,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     kt.descramble(w.fa.data(), w.u8a.data(), 432);
                   }});
  cases.push_back({"polar_f", 256,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     kt.polar_f(w.fa.data(), w.fa.data() + 256,
                                w.fc.data(), 256);
                   }});
  cases.push_back({"polar_g", 256,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     kt.polar_g(w.fa.data(), w.fa.data() + 256,
                                w.u8a.data(), w.fc.data(), 256);
                   }});
  cases.push_back({"polar_combine", 256,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     kt.polar_combine(w.u8a.data(), w.u8b.data(), 256);
                   }});
  // The polar decoder's root at the engine's lane counts: DCI 1_1 at
  // aggregation level 4 (E = 432, shortened to N = 512), and 8 lanes of
  // DCI 1_0 at level 8 (E = 864, repeated).
  for (const auto& [name, lanes, e] :
       {std::tuple{"polar_interleave/2", 2, 432},
        std::tuple{"polar_interleave/4", 4, 432},
        std::tuple{"polar_interleave/6", 6, 432},
        std::tuple{"polar_interleave/8", 8, 432},
        std::tuple{"polar_ilv/8 864", 8, 864}}) {
    cases.push_back({name, static_cast<std::size_t>(lanes * 512),
                     [lanes, e](const kernels::KernelTable& kt, Workload& w) {
                       const float* in[8];
                       for (int l = 0; l < lanes; ++l) {
                         in[l] = w.fa.data() + l * e;
                       }
                       (void)kt.polar_interleave(in, lanes, e, 512, 1e9f,
                                                 1e30f, w.fc.data());
                     }});
  }
  cases.push_back({"awgn_add", 2048,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     // A slice of the ~15 k samples the channel noises per
                     // 30 kHz slot; sigma as at 28 dB with a 1024 FFT.
                     kt.awgn_add(w.a.data(), 2048, 42, 7, 0, 8.8e-4f);
                   }});
  // The fading channel's FIR over one 51-PRB slot with a profile's delays
  // at 30.72 MHz, rounded as ChannelModel rounds them.  The kernel works in
  // place, so each call first restores the slot (a 123 kB copy that both
  // columns pay).
  Rng rng(23);
  const std::size_t slot_len = make_ofdm_config(51).samples_per_slot();
  for (const auto& [name, profile] :
       {std::pair{"multipath_ped", ChannelProfile::kPedestrian},
        std::pair{"multipath_urban", ChannelProfile::kUrban}}) {
    std::vector<cf32> gains;
    std::vector<unsigned> delays;
    for (const auto& [delay_ns, power_db] : profile_taps_ns_db(profile)) {
      const auto amp = static_cast<float>(std::pow(10.0, power_db / 20.0));
      gains.emplace_back(amp * static_cast<float>(rng.gaussian()),
                         amp * static_cast<float>(rng.gaussian()));
      delays.push_back(static_cast<unsigned>(
          std::lround(delay_ns * 1e-9 * ChannelConfig{}.sample_rate)));
    }
    cases.push_back({name, slot_len,
                     [gains, delays](const kernels::KernelTable& kt,
                                     Workload& w) {
                       std::copy(w.pristine.begin(), w.pristine.end(),
                                 w.slot.begin());
                       kt.multipath(w.slot.data(), w.slot.size(),
                                    gains.data(), delays.data(),
                                    gains.size());
                     }});
  }
  cases.push_back({"viterbi_acs", kernels::kViterbiStates,
                   [](const kernels::KernelTable& kt, Workload& w) {
                     // Constant branch tables are fine for timing; the
                     // real tables live in phy/conv_code.cc.
                     kt.viterbi_acs(w.fa.data(), 1.0f, -0.5f, w.fb.data(),
                                    w.fb.data() + 64, w.fb.data() + 128,
                                    w.fb.data() + 192, w.i32.data(),
                                    w.i32.data() + 64, false, w.fc.data(),
                                    w.i32.data() + 128);
                   }});
  return cases;
}

/// The radio's and the sniffer's transforms at the 51-PRB carrier (1024
/// points): one FFT each way, OfdmModulator::modulate_into of a full slot
/// and OfdmDemodulator::demodulate_symbol of one symbol, under each
/// backend (kernels::select switches the table Fft dispatches through).
void run_ofdm(double budget_s, const kernels::KernelTable* simd) {
  const OfdmConfig cfg = make_ofdm_config(51);
  const std::size_t n = cfg.fft_size;
  Rng rng(22);
  ResourceGrid grid(cfg.n_prb);
  for (unsigned sym = 0; sym < grid.n_symbols(); ++sym) {
    for (cf32& re : grid.symbol(sym)) {
      re = {rng.chance(0.5) ? 0.7071f : -0.7071f,
            rng.chance(0.5) ? 0.7071f : -0.7071f};
    }
  }
  Fft fft(n);
  OfdmModulator modulator(cfg);
  OfdmDemodulator demodulator(cfg);
  IqBuffer slot;
  modulator.modulate_into(grid, slot);
  std::vector<cf32> spectrum(n);
  std::vector<cf32> time(n);
  ResourceGrid rx(cfg.n_prb);
  const std::span<const cf32> body(slot.data() + cfg.cp_len, n);

  struct OfdmCase {
    const char* name;
    std::size_t n;
    std::function<void()> fn;
  };
  const OfdmCase cases[] = {
      {"fft_forward", n, [&] { fft.forward(body, spectrum); }},
      {"fft_inverse", n, [&] { fft.inverse(spectrum, time); }},
      {"ofdm_modulate", cfg.samples_per_slot(),
       [&] { modulator.modulate_into(grid, slot); }},
      {"ofdm_demod_symbol", n,
       [&] { demodulator.demodulate_symbol(slot, 3, rx); }},
  };
  const kernels::Isa dispatch = kernels::active().isa;
  std::printf("\n== FFT and OFDM (51 PRB, %zu points; ns per call) ==\n", n);
  std::printf("%-18s %6s %12s %12s %9s\n", "op", "n", "scalar ns",
              simd ? "simd ns" : "-", "speedup");
  for (const OfdmCase& c : cases) {
    double ns[2] = {0.0, 0.0};
    for (int b = 0; b < (simd ? 2 : 1); ++b) {
      kernels::select(b == 0 ? kernels::Isa::kScalar : simd->isa);
      ns[b] = time_ns(c.fn, budget_s);
    }
    const double speedup = ns[1] > 0.0 ? ns[0] / ns[1] : 1.0;
    std::printf("%-18s %6zu %12.1f %12.1f %8.2fx\n", c.name, c.n, ns[0],
                ns[1], speedup);
  }
  kernels::select(dispatch);
}

/// Polar SC decode, ns per codeword, for the DCI 1_1 size at aggregation
/// levels 1 and 4 and the DCI 1_0 size at level 8 (repeated): codewords
/// decoded one per call and 2, 4 and PolarCode::kMaxLanes per call (the
/// engine's run lengths), under each backend (kernels::select switches the
/// table the decoder dispatches through).  The LLRs are noisy BPSK
/// codewords at -2 to 10 dB, as the blind decode meets noise and real
/// DCIs alike.
void run_polar(double budget_s, const kernels::KernelTable* simd) {
  struct Geometry {
    unsigned k;
    unsigned e;
  };
  constexpr std::size_t kWords = 64;
  const kernels::Isa dispatch = kernels::active().isa;
  std::printf("\n== Polar SC decode (ns per codeword) ==\n");
  std::printf("%-18s %6s %12s %12s %9s\n", "code", "lanes", "scalar ns",
              simd ? "simd ns" : "-", "speedup");
  Rng rng(21);
  for (const Geometry geo :
       {Geometry{67, 108}, Geometry{67, 432}, Geometry{61, 864}}) {
    const PolarCode code(geo.k, geo.e);
    std::vector<std::vector<float>> words(kWords);
    for (std::size_t w = 0; w < kWords; ++w) {
      BitVector info(geo.k);
      for (auto& bit : info) {
        bit = rng.chance(0.5) ? 1 : 0;
      }
      const BitVector coded = code.encode(info);
      const double snr = std::pow(10.0, (-2.0 + 4.0 * (w % 4)) / 10.0);
      const double sigma = std::sqrt(1.0 / (2.0 * snr));
      for (const std::uint8_t bit : coded) {
        const double rx = (bit ? -1.0 : 1.0) + rng.gaussian(0.0, sigma);
        words[w].push_back(static_cast<float>(2.0 * snr * rx));
      }
    }
    std::vector<BitVector> out(kWords, BitVector(geo.k));
    PolarScratch scratch;
    double one_lane[2] = {0.0, 0.0};
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, PolarCode::kMaxLanes}) {
      const auto decode_all = [&] {
        const float* in[PolarCode::kMaxLanes];
        std::uint8_t* bits[PolarCode::kMaxLanes];
        for (std::size_t w0 = 0; w0 < kWords; w0 += lanes) {
          for (std::size_t l = 0; l < lanes; ++l) {
            in[l] = words[w0 + l].data();
            bits[l] = out[w0 + l].data();
          }
          code.decode_lanes(std::span(in, lanes), scratch,
                            std::span(bits, lanes));
        }
      };
      double ns[2] = {0.0, 0.0};
      for (int b = 0; b < (simd ? 2 : 1); ++b) {
        kernels::select(b == 0 ? kernels::Isa::kScalar : simd->isa);
        ns[b] = time_ns(decode_all, budget_s) / kWords;
      }
      const double speedup = ns[1] > 0.0 ? ns[0] / ns[1] : 1.0;
      char name[32];
      std::snprintf(name, sizeof name, "polar_sc %u/%u", geo.k, geo.e);
      std::printf("%-18s %6zu %12.1f %12.1f %8.2fx\n", name, lanes, ns[0],
                  ns[1], speedup);
      if (lanes == 1) {
        one_lane[0] = ns[0];
        one_lane[1] = ns[1];
      } else if (lanes == PolarCode::kMaxLanes) {
        std::printf("%-18s %6s %11.2fx %11.2fx  (lane gain, 1 vs %zu)\n",
                    "", "", one_lane[0] / ns[0],
                    ns[1] > 0.0 ? one_lane[1] / ns[1] : 0.0, lanes);
      }
    }
  }
  kernels::select(dispatch);
}

/// CRC24C syndrome of a decoded DCI 1_1 word (43 payload + 24 CRC bits),
/// ns per word.  Each call takes the next of 4096 random words: one word
/// repeated lets the branch predictor learn a bitwise division's branches,
/// which a decoder's fresh words never do.
void run_crc(double budget_s) {
  constexpr std::size_t kWords = 4096;
  constexpr std::size_t kBits = 67;
  Rng rng(24);
  std::vector<std::uint8_t> words(kWords * kBits);
  for (auto& bit : words) {
    bit = rng.chance(0.5) ? 1 : 0;
  }
  std::size_t next = 0;
  std::uint32_t sink = 0;
  const double ns = time_ns(
      [&] {
        sink ^= kCrc24C.syndrome(
            std::span(words.data() + next * kBits, kBits));
        next = (next + 1) % kWords;
      },
      budget_s);
  std::printf("\n== CRC (ns per word, fresh random words) ==\n");
  std::printf("%-18s %6zu %12.1f   (xor %06x)\n", "crc24c_syndrome", kBits,
              ns, sink & 0xFFFFFFu);
}

int run(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  const double budget_s = quick ? 0.02 : 0.2;

  const kernels::KernelTable* scalar =
      kernels::table_for(kernels::Isa::kScalar);
  const kernels::KernelTable* simd = nullptr;
  for (kernels::Isa isa : {kernels::Isa::kAvx2, kernels::Isa::kNeon}) {
    if (kernels::available(isa)) {
      simd = kernels::table_for(isa);
      break;
    }
  }
  const char* simd_name = simd ? to_string(simd->isa) : "none";

  std::printf("== PHY kernel microbenchmarks ==\n");
  std::printf("(SIMD backend: %s; active dispatch: %s)\n\n", simd_name,
              to_string(kernels::active().isa));
  std::printf("%-18s %6s %12s %12s %9s\n", "kernel", "n", "scalar ns",
              simd ? "simd ns" : "-", "speedup");

  Workload w;
  w.resize(4096);  // room for 8 lanes of 864 polar LLRs
  for (const auto& c : make_cases()) {
    Row row;
    row.name = c.name;
    row.n = c.n;
    row.scalar_ns = time_ns([&] { c.fn(*scalar, w); }, budget_s);
    if (simd != nullptr) {
      row.simd_ns = time_ns([&] { c.fn(*simd, w); }, budget_s);
    }
    const double speedup =
        row.simd_ns > 0.0 ? row.scalar_ns / row.simd_ns : 1.0;
    std::printf("%-18s %6zu %12.1f %12.1f %8.2fx\n", row.name.c_str(),
                row.n, row.scalar_ns, row.simd_ns, speedup);
  }

  run_ofdm(budget_s, simd);
  run_polar(budget_s, simd);
  run_crc(budget_s);
  return 0;
}

}  // namespace
}  // namespace nrs

int main(int argc, char** argv) { return nrs::run(argc, argv); }
