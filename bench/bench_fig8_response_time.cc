/// \file bench_fig8_response_time.cc
/// Reproduces Figure 8 (response time vs memory size, Experiment 3, base
/// tape speed: 25%-compressible data).
///
/// Expected: NB methods blow up at small M; CDT-GH flat and dominant in the
/// small/medium range; CDT-NB/MB approaches the optimum at large M and
/// crosses CDT-GH around M = 0.7|R|; GH shows a small uptick at the very
/// smallest M (bucket writes degrade to random I/O).
///
/// --scale=N multiplies |R|, |S|, D and memory uniformly. --scale=100 is
/// the TB-class timing-only sweep (100 GB S, 1.8 GB R): chunk counts grow
/// 100x, and host time with them, since every transfer commits chunk by
/// chunk (DESIGN.md 5.1).

#include <cstdlib>
#include <cstring>

#include "bench/exp3_common.h"

namespace tertio::bench {
namespace {

/// Parses --scale=N from argv (default 1).
std::uint64_t ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      const long long value = std::atoll(argv[i] + 8);
      TERTIO_CHECK(value >= 1, "--scale must be >= 1");
      return static_cast<std::uint64_t>(value);
    }
  }
  return 1;
}

int Run(int argc, char** argv) {
  const std::uint64_t scale = ParseScale(argc, argv);
  BenchRecorder recorder(scale == 1 ? "fig8_response_time"
                                    : StrFormat("fig8_response_time_x%llu",
                                                (unsigned long long)scale),
                         argc, argv);
  Banner("Figure 8 — response time vs memory size (Experiment 3, base tape speed)",
         "Section 9, Figure 8",
         "NB explodes at small M; CDT-GH flat; crossover near M = 0.7|R|");
  if (scale != 1) {
    std::printf("Scaled sweep: %llux paper size (|S| = %llu MB, |R| = %llu MB, "
                "D = %llu MB), timing-only\n",
                (unsigned long long)scale, (unsigned long long)(scale * kExp3S / kMB),
                (unsigned long long)(scale * kExp3R / kMB),
                (unsigned long long)(scale * kExp3D / kMB));
  }
  Exp3Sweep sweep = RunExp3Sweep(kBaseCompressibility, recorder.threads(), scale);
  PrintExp3Series(
      sweep, "M/|R|", " (s)",
      [](const join::JoinStats& stats) { return stats.response_seconds.value(); }, 0,
      {"Optimum (s)"}, {sweep.optimum_seconds.value()});
  RecordExp3Sweep(recorder, sweep);
  return recorder.Finish();
}

}  // namespace
}  // namespace tertio::bench

int main(int argc, char** argv) { return tertio::bench::Run(argc, argv); }
