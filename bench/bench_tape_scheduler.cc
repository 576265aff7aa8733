/// \file bench_tape_scheduler.cc
/// Tape request scheduling (the paper's Section 2 related work): Postgres
/// and Paradise improve tape efficiency by batching and reordering the I/O
/// references of pre-executed queries. This harness quantifies that effect
/// on the tertio drive model: batches of random block-range reads executed
/// FIFO vs sorted vs elevator.

#include "bench/bench_util.h"
#include "tape/tape_scheduler.h"
#include "util/rng.h"

namespace tertio::bench {
namespace {

int Run() {
  Banner("Tape I/O scheduling — FIFO vs sorted vs elevator batches",
         "Section 2 (Postgres [15,16] / Paradise [19] reordering)",
         "reordering cuts repositioning and response by a large factor");
  constexpr BlockCount kTapeBlocks = 2'500'000;  // a full ~20 GB cartridge
  constexpr int kRequests = 64;
  constexpr BlockCount kRequestBlocks = 128;  // 1 MB subquery reads

  exec::TableReport table(
      {"policy", "batch", "response (s)", "repositions", "vs FIFO"});
  struct PolicyRow {
    const char* name;
    tape::SchedulePolicy policy;
  } policies[] = {{"FIFO", tape::SchedulePolicy::kFifo},
                  {"sorted", tape::SchedulePolicy::kSortedAscending},
                  {"elevator", tape::SchedulePolicy::kElevator}};

  for (int batch : {8, 64}) {
    double fifo_response = 0.0;
    for (const PolicyRow& row : policies) {
      sim::Simulation sim;
      tape::TapeVolume volume("archive", kDefaultBlockBytes);
      TERTIO_CHECK(volume.AppendPhantom(kTapeBlocks, kBaseCompressibility).ok(), "setup");
      tape::TapeDrive drive("drv", tape::TapeDriveModel::DLT4000(),
                            sim.CreateResource("tape"));
      TERTIO_CHECK(drive.Load(&volume, 0.0).ok(), "load");
      tape::TapeScheduler scheduler(&drive, row.policy);

      Rng rng(4242);
      SimSeconds cursor = 0.0;
      for (int issued = 0; issued < kRequests;) {
        for (int i = 0; i < batch && issued < kRequests; ++i, ++issued) {
          BlockIndex start = rng.NextBelow((kTapeBlocks - kRequestBlocks).value());
          scheduler.Submit({static_cast<std::uint64_t>(issued), start, kRequestBlocks});
        }
        auto done = scheduler.ExecuteBatch(cursor);
        TERTIO_CHECK(done.ok(), done.status.ToString());
        cursor = done.completions.back().interval.end;
      }
      if (row.policy == tape::SchedulePolicy::kFifo) fifo_response = cursor.value();
      table.AddRow({row.name, StrFormat("%d", batch), StrFormat("%.0f", cursor.value()),
                    StrFormat("%llu", (unsigned long long)drive.stats().reposition_count),
                    StrFormat("%.2fx", fifo_response > 0 ? cursor.value() / fifo_response : 1.0)});
    }
  }
  table.Print();
  std::printf(
      "\nLarger batches give the scheduler more to reorder — the mechanism\n"
      "behind Paradise's pre-execution batching. The tertio join methods do\n"
      "not need it (their tape access is sequential by construction).\n");
  return 0;
}

}  // namespace
}  // namespace tertio::bench

int main() { return tertio::bench::Run(); }
