// Unit tests for tertio_tape: volumes, drives, compression, library robot.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sim/simulation.h"
#include "tape/tape_drive.h"
#include "tape/tape_library.h"
#include "tape/tape_scheduler.h"
#include "tape/tape_model.h"
#include "tape/tape_volume.h"

namespace tertio::tape {
namespace {

constexpr ByteCount kBlock = 1000;  // 1 KB blocks for readable arithmetic

BlockPayload MakeBlock(uint8_t fill) {
  return MakePayload(std::vector<uint8_t>(kBlock.value(), fill));
}

TEST(TapeVolumeTest, AppendAndRead) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.Append(MakeBlock(1), 0.0).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(2), 0.0).ok());
  EXPECT_EQ(vol.size_blocks(), 2u);
  EXPECT_EQ(vol.size_bytes(), 2 * kBlock);
  auto p = vol.ReadBlock(1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p.value())[0], 2);
}

TEST(TapeVolumeTest, PhantomBlocksReadAsNull) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(100, 0.25).ok());
  EXPECT_EQ(vol.size_blocks(), 100u);
  auto p = vol.ReadBlock(50);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), nullptr);
  EXPECT_DOUBLE_EQ(vol.Compressibility(50).value(), 0.25);
}

TEST(TapeVolumeTest, CapacityEnforced) {
  TapeVolume vol("t", kBlock, /*capacity_blocks=*/2);
  ASSERT_TRUE(vol.AppendPhantom(2, 0.0).ok());
  EXPECT_EQ(vol.AppendPhantom(1, 0.0).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(vol.Append(MakeBlock(1), 0.0).code(), StatusCode::kResourceExhausted);
}

TEST(TapeVolumeTest, OutOfRangeReadRejected) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(5, 0.0).ok());
  EXPECT_FALSE(vol.ReadBlock(5).ok());
  EXPECT_FALSE(vol.MeanCompressibility(3, 3).ok());
}

TEST(TapeVolumeTest, InvalidCompressibilityRejected) {
  TapeVolume vol("t", kBlock);
  EXPECT_FALSE(vol.AppendPhantom(1, -0.1).ok());
  EXPECT_FALSE(vol.AppendPhantom(1, 1.0).ok());
}

TEST(TapeVolumeTest, TruncateReclaimsScratchSpace) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(vol.Truncate(4).ok());
  EXPECT_EQ(vol.size_blocks(), 4u);
  EXPECT_FALSE(vol.Truncate(5).ok());
}

TEST(TapeVolumeTest, PhantomRealPhantomAppendsKeepEveryBlock) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(3, 0.25).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(7), 0.5).ok());
  ASSERT_TRUE(vol.AppendPhantom(2, 0.75).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(8), 0.0).ok());
  EXPECT_EQ(vol.size_blocks(), 7u);
  const double want_c[] = {0.25, 0.25, 0.25, 0.5, 0.75, 0.75, 0.0};
  const int want_fill[] = {-1, -1, -1, 7, -1, -1, 8};  // -1 = phantom
  for (std::uint64_t i = 0; i < 7; ++i) {
    SCOPED_TRACE(i);
    EXPECT_DOUBLE_EQ(vol.Compressibility(i).value(), want_c[i]);
    auto p = vol.ReadBlock(i);
    ASSERT_TRUE(p.ok());
    if (want_fill[i] < 0) {
      EXPECT_EQ(p.value(), nullptr);
    } else {
      ASSERT_NE(p.value(), nullptr);
      EXPECT_EQ((*p.value())[0], want_fill[i]);
    }
  }
  // Summed in block order, exactly as the per-block float values add up.
  double sum = 0.0;
  for (double c : want_c) sum += static_cast<float>(c);
  EXPECT_EQ(vol.MeanCompressibility(0, 7).value(), sum / 7.0);
}

TEST(TapeVolumeTest, PhantomBlockAfterARealOneReadsAsNull) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.Append(MakeBlock(1), 0.0).ok());
  ASSERT_TRUE(vol.AppendPhantom(4, 0.25).ok());
  auto real = vol.ReadBlock(0);
  ASSERT_TRUE(real.ok());
  ASSERT_NE(real.value(), nullptr);
  for (std::uint64_t i = 1; i < 5; ++i) {
    auto p = vol.ReadBlock(i);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value(), nullptr);
  }
  EXPECT_FALSE(vol.ReadBlock(5).ok());
}

TEST(TapeVolumeTest, TruncateAcrossTheRealPhantomBoundary) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.Append(MakeBlock(1), 0.0).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(2), 0.0).ok());
  ASSERT_TRUE(vol.AppendPhantom(3, 0.5).ok());
  // Cut into the real blocks: block 0 keeps its payload, block 1 is gone.
  ASSERT_TRUE(vol.Truncate(1).ok());
  EXPECT_EQ(vol.size_blocks(), 1u);
  EXPECT_FALSE(vol.ReadBlock(1).ok());
  // Re-grow past the cut: the new blocks are phantom, not the old payloads.
  ASSERT_TRUE(vol.AppendPhantom(2, 0.25).ok());
  EXPECT_EQ(vol.ReadBlock(1).value(), nullptr);
  EXPECT_EQ(vol.ReadBlock(2).value(), nullptr);
  EXPECT_DOUBLE_EQ(vol.Compressibility(1).value(), 0.25);
  EXPECT_EQ((*vol.ReadBlock(0).value())[0], 1);
  // Cut inside the phantom tail, then append a real block after it.
  ASSERT_TRUE(vol.Truncate(2).ok());
  ASSERT_TRUE(vol.Append(MakeBlock(9), 0.0).ok());
  EXPECT_EQ(vol.ReadBlock(1).value(), nullptr);
  EXPECT_EQ((*vol.ReadBlock(2).value())[0], 9);
  // Truncating to zero leaves an empty volume that accepts appends again.
  ASSERT_TRUE(vol.Truncate(0).ok());
  EXPECT_EQ(vol.size_blocks(), 0u);
  EXPECT_FALSE(vol.ReadBlock(0).ok());
  ASSERT_TRUE(vol.AppendPhantom(1, 0.0).ok());
  EXPECT_EQ(vol.ReadBlock(0).value(), nullptr);
}

TEST(TapeVolumeTest, CapacityErrorsLeaveTheVolumeUnchanged) {
  TapeVolume vol("t", kBlock, /*capacity_blocks=*/4);
  ASSERT_TRUE(vol.Append(MakeBlock(1), 0.0).ok());
  ASSERT_TRUE(vol.AppendPhantom(2, 0.5).ok());
  Status over = vol.AppendPhantom(2, 0.5);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(over.message(), "tape t cannot hold 2 more blocks");
  EXPECT_EQ(vol.size_blocks(), 3u);
  ASSERT_TRUE(vol.Append(MakeBlock(2), 0.0).ok());
  Status full = vol.Append(MakeBlock(3), 0.0);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(full.message(), "tape t is full (4 blocks)");
  EXPECT_EQ(vol.size_blocks(), 4u);
  EXPECT_EQ((*vol.ReadBlock(3).value())[0], 2);
  EXPECT_EQ(vol.ReadBlock(2).value(), nullptr);
}

TEST(TapeVolumeTest, MeanCompressibilityAverages) {
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(2, 0.0).ok());
  ASSERT_TRUE(vol.AppendPhantom(2, 0.5).ok());
  EXPECT_NEAR(vol.MeanCompressibility(0, 4).value(), 0.25, 1e-9);
}

TEST(TapeModelTest, CompressionRaisesEffectiveRate) {
  TapeDriveModel m = TapeDriveModel::DLT4000();
  EXPECT_DOUBLE_EQ((m.EffectiveRate(0.0)).value(), (m.native_rate_bps).value());
  EXPECT_NEAR((m.EffectiveRate(0.25)).value(), (m.native_rate_bps / 0.75).value(), 1e-6);
  // 50%-compressible hits the 2:1 cap exactly.
  EXPECT_NEAR((m.EffectiveRate(0.5)).value(), (m.native_rate_bps * 2.0).value(), 1e-6);
  // Beyond-cap compressibility stays capped.
  EXPECT_NEAR((m.EffectiveRate(0.9)).value(), (m.native_rate_bps * 2.0).value(), 1e-6);
}

TEST(TapeModelTest, CompressionDisabledIgnoresCompressibility) {
  TapeDriveModel m = TapeDriveModel::DLT4000();
  m.compression_enabled = false;
  EXPECT_DOUBLE_EQ((m.EffectiveRate(0.5)).value(), (m.native_rate_bps).value());
}

class TapeDriveTest : public ::testing::Test {
 protected:
  TapeDriveTest()
      : vol_("t", kBlock),
        drive_("drv", TapeDriveModel::Ideal(/*rate_bps=*/1000.0), sim_.CreateResource("tape")) {}

  sim::Simulation sim_;
  TapeVolume vol_;
  TapeDrive drive_;
};

TEST_F(TapeDriveTest, ReadRequiresLoadedTape) {
  EXPECT_EQ(drive_.Read(0, 1, 0.0).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(drive_.Rewind(0.0).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TapeDriveTest, SequentialReadCostsTransferTime) {
  ASSERT_TRUE(vol_.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  // 10 blocks * 1000 B at 1000 B/s = 10 s.
  auto iv = drive_.Read(0, 10, 0.0);
  ASSERT_TRUE(iv.ok());
  EXPECT_DOUBLE_EQ((iv->duration()).value(), 10.0);
  EXPECT_EQ(drive_.head_position(), 10u);
  EXPECT_EQ(drive_.stats().blocks_read, 10u);
}

TEST_F(TapeDriveTest, ContiguousReadsStreamWithoutPenalty) {
  ASSERT_TRUE(vol_.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 5, 0.0).ok());
  auto iv = drive_.Read(5, 5, 100.0);  // idle gap, but contiguous: no reposition
  ASSERT_TRUE(iv.ok());
  EXPECT_DOUBLE_EQ((iv->duration()).value(), 5.0);
  EXPECT_EQ(drive_.stats().reposition_count, 0u);
}

TEST_F(TapeDriveTest, AppendReadsBackCorrectly) {
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  std::vector<BlockPayload> blocks{MakeBlock(7), MakeBlock(8)};
  ASSERT_TRUE(drive_.Append(blocks, 0.0, 0.0).ok());
  std::vector<BlockPayload> out;
  ASSERT_TRUE(drive_.Read(0, 2, 10.0, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ((*out[0])[0], 7);
  EXPECT_EQ((*out[1])[0], 8);
}

TEST_F(TapeDriveTest, RewindResetsHead) {
  ASSERT_TRUE(vol_.AppendPhantom(10, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 10, 0.0).ok());
  ASSERT_TRUE(drive_.Rewind(0.0).ok());
  EXPECT_EQ(drive_.head_position(), 0u);
  EXPECT_EQ(drive_.stats().rewind_count, 1u);
}

TEST_F(TapeDriveTest, ReadReverseWhenSupported) {
  ASSERT_TRUE(vol_.Append(MakeBlock(1), 0.0).ok());
  ASSERT_TRUE(vol_.Append(MakeBlock(2), 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 2, 0.0).ok());
  std::vector<BlockPayload> out;
  auto iv = drive_.ReadReverse(2, 0.0, &out);
  ASSERT_TRUE(iv.ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ((*out[0])[0], 2);  // reverse order
  EXPECT_EQ((*out[1])[0], 1);
  EXPECT_EQ(drive_.head_position(), 0u);
}

TEST_F(TapeDriveTest, ReadReverseBeyondBotRejected) {
  ASSERT_TRUE(vol_.AppendPhantom(2, 0.0).ok());
  ASSERT_TRUE(drive_.Load(&vol_, 0.0).ok());
  ASSERT_TRUE(drive_.Read(0, 1, 0.0).ok());
  EXPECT_FALSE(drive_.ReadReverse(2, 0.0).ok());
}

TEST(TapeDriveRealisticTest, SeekChargesLocateAndReposition) {
  sim::Simulation sim;
  TapeDriveModel model = TapeDriveModel::DLT4000();
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(1000, 0.0).ok());
  TapeDrive drive("drv", model, sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&vol, 0.0).ok());
  ASSERT_TRUE(drive.Read(0, 10, 0.0).ok());
  auto iv = drive.Read(500, 10, 1000.0);  // discontiguous: locate + reposition
  ASSERT_TRUE(iv.ok());
  double transfer = (10 * kBlock / model.native_rate_bps).value();
  double locate = model.locate_base_seconds.value() +
                  model.locate_seconds_per_byte * (500.0 - 10.0) * static_cast<double>(kBlock.value()) +
                  model.reposition_seconds.value();
  EXPECT_NEAR((iv->duration()).value(), transfer + locate, 1e-9);
  EXPECT_EQ(drive.stats().reposition_count, 1u);
  EXPECT_EQ(drive.stats().locate_count, 1u);
}

TEST(TapeDriveRealisticTest, ReadReverseUnimplementedOnDlt) {
  sim::Simulation sim;
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(10, 0.0).ok());
  TapeDrive drive("drv", TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&vol, 0.0).ok());
  ASSERT_TRUE(drive.Read(0, 10, 0.0).ok());
  EXPECT_EQ(drive.ReadReverse(5, 0.0).status().code(), StatusCode::kUnimplemented);
}

TEST(TapeDriveRealisticTest, CompressibleDataTransfersFaster) {
  sim::Simulation sim;
  TapeDriveModel model = TapeDriveModel::DLT4000();
  TapeVolume vol("t", kBlock);
  ASSERT_TRUE(vol.AppendPhantom(100, 0.25).ok());
  TapeDrive drive("drv", model, sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&vol, 0.0).ok());
  auto iv = drive.Read(0, 100, 0.0);
  ASSERT_TRUE(iv.ok());
  double expected = (100 * kBlock / (model.native_rate_bps / 0.75)).value();
  EXPECT_NEAR((iv->duration()).value(), expected, 1e-9);
}

TEST(TapeLibraryTest, MountChargesRobotAndLoad) {
  sim::Simulation sim;
  TapeLibraryModel lm = TapeLibraryModel::SmallAutoloader();
  TapeLibrary library(lm, sim.CreateResource("robot"));
  auto slot = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  ASSERT_TRUE(slot.ok());
  TapeDriveModel dm = TapeDriveModel::DLT4000();
  TapeDrive drive("drv", dm, sim.CreateResource("tape"));
  auto iv = library.Mount(slot.value(), &drive, 0.0);
  ASSERT_TRUE(iv.ok());
  EXPECT_DOUBLE_EQ(iv->end.value(), (lm.exchange_seconds + dm.load_seconds).value());
  EXPECT_TRUE(drive.loaded());
}

TEST(TapeLibraryTest, RemountIsNoOp) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  auto slot = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  TapeDrive drive("drv", TapeDriveModel::Ideal(1000), sim.CreateResource("tape"));
  ASSERT_TRUE(library.Mount(slot.value(), &drive, 0.0).ok());
  auto again = library.Mount(slot.value(), &drive, 50.0);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ((again->duration()).value(), 0.0);
}

TEST(TapeLibraryTest, ExchangeReturnsPreviousCartridge) {
  sim::Simulation sim;
  TapeLibraryModel lm = TapeLibraryModel::SmallAutoloader();
  TapeLibrary library(lm, sim.CreateResource("robot"));
  auto s0 = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  auto s1 = library.AddCartridge(std::make_unique<TapeVolume>("t1", kBlock));
  TapeDrive drive("drv", TapeDriveModel::Ideal(1000), sim.CreateResource("tape"));
  ASSERT_TRUE(library.Mount(s0.value(), &drive, 0.0).ok());
  auto iv = library.Mount(s1.value(), &drive, 100.0);
  ASSERT_TRUE(iv.ok());
  // eject trip + inject trip
  EXPECT_DOUBLE_EQ(iv->end.value(), (100.0 + 2 * lm.exchange_seconds).value());
  // Old cartridge is home again: can be mounted into another drive.
  TapeDrive drive2("drv2", TapeDriveModel::Ideal(1000), sim.CreateResource("tape2"));
  EXPECT_TRUE(library.Mount(s0.value(), &drive2, 300.0).ok());
}

TEST(TapeLibraryTest, MountedElsewhereRejected) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  auto s0 = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  TapeDrive a("a", TapeDriveModel::Ideal(1000), sim.CreateResource("ta"));
  TapeDrive b("b", TapeDriveModel::Ideal(1000), sim.CreateResource("tb"));
  ASSERT_TRUE(library.Mount(s0.value(), &a, 0.0).ok());
  EXPECT_EQ(library.Mount(s0.value(), &b, 0.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TapeLibraryTest, DismountStowsCartridge) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  auto s0 = library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock));
  TapeDrive drive("drv", TapeDriveModel::Ideal(1000), sim.CreateResource("tape"));
  ASSERT_TRUE(library.Mount(s0.value(), &drive, 0.0).ok());
  ASSERT_TRUE(library.Dismount(&drive, 10.0).ok());
  EXPECT_FALSE(drive.loaded());
  // Exchange-time claim of Section 3.2: one exchange is seconds, reading a
  // full cartridge is hours — checked in cost_test at full scale.
}

TEST(TapeLibraryTest, SlotLimitEnforced) {
  sim::Simulation sim;
  TapeLibraryModel lm;
  lm.slots = 1;
  TapeLibrary library(lm, sim.CreateResource("robot"));
  ASSERT_TRUE(library.AddCartridge(std::make_unique<TapeVolume>("t0", kBlock)).ok());
  EXPECT_EQ(library.AddCartridge(std::make_unique<TapeVolume>("t1", kBlock)).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace tertio::tape

// ---- TapeScheduler ---------------------------------------------------------

namespace tertio::tape {
namespace {

class TapeSchedulerTest : public ::testing::Test {
 protected:
  TapeSchedulerTest()
      : vol_("t", kBlock),
        drive_("drv", TapeDriveModel::DLT4000(), sim_.CreateResource("tape")) {
    // 1000 blocks of distinguishable real data.
    for (int i = 0; i < 1000; ++i) {
      TERTIO_CHECK(vol_.Append(MakeBlock(static_cast<uint8_t>(i & 0xFF)), 0.0).ok(), "");
    }
    TERTIO_CHECK(drive_.Load(&vol_, 0.0).ok(), "");
  }

  // Scattered requests in a deliberately bad arrival order.
  std::vector<TapeReadRequest> ScatteredRequests() {
    return {{1, 800, 10}, {2, 100, 10}, {3, 600, 10}, {4, 50, 10},
            {5, 900, 10}, {6, 300, 10}, {7, 450, 10}, {8, 10, 10}};
  }

  sim::Simulation sim_;
  TapeVolume vol_;
  TapeDrive drive_;
};

TEST_F(TapeSchedulerTest, SortedBatchBeatsFifo) {
  SimSeconds fifo_time, sorted_time;
  std::uint64_t fifo_repos, sorted_repos;
  {
    sim::Simulation sim;
    TapeDrive drive("f", TapeDriveModel::DLT4000(), sim.CreateResource("t"));
    ASSERT_TRUE(drive.Load(&vol_, 0.0).ok());
    TapeScheduler fifo(&drive, SchedulePolicy::kFifo);
    for (const auto& r : ScatteredRequests()) fifo.Submit(r);
    auto done = fifo.ExecuteBatch(0.0);
    ASSERT_TRUE(done.ok());
    fifo_time = done.completions.back().interval.end;
    fifo_repos = drive.stats().reposition_count;
  }
  {
    sim::Simulation sim;
    TapeDrive drive("s", TapeDriveModel::DLT4000(), sim.CreateResource("t"));
    ASSERT_TRUE(drive.Load(&vol_, 0.0).ok());
    TapeScheduler sorted(&drive, SchedulePolicy::kSortedAscending);
    for (const auto& r : ScatteredRequests()) sorted.Submit(r);
    auto done = sorted.ExecuteBatch(0.0);
    ASSERT_TRUE(done.ok());
    sorted_time = done.completions.back().interval.end;
    sorted_repos = drive.stats().reposition_count;
  }
  EXPECT_LT(sorted_time, fifo_time);
  EXPECT_LE(sorted_repos, fifo_repos);
}

TEST_F(TapeSchedulerTest, ElevatorContinuesFromHead) {
  // Head at 500; elevator serves >= 500 first, then wraps.
  ASSERT_TRUE(drive_.Read(490, 10, 0.0).ok());
  TapeScheduler elevator(&drive_, SchedulePolicy::kElevator);
  for (const auto& r : ScatteredRequests()) elevator.Submit(r);
  auto done = elevator.ExecuteBatch(1000.0);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.completions.size(), 8u);
  // First served request starts at or after the head (600 is the first).
  EXPECT_EQ(done.completions.front().id, 3u);
  // Wrapped tail is ascending from the lowest start.
  EXPECT_EQ(done.completions.back().id, 7u);
}

TEST_F(TapeSchedulerTest, PoliciesReturnIdenticalData) {
  auto run = [&](SchedulePolicy policy) {
    sim::Simulation sim;
    TapeDrive drive("d", TapeDriveModel::DLT4000(), sim.CreateResource("t"));
    TERTIO_CHECK(drive.Load(&vol_, 0.0).ok(), "");
    TapeScheduler scheduler(&drive, policy);
    for (const auto& r : ScatteredRequests()) scheduler.Submit(r);
    auto done = scheduler.ExecuteBatch(0.0, /*capture=*/true);
    TERTIO_CHECK(done.ok(), "");
    // Collate payload first-bytes by request id.
    std::map<uint64_t, std::vector<uint8_t>> by_id;
    for (const auto& completion : done.completions) {
      for (const auto& payload : completion.payloads) {
        by_id[completion.id].push_back((*payload)[0]);
      }
    }
    return by_id;
  };
  auto fifo = run(SchedulePolicy::kFifo);
  auto sorted = run(SchedulePolicy::kSortedAscending);
  auto elevator = run(SchedulePolicy::kElevator);
  EXPECT_EQ(fifo, sorted);
  EXPECT_EQ(fifo, elevator);
}

TEST_F(TapeSchedulerTest, EqualStartsBreakTiesByRequestId) {
  // Requests sharing a start position must execute in id order no matter
  // how submission interleaved them — the executed order (and thus the
  // drive timeline) is a function of the request set alone.
  std::vector<TapeReadRequest> ties = {{4, 200, 5}, {1, 200, 5}, {3, 200, 5},
                                       {2, 700, 5}, {5, 700, 5}};
  for (SchedulePolicy policy : {SchedulePolicy::kSortedAscending, SchedulePolicy::kElevator}) {
    std::vector<std::vector<std::uint64_t>> orders;
    // Two opposite submission interleavings.
    for (bool reversed : {false, true}) {
      sim::Simulation sim;
      TapeDrive drive("d", TapeDriveModel::DLT4000(), sim.CreateResource("t"));
      ASSERT_TRUE(drive.Load(&vol_, 0.0).ok());
      TapeScheduler scheduler(&drive, policy);
      std::vector<TapeReadRequest> submitted = ties;
      if (reversed) std::reverse(submitted.begin(), submitted.end());
      for (const auto& r : submitted) scheduler.Submit(r);
      auto done = scheduler.ExecuteBatch(0.0);
      ASSERT_TRUE(done.ok());
      std::vector<std::uint64_t> order;
      for (const auto& completion : done.completions) order.push_back(completion.id);
      orders.push_back(std::move(order));
    }
    EXPECT_EQ(orders[0], (std::vector<std::uint64_t>{1, 3, 4, 2, 5}));
    EXPECT_EQ(orders[0], orders[1]);
  }
}

TEST_F(TapeSchedulerTest, BatchDrainsPendingQueue) {
  TapeScheduler scheduler(&drive_, SchedulePolicy::kFifo);
  scheduler.Submit({1, 0, 5});
  EXPECT_EQ(scheduler.pending(), 1u);
  ASSERT_TRUE(scheduler.ExecuteBatch(0.0).ok());
  EXPECT_EQ(scheduler.pending(), 0u);
  auto empty = scheduler.ExecuteBatch(0.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.completions.empty());
}

}  // namespace
}  // namespace tertio::tape

// ---- Spanned (multi-cartridge) volumes -------------------------------------

#include "tape/spanned_volume.h"

namespace tertio::tape {
namespace {

class SpannedVolumeTest : public ::testing::Test {
 protected:
  SpannedVolumeTest()
      : library_(TapeLibraryModel::SmallAutoloader(), sim_.CreateResource("robot")),
        drive_("drv", TapeDriveModel::DLT4000(), sim_.CreateResource("tape")) {
    // Three cartridges of 100 / 50 / 70 distinguishable blocks.
    int sizes[] = {100, 50, 70};
    uint8_t fill = 0;
    for (int size : sizes) {
      auto volume = std::make_unique<TapeVolume>("cart", kBlock);
      for (int b = 0; b < size; ++b) {
        TERTIO_CHECK(volume->Append(MakeBlock(fill++), 0.0).ok(), "");
      }
      slots_.push_back(library_.AddCartridge(std::move(volume)).value());
    }
  }

  sim::Simulation sim_;
  TapeLibrary library_;
  TapeDrive drive_;
  std::vector<int> slots_;
};

TEST_F(SpannedVolumeTest, ResolveMapsAcrossCartridges) {
  auto set = SpannedVolumeSet::Create(&library_, slots_);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->total_blocks(), 220u);
  EXPECT_EQ(set->cartridge_count(), 3);
  auto a = set->Resolve(0);
  EXPECT_EQ(a->member, 0);
  EXPECT_EQ(a->local, 0u);
  auto b = set->Resolve(99);
  EXPECT_EQ(b->member, 0);
  EXPECT_EQ(b->local, 99u);
  auto c = set->Resolve(100);
  EXPECT_EQ(c->member, 1);
  EXPECT_EQ(c->local, 0u);
  auto d = set->Resolve(219);
  EXPECT_EQ(d->member, 2);
  EXPECT_EQ(d->local, 69u);
  EXPECT_FALSE(set->Resolve(220).ok());
}

TEST_F(SpannedVolumeTest, ReadCrossesBoundariesWithExchanges) {
  auto set = SpannedVolumeSet::Create(&library_, slots_);
  ASSERT_TRUE(set.ok());
  SpannedReader reader(&set.value(), &drive_);
  std::vector<BlockPayload> out;
  // Read 80..180: tail of cartridge 0, all of 1, head of 2.
  auto interval = reader.Read(80, 100, 0.0, &out);
  ASSERT_TRUE(interval.ok()) << interval.status();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ((*out[static_cast<size_t>(i)])[0], static_cast<uint8_t>(80 + i));
  }
  EXPECT_EQ(reader.exchanges(), 3u);  // initial mount + two boundary crossings
}

TEST_F(SpannedVolumeTest, SequentialReadsReuseMountedCartridge) {
  auto set = SpannedVolumeSet::Create(&library_, slots_);
  ASSERT_TRUE(set.ok());
  SpannedReader reader(&set.value(), &drive_);
  ASSERT_TRUE(reader.Read(0, 10, 0.0).ok());
  ASSERT_TRUE(reader.Read(10, 10, 0.0).ok());
  EXPECT_EQ(reader.exchanges(), 1u);  // same cartridge, no robot trips
}

TEST_F(SpannedVolumeTest, ExchangeCostIsChargedButAmortized) {
  auto set = SpannedVolumeSet::Create(&library_, slots_);
  ASSERT_TRUE(set.ok());
  SpannedReader reader(&set.value(), &drive_);
  auto interval = reader.Read(0, set->total_blocks(), 0.0);
  ASSERT_TRUE(interval.ok());
  // Three exchanges at >= 30 s each appear in the response...
  double exchange_floor = ((3 * library_.model().exchange_seconds)).value();
  EXPECT_GT(interval->end, exchange_floor);
  // ...but transfer still dominates at realistic cartridge sizes — here the
  // tiny test cartridges make exchanges visible, which is the point: the
  // cost is charged, not assumed away.
  EXPECT_GT(interval->end, 0.0);
}

TEST_F(SpannedVolumeTest, InvalidConstructionRejected) {
  EXPECT_FALSE(SpannedVolumeSet::Create(nullptr, {0}).ok());
  EXPECT_FALSE(SpannedVolumeSet::Create(&library_, {}).ok());
  EXPECT_FALSE(SpannedVolumeSet::Create(&library_, {99}).ok());
}

}  // namespace
}  // namespace tertio::tape
