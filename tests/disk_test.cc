// Unit tests for tertio_disk: disk model, volume, allocator, striped group.

#include <gtest/gtest.h>

#include "disk/allocator.h"
#include "disk/disk_model.h"
#include "disk/disk_volume.h"
#include "disk/striped_group.h"
#include "sim/simulation.h"
#include "reference_extent_slice.h"
#include "util/rng.h"

namespace tertio::disk {
namespace {

constexpr ByteCount kBlock = 1000;

TEST(DiskModelTest, TransferSeconds) {
  DiskModel m = DiskModel::Ideal(1000.0);
  EXPECT_DOUBLE_EQ((m.TransferSeconds(5000)).value(), 5.0);
}

TEST(DiskVolumeTest, SequentialRequestsSkipPositioning) {
  sim::Simulation sim;
  DiskModel m = DiskModel::QuantumFireball1080();
  DiskVolume disk("d0", m, sim.CreateResource("d0"), 100, kBlock);
  auto a = disk.Write(0, 10, 0.0);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR((a->duration()).value(), (m.positioning_seconds + m.TransferSeconds(10 * kBlock)).value(), 1e-12);
  auto b = disk.Write(10, 10, a->end);  // continues sequentially
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR((b->duration()).value(), (m.TransferSeconds(10 * kBlock)).value(), 1e-12);
  EXPECT_EQ(disk.stats().positioned_requests, 1u);
  EXPECT_EQ(disk.stats().requests, 2u);
}

TEST(DiskVolumeTest, DiscontiguousRequestPaysPositioning) {
  sim::Simulation sim;
  DiskModel m = DiskModel::QuantumFireball1080();
  DiskVolume disk("d0", m, sim.CreateResource("d0"), 100, kBlock);
  ASSERT_TRUE(disk.Write(0, 10, 0.0).ok());
  auto b = disk.Read(50, 10, 100.0);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR((b->duration()).value(), (m.positioning_seconds + m.TransferSeconds(10 * kBlock)).value(), 1e-12);
  EXPECT_EQ(disk.stats().positioned_requests, 2u);
}

TEST(DiskVolumeTest, ThirtyBlockRequestsMakePositioningNegligible) {
  // The paper's Section 3.2 claim: with requests of >= 30 blocks, seek and
  // rotational latency play "a relatively minor role" against transfer cost.
  DiskModel m = DiskModel::QuantumFireball1080();
  double transfer = m.TransferSeconds(30 * kDefaultBlockBytes).value();
  EXPECT_LT(m.positioning_seconds / (transfer + m.positioning_seconds), 0.25);
}

TEST(DiskVolumeTest, DataRoundTrips) {
  sim::Simulation sim;
  DiskVolume disk("d0", DiskModel::Ideal(1e6), sim.CreateResource("d0"), 10, kBlock);
  std::vector<BlockPayload> payloads{MakePayload(std::vector<uint8_t>(kBlock.value(), 0xAA)),
                                     MakePayload(std::vector<uint8_t>(kBlock.value(), 0xBB))};
  ASSERT_TRUE(disk.Write(3, 2, 0.0, payloads.data()).ok());
  std::vector<BlockPayload> out;
  ASSERT_TRUE(disk.Read(3, 2, 1.0, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ((*out[0])[0], 0xAA);
  EXPECT_EQ((*out[1])[0], 0xBB);
}

TEST(DiskVolumeTest, OutOfRangeRejected) {
  sim::Simulation sim;
  DiskVolume disk("d0", DiskModel::Ideal(1e6), sim.CreateResource("d0"), 10, kBlock);
  EXPECT_FALSE(disk.Read(5, 6, 0.0).ok());
  EXPECT_FALSE(disk.Write(10, 1, 0.0).ok());
}

TEST(AllocatorTest, StripesAcrossDisks) {
  DiskSpaceAllocator alloc({100, 100}, /*stripe_unit=*/10);
  auto extents = alloc.Allocate(40, 0.0, "buf");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(TotalBlocks(*extents), 40u);
  // Round-robin in 10-block stripes over 2 disks: 20 blocks on each.
  BlockCount on_disk[2] = {0, 0};
  for (const Extent& e : *extents) on_disk[e.disk] += e.count;
  EXPECT_EQ(on_disk[0], 20u);
  EXPECT_EQ(on_disk[1], 20u);
  EXPECT_EQ(alloc.used_blocks(), 40u);
  EXPECT_EQ(alloc.free_blocks(), 160u);
}

TEST(AllocatorTest, ExhaustionRejected) {
  DiskSpaceAllocator alloc({10, 10}, 4);
  EXPECT_FALSE(alloc.Allocate(21, 0.0, "big").ok());
  ASSERT_TRUE(alloc.Allocate(20, 0.0, "fits").ok());
  EXPECT_FALSE(alloc.Allocate(1, 0.0, "one").ok());
}

TEST(AllocatorTest, FreeCoalescesAndReuses) {
  DiskSpaceAllocator alloc({100}, 10);
  auto a = alloc.Allocate(30, 0.0, "a");
  auto b = alloc.Allocate(30, 0.0, "b");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(alloc.Free(*a, 1.0, "a").ok());
  ASSERT_TRUE(alloc.Free(*b, 2.0, "b").ok());
  EXPECT_EQ(alloc.used_blocks(), 0u);
  // After coalescing, the full 100 blocks are allocatable again.
  auto c = alloc.Allocate(100, 3.0, "c");
  EXPECT_TRUE(c.ok());
}

TEST(AllocatorTest, DiskMaskDedicatesDisks) {
  DiskSpaceAllocator alloc({50, 50}, 10);
  std::vector<bool> only_disk1{false, true};
  auto extents = alloc.Allocate(30, 0.0, "buf", only_disk1);
  ASSERT_TRUE(extents.ok());
  for (const Extent& e : *extents) EXPECT_EQ(e.disk, 1);
  // Mask restricts capacity too.
  EXPECT_FALSE(alloc.Allocate(30, 0.0, "too-big", only_disk1).ok());
}

TEST(AllocatorTest, TraceRecordsUtilization) {
  DiskSpaceAllocator alloc({100}, 10);
  alloc.EnableTrace();
  auto a = alloc.Allocate(40, 1.0, "iter-0");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 5.0, "iter-0").ok());
  ASSERT_EQ(alloc.trace().size(), 2u);
  EXPECT_DOUBLE_EQ(alloc.trace()[0].time.value(), 1.0);
  EXPECT_EQ(alloc.trace()[0].delta_blocks, 40);
  EXPECT_EQ(alloc.trace()[0].used_after, 40u);
  EXPECT_EQ(alloc.trace()[1].delta_blocks, -40);
  EXPECT_EQ(alloc.trace()[1].used_after, 0u);
  EXPECT_EQ(alloc.trace()[1].tag, "iter-0");
}

TEST(AllocatorTest, FirstFitKeepsDataPacked) {
  DiskSpaceAllocator alloc({100}, 100);
  auto a = alloc.Allocate(10, 0.0, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 1.0, "a").ok());
  auto b = alloc.Allocate(10, 2.0, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)[0].start, 0u);  // reuses the lowest hole
}

TEST(StripedGroupTest, UniformConfigSplitsCapacity) {
  DiskGroupConfig config =
      DiskGroupConfig::Uniform(3, DiskModel::Ideal(1e6), 99, kBlock, /*stripe_unit=*/8);
  EXPECT_EQ(config.disks.size(), 3u);
  EXPECT_EQ(config.per_disk_capacity[0], 33u);
}

TEST(StripedGroupTest, StripedReadUsesAllArmsInParallel) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(2, DiskModel::Ideal(1000.0 * kBlock.value()), 1000,
                                                    kBlock, /*stripe_unit=*/10);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(100, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  auto wiv = group.WriteExtents(*extents, 0.0);
  ASSERT_TRUE(wiv.ok());
  // 100 blocks at 1000 blocks/s/disk over 2 disks: ~0.05 s, not 0.1 s.
  EXPECT_NEAR((wiv->duration()).value(), 0.05, 1e-9);
  auto riv = group.ReadExtents(*extents, wiv->end);
  ASSERT_TRUE(riv.ok());
  EXPECT_NEAR((riv->duration()).value(), 0.05, 1e-9);
  EXPECT_DOUBLE_EQ((group.aggregate_rate_bps()).value(),
                   2.0 * 1000.0 * static_cast<double>(kBlock.value()));
}

TEST(StripedGroupTest, PayloadsRoundTripInExtentOrder) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(2, DiskModel::Ideal(1e6), 100, kBlock, 4);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(10, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  std::vector<BlockPayload> payloads;
  for (uint8_t i = 0; i < 10; ++i) {
    payloads.push_back(MakePayload(std::vector<uint8_t>(kBlock.value(), i)));
  }
  ASSERT_TRUE(group.WriteExtents(*extents, 0.0, &payloads).ok());
  std::vector<BlockPayload> out;
  ASSERT_TRUE(group.ReadExtents(*extents, 1.0, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  for (uint8_t i = 0; i < 10; ++i) EXPECT_EQ((*out[i])[0], i);
}

TEST(StripedGroupTest, PayloadCountMismatchRejected) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(1, DiskModel::Ideal(1e6), 100, kBlock, 4);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(10, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  std::vector<BlockPayload> wrong(3);
  EXPECT_FALSE(group.WriteExtents(*extents, 0.0, &wrong).ok());
}

TEST(StripedGroupTest, TotalStatsAggregate) {
  sim::Simulation sim;
  DiskGroupConfig config = DiskGroupConfig::Uniform(2, DiskModel::Ideal(1e6), 100, kBlock, 4);
  StripedDiskGroup group(config, &sim);
  auto extents = group.allocator().Allocate(20, 0.0, "data");
  ASSERT_TRUE(extents.ok());
  ASSERT_TRUE(group.WriteExtents(*extents, 0.0).ok());
  ASSERT_TRUE(group.ReadExtents(*extents, 1.0).ok());
  DiskStats stats = group.TotalStats();
  EXPECT_EQ(stats.blocks_written, 20u);
  EXPECT_EQ(stats.blocks_read, 20u);
}

// ---- ExtentCursor vs the per-call slicer -------------------------------------

/// Checks one slice request three ways: the cursor (carrying its state from
/// earlier requests), the one-shot SliceExtents, and the per-call oracle.
void ExpectSameSlice(ExtentCursor& cursor, const ExtentList& extents, BlockCount offset,
                     BlockCount count) {
  SCOPED_TRACE(::testing::Message() << "offset " << offset << " count " << count << " over "
                                    << extents.size() << " extents");
  Result<ExtentList> want = ReferenceSliceExtents(extents, offset, count);
  Result<ExtentList> one_shot = SliceExtents(extents, offset, count);
  Result<const ExtentList*> got = cursor.Slice(offset, count);
  ASSERT_EQ(got.ok(), want.ok());
  ASSERT_EQ(one_shot.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status(), want.status());
    EXPECT_EQ(one_shot.status(), want.status());
    EXPECT_EQ(want.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  EXPECT_EQ(**got, *want);
  EXPECT_EQ(*one_shot, *want);
}

TEST(ExtentCursorTest, MatchesPerCallSlicingOnRandomOffsetSequences) {
  Rng rng(20261020);
  for (int trial = 0; trial < 200; ++trial) {
    // Random list: 0..40 extents of 0..9 blocks (empty extents included).
    ExtentList extents;
    const std::uint64_t n = rng.NextBelow(41);
    for (std::uint64_t i = 0; i < n; ++i) {
      extents.push_back(Extent{static_cast<int>(rng.NextBelow(4)), rng.NextBelow(1000),
                               rng.NextBelow(10)});
    }
    const BlockCount total = TotalBlocks(extents);
    ExtentCursor cursor(&extents);
    BlockCount offset = 0;
    for (int step = 0; step < 60; ++step) {
      const std::uint64_t kind = rng.NextBelow(8);
      if (kind == 0) {
        offset = rng.NextBelow(total.value() + 1);  // backward or forward jump (resume)
      } else if (kind == 1) {
        offset = 0;  // rewind to the head
      } else if (kind == 2) {
        offset = total + rng.NextBelow(5);  // at or past the end
      }
      const BlockCount count = rng.NextBelow(12);
      ExpectSameSlice(cursor, extents, offset, count);
      if (rng.NextBelow(4) == 0) ExpectSameSlice(cursor, extents, offset, count);  // retry
      if (kind >= 3) offset += count;  // forward: the next chunk
    }
  }
}

TEST(ExtentCursorTest, OutOfRangeKeepsTheSliceExtentsErrorText) {
  ExtentList extents{{0, 10, 5}, {1, 0, 3}};
  ExtentCursor cursor(&extents);
  ASSERT_TRUE(cursor.Slice(2, 4).ok());
  auto past = cursor.Slice(6, 5);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(past.status().message(),
            "extent slice out of range: 3 blocks past the end of a 8-block sequence");
  // The cursor recovers for an in-range request after the error.
  auto back = cursor.Slice(0, 8);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(**back, extents);
}

TEST(ExtentCursorTest, AppendingToTheListKeepsTheCursorValid) {
  ExtentList extents{{0, 0, 4}};
  ExtentCursor cursor(&extents);
  ASSERT_TRUE(cursor.Slice(2, 2).ok());
  EXPECT_FALSE(cursor.Slice(4, 2).ok());
  extents.push_back(Extent{1, 100, 4});
  ExpectSameSlice(cursor, extents, 3, 3);
  ExpectSameSlice(cursor, extents, 6, 2);
}

}  // namespace
}  // namespace tertio::disk
