// Fault model & recovery tests (sim/fault.h and its wiring):
//  - FaultPlan::Parse round-trips a spec and rejects malformed input;
//  - injector streams are deterministic per (seed, device) and replay;
//  - retry cost accounting (reposition + re-read + exponential backoff,
//    skip-and-remap) is exact where the draw sequence is forced;
//  - devices surface kDeviceError after bounded retries, charging the wasted
//    time and delivering nothing;
//  - Pipeline::Transfer / StageWithRetry recover at chunk granularity and
//    checkpoints resume where a failed transfer stopped;
//  - a join under injected faults produces exactly the fault-free result
//    (verified against the in-memory reference join);
//  - regression: TapeLibrary::Mount swap bookkeeping, TapeScheduler
//    mid-batch error requeue.

#include "sim/fault.h"

#include <gtest/gtest.h>

#include <memory>

#include "disk/striped_group.h"
#include "exec/machine.h"
#include "join/join_method.h"
#include "join/reference_join.h"
#include "relation/generator.h"
#include "sim/pipeline.h"
#include "sim/simulation.h"
#include "tape/tape_library.h"
#include "tape/tape_scheduler.h"
#include "reference_extent_slice.h"

namespace tertio::sim {
namespace {

// ---- FaultPlan::Parse ------------------------------------------------------

TEST(FaultPlanParse, FullSpecRoundTrips) {
  auto plan = FaultPlan::Parse(
      "seed=7,tape-transient=1e-4,tape-bad=1e-6,disk-transient=1e-5,disk-bad=1e-7,"
      "exchange=0.01,retries=6,backoff=0.25,remap=3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->tape.transient_read_error_rate, 1e-4);
  EXPECT_DOUBLE_EQ(plan->tape.bad_block_rate, 1e-6);
  EXPECT_DOUBLE_EQ(plan->disk.transient_read_error_rate, 1e-5);
  EXPECT_DOUBLE_EQ(plan->disk.bad_block_rate, 1e-7);
  EXPECT_DOUBLE_EQ(plan->robot.exchange_failure_rate, 0.01);
  EXPECT_EQ(plan->tape.max_retries, 6);
  EXPECT_EQ(plan->disk.max_retries, 6);
  EXPECT_DOUBLE_EQ((plan->tape.retry_backoff_seconds).value(), 0.25);
  EXPECT_DOUBLE_EQ((plan->disk.remap_seconds).value(), 3.0);
  EXPECT_TRUE(plan->enabled());
}

TEST(FaultPlanParse, EmptySpecIsDisabled) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->enabled());
}

TEST(FaultPlanParse, RejectsMalformedInput) {
  EXPECT_EQ(FaultPlan::Parse("tape-transient").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("no-such-key=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("tape-transient=oops").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("tape-transient=1.5").status().code(),
            StatusCode::kInvalidArgument);  // probabilities live in [0, 1]
  EXPECT_EQ(FaultPlan::Parse("backoff=-1").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("seed=abc").status().code(), StatusCode::kInvalidArgument);
}

// ---- Injector determinism --------------------------------------------------

TEST(FaultInjector, ReplaysExactlyForSameSeedAndDevice) {
  FaultProfile profile;
  profile.transient_read_error_rate = 0.2;
  profile.bad_block_rate = 0.05;
  FaultInjector a(profile, /*plan_seed=*/42, "tapeR");
  FaultInjector b(profile, /*plan_seed=*/42, "tapeR");
  for (int i = 0; i < 32; ++i) {
    auto oa = a.SimulateRead(i * 10, 10, 0.01, 1.0);
    auto ob = b.SimulateRead(i * 10, 10, 0.01, 1.0);
    EXPECT_DOUBLE_EQ((oa.recovery_seconds).value(), ((ob.recovery_seconds)).value());
    EXPECT_EQ(oa.completed, ob.completed);
    EXPECT_EQ(oa.clean_blocks, ob.clean_blocks);
  }
  EXPECT_EQ(a.stats().transient_faults, b.stats().transient_faults);
  EXPECT_EQ(a.stats().bad_blocks_remapped, b.stats().bad_blocks_remapped);
  EXPECT_DOUBLE_EQ((a.stats().recovery_seconds).value(), ((b.stats().recovery_seconds)).value());
}

TEST(FaultInjector, DeviceNameSeparatesStreams) {
  FaultProfile profile;
  profile.transient_read_error_rate = 0.3;
  FaultInjector a(profile, 42, "tapeR");
  FaultInjector b(profile, 42, "tapeS");
  // Same plan seed, different devices: the fault sequences diverge.
  SimSeconds ra = 0, rb = 0;
  for (int i = 0; i < 64; ++i) {
    ra += a.SimulateRead(i * 10, 10, 0.01, 1.0).recovery_seconds;
    rb += b.SimulateRead(i * 10, 10, 0.01, 1.0).recovery_seconds;
  }
  EXPECT_NE(ra, rb);
}

TEST(FaultInjector, BadBlocksArePositionalAndStable) {
  FaultProfile profile;
  profile.bad_block_rate = 0.1;
  FaultInjector a(profile, 9, "disk0");
  FaultInjector b(profile, 9, "disk0");
  int bad = 0;
  for (BlockIndex p = 0; p < 1000; ++p) {
    EXPECT_EQ(a.IsLatentBadBlock(p), b.IsLatentBadBlock(p));
    // A pure function of position: repeated queries agree.
    EXPECT_EQ(a.IsLatentBadBlock(p), a.IsLatentBadBlock(p));
    if (a.IsLatentBadBlock(p)) ++bad;
  }
  EXPECT_GT(bad, 50);   // ~100 expected at rate 0.1
  EXPECT_LT(bad, 200);
}

// ---- Retry cost accounting -------------------------------------------------

TEST(FaultInjector, CleanProfileChargesNothing) {
  FaultInjector injector(FaultProfile{}, 1, "tapeR");
  auto outcome = injector.SimulateRead(0, 1000, 0.01, 1.0);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.clean_blocks, 1000u);
  EXPECT_DOUBLE_EQ((outcome.recovery_seconds).value(), 0.0);
  EXPECT_EQ(injector.stats().faults(), 0u);
}

TEST(FaultInjector, ExhaustedRetriesChargeExponentialBackoffThenFailHard) {
  // Rate 1.0 forces every attempt to fail: the block burns its full retry
  // budget and fails hard, with each retry charged one wasted re-read, one
  // reposition, and a doubling backoff.
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 2;
  profile.retry_backoff_seconds = 0.5;
  FaultInjector injector(profile, 1, "tapeR");
  constexpr SimSeconds kPerBlock = 0.25;
  constexpr SimSeconds kReposition = 1.5;
  auto outcome = injector.SimulateRead(40, 8, kPerBlock, kReposition);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.clean_blocks, 0u);
  EXPECT_EQ(outcome.failed_block, 40u);
  // Retry 1: backoff 0.5; retry 2: backoff 1.0. The third attempt exceeds
  // max_retries and fails hard without further charge.
  const SimSeconds expected =
      (kPerBlock + kReposition + 0.5) + (kPerBlock + kReposition + 1.0);
  EXPECT_DOUBLE_EQ((outcome.recovery_seconds).value(), ((expected)).value());
  EXPECT_EQ(injector.stats().transient_faults, 3u);
  EXPECT_EQ(injector.stats().retries, 2u);
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  EXPECT_DOUBLE_EQ((injector.stats().recovery_seconds).value(), ((expected)).value());
}

TEST(FaultInjector, BadBlockChargesOneRemapAndNeverFaultsAgain) {
  FaultProfile profile;
  profile.bad_block_rate = 0.05;
  profile.remap_seconds = 2.0;
  FaultInjector injector(profile, 3, "disk0");
  BlockIndex bad = 0;
  bool found = false;
  for (BlockIndex p = 0; p < 10000 && !found; ++p) {
    if (injector.IsLatentBadBlock(p)) {
      bad = p;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  constexpr SimSeconds kPerBlock = 0.5;
  constexpr SimSeconds kReposition = 1.0;
  auto first = injector.SimulateRead(bad, 1, kPerBlock, kReposition);
  EXPECT_TRUE(first.completed);
  EXPECT_DOUBLE_EQ((first.recovery_seconds).value(), ((kPerBlock + kReposition + 2.0)).value());
  EXPECT_EQ(injector.stats().bad_blocks_remapped, 1u);
  // The defect was remapped: re-reading the same position is now clean.
  EXPECT_FALSE(injector.IsLatentBadBlock(bad));
  auto second = injector.SimulateRead(bad, 1, kPerBlock, kReposition);
  EXPECT_DOUBLE_EQ((second.recovery_seconds).value(), 0.0);
  EXPECT_EQ(injector.stats().bad_blocks_remapped, 1u);
}

TEST(FaultInjector, ExchangeFailuresRetryThenFailHard) {
  FaultProfile profile;
  profile.exchange_failure_rate = 1.0;
  profile.max_retries = 1;
  FaultInjector injector(profile, 1, "robot");
  auto outcome = injector.SimulateExchange(30.0);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.failed_attempts, 2);
  EXPECT_EQ(injector.stats().exchange_faults, 2u);
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  EXPECT_DOUBLE_EQ((injector.stats().recovery_seconds).value(), 60.0);

  FaultInjector clean(FaultProfile{}, 1, "robot");
  auto ok = clean.SimulateExchange(30.0);
  EXPECT_TRUE(ok.completed);
  EXPECT_EQ(ok.failed_attempts, 0);
}

// ---- Device fault surfaces -------------------------------------------------

TEST(DeviceFaults, TapeReadFailsHardChargesTimeDeliversNothing) {
  Simulation sim;
  tape::TapeVolume volume("t", 1024);
  ASSERT_TRUE(volume.AppendPhantom(100, 0.25).ok());
  tape::TapeDrive drive("tapeR", tape::TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 0;
  FaultInjector injector(profile, 1, "tapeR");
  drive.set_fault_injector(&injector);

  std::vector<BlockPayload> out;
  auto read = drive.Read(0, 50, 0.0, &out);
  EXPECT_EQ(read.status().code(), StatusCode::kDeviceError);
  EXPECT_TRUE(out.empty());
  // The wasted attempt occupies the drive's timeline.
  EXPECT_EQ(drive.resource()->stats().op_count, 2u);  // load + failed read
  EXPECT_EQ(injector.stats().hard_failures, 1u);
}

TEST(DeviceFaults, TapeRecoverySlowsTheReadButDeliversEverything) {
  auto run = [](double rate) {
    Simulation sim;
    tape::TapeVolume volume("t", 1024);
    TERTIO_CHECK(volume.AppendPhantom(2000, 0.25).ok(), "");
    tape::TapeDrive drive("tapeR", tape::TapeDriveModel::DLT4000(),
                          sim.CreateResource("tape"));
    TERTIO_CHECK(drive.Load(&volume, 0.0).ok(), "");
    FaultProfile profile;
    profile.transient_read_error_rate = rate;
    FaultInjector injector(profile, 11, "tapeR");
    if (rate > 0) drive.set_fault_injector(&injector);
    auto read = drive.Read(0, 2000, 0.0, nullptr);
    TERTIO_CHECK(read.ok(), read.status().ToString());
    return read->duration();
  };
  const SimSeconds clean = run(0.0);
  const SimSeconds faulty = run(0.05);
  EXPECT_GT(faulty, clean);
}

TEST(DeviceFaults, DiskReadFailsHardAfterBoundedRetries) {
  Simulation sim;
  disk::DiskVolume disk("disk0", disk::DiskModel::QuantumFireball1080(),
                        sim.CreateResource("disk0"), 1000, 1024);
  FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 1;
  FaultInjector injector(profile, 5, "disk0");
  disk.set_fault_injector(&injector);
  std::vector<BlockPayload> out;
  auto read = disk.Read(0, 10, 0.0, &out);
  EXPECT_EQ(read.status().code(), StatusCode::kDeviceError);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(injector.stats().hard_failures, 1u);
  EXPECT_EQ(injector.stats().retries, 1u);
  // Writes never consult the injector.
  EXPECT_TRUE(disk.Write(0, 10, 0.0).ok());
}

// ---- Chunk retry and checkpoint resume -------------------------------------

/// A source that fails with kDeviceError on its first `fail_count` reads of
/// `fail_offset`, then succeeds; every read costs one second.
class FlakySource final : public BlockSource {
 public:
  FlakySource(BlockCount fail_offset, int fail_count)
      : fail_offset_(fail_offset), fail_count_(fail_count) {}

  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    reads_.push_back(offset);
    if (offset == fail_offset_ && failures_ < fail_count_) {
      ++failures_;
      return Status::DeviceError("flaky source");
    }
    if (out != nullptr) out->insert(out->end(), count.value(), nullptr);
    return Interval{ready, ready + 1.0};
  }
  std::string_view device() const override { return "flaky"; }

  const std::vector<BlockCount>& reads() const { return reads_; }

 private:
  BlockCount fail_offset_;
  int fail_count_;
  int failures_ = 0;
  std::vector<BlockCount> reads_;
};

class NullSink final : public BlockSink {
 public:
  Result<Interval> Write(BlockCount, BlockCount, SimSeconds ready,
                         std::vector<BlockPayload>*) override {
    return Interval::At(ready);
  }
  std::string_view device() const override { return "null"; }
};

TEST(ChunkRetry, TransferRetriesFailedChunkInPlace) {
  Pipeline pipe(0.0);
  FlakySource source(/*fail_offset=*/4, /*fail_count=*/2);
  NullSink sink;
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 8;
  plan.chunk = 2;
  plan.chunk_retry_limit = 3;
  auto result = pipe.Transfer(plan, source, sink);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(pipe.chunk_retries(), 2u);
  // Chunk at offset 4 was attempted three times; the rest once.
  EXPECT_EQ(source.reads(), (std::vector<BlockCount>{0, 2, 4, 4, 4, 6}));
}

TEST(ChunkRetry, ExhaustedChunkRetriesPropagateTheError) {
  Pipeline pipe(0.0);
  FlakySource source(4, /*fail_count=*/5);
  NullSink sink;
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 8;
  plan.chunk = 2;
  plan.chunk_retry_limit = 1;
  auto result = pipe.Transfer(plan, source, sink);
  EXPECT_EQ(result.status().code(), StatusCode::kDeviceError);
  EXPECT_EQ(pipe.chunk_retries(), 1u);
}

TEST(ChunkRetry, NonDeviceErrorsAreNeverRetried) {
  Pipeline pipe(0.0);
  class BadSource final : public BlockSource {
   public:
    Result<Interval> Read(BlockCount, BlockCount, SimSeconds,
                          std::vector<BlockPayload>*) override {
      ++calls_;
      return Status::InvalidArgument("not retryable");
    }
    std::string_view device() const override { return "bad"; }
    int calls() const { return calls_; }

   private:
    int calls_ = 0;
  } source;
  NullSink sink;
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.chunk_retry_limit = 5;
  auto result = pipe.Transfer(plan, source, sink);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(source.calls(), 1);
  EXPECT_EQ(pipe.chunk_retries(), 0u);
}

TEST(ChunkRetry, CheckpointResumesWhereTheTransferStopped) {
  Pipeline pipe(0.0);
  FlakySource source(4, /*fail_count=*/2);
  NullSink sink;
  Pipeline::TransferCheckpoint checkpoint;
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 8;
  plan.chunk = 2;
  plan.chunk_retry_limit = 0;  // no in-place retries: fail to the caller
  plan.checkpoint = &checkpoint;
  auto first = pipe.Transfer(plan, source, sink);
  EXPECT_EQ(first.status().code(), StatusCode::kDeviceError);
  EXPECT_EQ(checkpoint.completed_blocks, 4u);  // chunks 0 and 2 completed

  // Re-issue with the same checkpoint: the transfer resumes at block 4
  // (failing once more), then completes — chunks 0 and 2 never re-run.
  plan.chunk_retry_limit = 3;
  auto second = pipe.Transfer(plan, source, sink);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(checkpoint.completed_blocks, 8u);
  EXPECT_EQ(checkpoint.chunk_retries, 1u);
  EXPECT_EQ(source.reads(), (std::vector<BlockCount>{0, 2, 4, 4, 4, 6}));
}

/// Disk source/sink slicing every chunk with the per-call oracle
/// (tests/reference_extent_slice.h) — the slicing the cursor replaced.
class ReferenceExtentSource final : public BlockSource {
 public:
  ReferenceExtentSource(disk::StripedDiskGroup* group, const disk::ExtentList* extents)
      : group_(group), extents_(extents) {}
  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    TERTIO_ASSIGN_OR_RETURN(disk::ExtentList slice,
                            disk::ReferenceSliceExtents(*extents_, offset, count));
    return group_->ReadExtents(slice, ready, out);
  }
  std::string_view device() const override { return "disks"; }

 private:
  disk::StripedDiskGroup* group_;
  const disk::ExtentList* extents_;
};

class ReferenceExtentSink final : public BlockSink {
 public:
  ReferenceExtentSink(disk::StripedDiskGroup* group, const disk::ExtentList* extents)
      : group_(group), extents_(extents) {}
  Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                         std::vector<BlockPayload>* payloads) override {
    TERTIO_ASSIGN_OR_RETURN(disk::ExtentList slice,
                            disk::ReferenceSliceExtents(*extents_, offset, count));
    return group_->WriteExtents(slice, ready, payloads);
  }
  std::string_view device() const override { return "disks"; }

 private:
  disk::StripedDiskGroup* group_;
  const disk::ExtentList* extents_;
};

/// Everything observable about one faulty disk-to-disk transfer.
struct ExtentTransferRun {
  std::size_t source_extents = 0;
  std::vector<Span> spans;
  std::vector<StatusCode> attempts;
  std::uint64_t chunk_retries = 0;
  Pipeline::TransferCheckpoint checkpoint;
  disk::DiskStats stats;
  FaultStats faults;
  std::vector<std::uint8_t> delivered;  // first byte of each destination block
};

/// Copies 1,600 real blocks between two single-block-striped allocations
/// (over a thousand extents each) on disks with transient read faults. The
/// first issue runs without in-place retries and stops at a failed chunk;
/// re-issues resume from its checkpoint with chunk retries enabled.
template <typename Source, typename Sink>
ExtentTransferRun RunFaultyExtentTransfer() {
  constexpr BlockCount kBlocks = 1600;
  constexpr ByteCount kDiskBlock = 64;
  Simulation sim;
  disk::StripedDiskGroup group(
      disk::DiskGroupConfig::Uniform(4, disk::DiskModel::QuantumFireball1080(), 2 * kBlocks,
                                     kDiskBlock, /*stripe_unit=*/1),
      &sim);
  FaultProfile profile;
  profile.transient_read_error_rate = 0.05;  // ~1 in 400 block reads fails hard
  profile.max_retries = 1;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  for (int d = 0; d < group.disk_count(); ++d) {
    injectors.push_back(std::make_unique<FaultInjector>(profile, 17, group.disk(d)->name()));
    group.disk(d)->set_fault_injector(injectors.back().get());
  }
  ExtentTransferRun run;
  disk::ExtentList from = group.allocator().Allocate(kBlocks, 0.0, "from").value();
  disk::ExtentList to = group.allocator().Allocate(kBlocks, 0.0, "to").value();
  run.source_extents = from.size();
  std::vector<BlockPayload> payloads;
  for (std::uint64_t i = 0; i < kBlocks.value(); ++i) {
    payloads.push_back(MakePayload(
        std::vector<std::uint8_t>(kDiskBlock.value(), static_cast<std::uint8_t>(i * 7))));
  }
  TERTIO_CHECK(group.WriteExtents(from, 0.0, &payloads).ok(), "seed write failed");

  SpanTrace trace;
  trace.set_retain(true);
  Pipeline pipe(1.0, &trace);
  Source source(&group, &from);
  Sink sink(&group, &to);
  Pipeline::TransferPlan plan;
  plan.read_phase = "copy-read";
  plan.write_phase = "copy-write";
  plan.total = kBlocks;
  plan.chunk = 3;  // chunks straddle extent boundaries
  plan.move_payloads = true;
  plan.checkpoint = &run.checkpoint;
  for (int issue = 0; issue < 20; ++issue) {
    plan.chunk_retry_limit = issue == 0 ? 0 : 2;
    auto result = pipe.Transfer(plan, source, sink);
    run.attempts.push_back(result.status().code());
    if (result.ok()) break;
  }
  run.spans = trace.spans();
  run.chunk_retries = pipe.chunk_retries();
  run.stats = group.TotalStats();
  run.faults = group.TotalFaultStats();
  std::vector<BlockPayload> out;
  for (auto& injector : injectors) injector.reset();
  for (int d = 0; d < group.disk_count(); ++d) group.disk(d)->set_fault_injector(nullptr);
  TERTIO_CHECK(group.ReadExtents(to, pipe.Horizon(), &out).ok(), "read-back failed");
  for (const BlockPayload& block : out) {
    run.delivered.push_back(block != nullptr ? (*block)[0] : 0);
  }
  return run;
}

TEST(ChunkRetry, CursorSlicedTransferOverThousandsOfExtentsMatchesPerCallSlicing) {
  const ExtentTransferRun want =
      RunFaultyExtentTransfer<ReferenceExtentSource, ReferenceExtentSink>();
  const ExtentTransferRun got =
      RunFaultyExtentTransfer<disk::ExtentReadSource, disk::ExtentWriteSink>();
  // The scenario exercises what it claims to.
  EXPECT_GT(want.source_extents, 1000u);
  ASSERT_GE(want.attempts.size(), 2u);
  EXPECT_EQ(want.attempts.front(), StatusCode::kDeviceError);  // checkpoint resume
  EXPECT_EQ(want.attempts.back(), StatusCode::kOk);
  EXPECT_GT(want.checkpoint.chunk_retries, 0u);  // in-place chunk retries
  EXPECT_EQ(want.checkpoint.completed_blocks, 1600u);
  ASSERT_EQ(want.delivered.size(), 1600u);
  for (std::size_t i = 0; i < want.delivered.size(); ++i) {
    ASSERT_EQ(want.delivered[i], static_cast<std::uint8_t>(i * 7)) << "block " << i;
  }

  // Cursor slicing reproduces every stage interval and every sunk block.
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.chunk_retries, want.chunk_retries);
  EXPECT_EQ(got.checkpoint.completed_blocks, want.checkpoint.completed_blocks);
  EXPECT_EQ(got.checkpoint.chunk_retries, want.checkpoint.chunk_retries);
  EXPECT_EQ(got.stats.blocks_read, want.stats.blocks_read);
  EXPECT_EQ(got.stats.blocks_written, want.stats.blocks_written);
  EXPECT_EQ(got.stats.requests, want.stats.requests);
  EXPECT_EQ(got.faults.transient_faults, want.faults.transient_faults);
  EXPECT_EQ(got.faults.retries, want.faults.retries);
  EXPECT_EQ(got.faults.hard_failures, want.faults.hard_failures);
  EXPECT_EQ(got.faults.recovery_seconds, want.faults.recovery_seconds);
  EXPECT_EQ(got.delivered, want.delivered);
  ASSERT_EQ(got.spans.size(), want.spans.size());
  for (std::size_t i = 0; i < want.spans.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.spans[i].phase, want.spans[i].phase);
    EXPECT_EQ(got.spans[i].blocks, want.spans[i].blocks);
    EXPECT_EQ(got.spans[i].interval.start, want.spans[i].interval.start);
    EXPECT_EQ(got.spans[i].interval.end, want.spans[i].interval.end);
  }
}

TEST(ChunkRetry, StageWithRetryRecoversBareStages) {
  Pipeline pipe(0.0);
  int failures = 2;
  auto op = [&](SimSeconds ready) -> Result<Interval> {
    if (failures > 0) {
      --failures;
      return Status::DeviceError("flaky stage");
    }
    return Interval{ready, ready + 1.0};
  };
  auto stage = pipe.StageWithRetry("scan", "dev", std::initializer_list<StageId>{}, 4, 0, op,
                                   /*retry_limit=*/3);
  ASSERT_TRUE(stage.ok()) << stage.status();
  EXPECT_EQ(pipe.chunk_retries(), 2u);

  failures = 5;
  auto exhausted = pipe.StageWithRetry("scan", "dev", std::initializer_list<StageId>{}, 4, 0,
                                       op, /*retry_limit=*/1);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kDeviceError);
}

}  // namespace
}  // namespace tertio::sim

// ---- Joins under faults ----------------------------------------------------

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 1024;

exec::MachineConfig FaultyMachine(const sim::FaultPlan& faults) {
  exec::MachineConfig config;
  config.block_bytes = kBlock;
  config.disk_space_bytes = 64 * kBlock;
  config.memory_bytes = 16 * kBlock;
  config.stripe_unit = 4;
  config.faults = faults;
  return config;
}

struct FaultyRun {
  JoinStats stats;
  JoinOutput reference;
  sim::FaultStats machine_faults;
};

Result<FaultyRun> RunUnderFaults(const sim::FaultPlan& faults, JoinMethodId method) {
  exec::Machine machine(FaultyMachine(faults));
  FaultyRun run;
  rel::GeneratorConfig rc, sc;
  rc.name = "R";
  rc.tuple_count = 400;
  rc.keys = rel::KeySequence::kSequentialUnique;
  rc.compressibility = 0.25;
  rc.seed = 11;
  sc.name = "S";
  sc.tuple_count = 2000;
  sc.keys = rel::KeySequence::kForeignKeyUniform;
  sc.key_domain = 400;
  sc.compressibility = 0.25;
  sc.seed = 12;
  rel::Relation r, s;
  TERTIO_ASSIGN_OR_RETURN(r, rel::GenerateOnTape(rc, &machine.tape_r()));
  TERTIO_ASSIGN_OR_RETURN(s, rel::GenerateOnTape(sc, &machine.tape_s()));
  machine.MountTapes();
  TERTIO_ASSIGN_OR_RETURN(run.reference, ReferenceJoin(r, s, 0, 0));
  JoinSpec spec;
  spec.r = &r;
  spec.s = &s;
  auto executor = CreateJoinMethod(method);
  TERTIO_ASSIGN_OR_RETURN(run.stats, executor->Execute(spec, machine.context()));
  run.machine_faults = machine.TotalFaultStats();
  return run;
}

sim::FaultPlan ModeratePlan() {
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.tape.transient_read_error_rate = 0.01;
  plan.tape.bad_block_rate = 0.002;
  plan.disk.transient_read_error_rate = 0.005;
  plan.disk.bad_block_rate = 0.001;
  return plan;
}

class FaultyJoinTest : public ::testing::TestWithParam<JoinMethodId> {};

TEST_P(FaultyJoinTest, RecoveredJoinMatchesReferenceExactly) {
  auto run = RunUnderFaults(ModeratePlan(), GetParam());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->stats.output_valid);
  EXPECT_EQ(run->stats.output_tuples, run->reference.tuples());
  EXPECT_EQ(run->stats.output_checksum, run->reference.checksum());
  // Faults were actually injected, recovered, and surfaced in the stats.
  EXPECT_GT(run->stats.faults_injected, 0u);
  EXPECT_GT(run->stats.fault_retries, 0u);
  EXPECT_GT(run->stats.recovery_seconds, 0.0);
  EXPECT_EQ(run->stats.faults_injected, run->machine_faults.faults());
}

TEST_P(FaultyJoinTest, FaultsOnlySlowTheJoinDown) {
  auto clean = RunUnderFaults(sim::FaultPlan{}, GetParam());
  auto faulty = RunUnderFaults(ModeratePlan(), GetParam());
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(faulty.ok()) << faulty.status();
  EXPECT_EQ(clean->stats.faults_injected, 0u);
  EXPECT_DOUBLE_EQ((clean->stats.recovery_seconds).value(), 0.0);
  EXPECT_GT(faulty->stats.response_seconds, clean->stats.response_seconds);
  EXPECT_EQ(faulty->stats.output_checksum, clean->stats.output_checksum);
}

TEST_P(FaultyJoinTest, FaultyRunsReplayExactly) {
  auto a = RunUnderFaults(ModeratePlan(), GetParam());
  auto b = RunUnderFaults(ModeratePlan(), GetParam());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_DOUBLE_EQ((a->stats.response_seconds).value(), ((b->stats.response_seconds)).value());
  EXPECT_EQ(a->stats.faults_injected, b->stats.faults_injected);
  EXPECT_EQ(a->stats.fault_retries, b->stats.fault_retries);
  EXPECT_EQ(a->stats.blocks_remapped, b->stats.blocks_remapped);
  EXPECT_DOUBLE_EQ((a->stats.recovery_seconds).value(), ((b->stats.recovery_seconds)).value());
}

TEST_P(FaultyJoinTest, ChunkRetriesRecoverHardDeviceFailures) {
  // No device-level retries at all: every transient fault is a hard failure
  // and only the pipeline's chunk-granular recovery saves the join.
  sim::FaultPlan plan;
  plan.seed = 13;
  plan.tape.transient_read_error_rate = 0.01;
  plan.tape.max_retries = 0;
  plan.disk.transient_read_error_rate = 0.005;
  plan.disk.max_retries = 0;
  auto run = RunUnderFaults(plan, GetParam());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->stats.chunk_retries, 0u);
  EXPECT_EQ(run->stats.output_tuples, run->reference.tuples());
  EXPECT_EQ(run->stats.output_checksum, run->reference.checksum());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, FaultyJoinTest,
                         ::testing::Values(JoinMethodId::kDtNb, JoinMethodId::kCdtNbMb,
                                           JoinMethodId::kCdtNbDb, JoinMethodId::kDtGh,
                                           JoinMethodId::kCdtGh, JoinMethodId::kCttGh,
                                           JoinMethodId::kTtGh),
                         [](const auto& info) {
                           std::string name(JoinMethodName(info.param));
                           for (char& c : name) {
                             if (c == '-' || c == '/') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace tertio::join

// ---- Regressions: library mount swap, scheduler requeue --------------------

namespace tertio::tape {
namespace {

constexpr ByteCount kBlock = 1024;

std::unique_ptr<TapeVolume> MakeCartridge(BlockCount blocks) {
  auto volume = std::make_unique<TapeVolume>("cart", kBlock);
  TERTIO_CHECK(volume->AppendPhantom(blocks, 0.25).ok(), "");
  return volume;
}

TEST(TapeLibraryMount, SwapChargesRewindUnloadAndBothRobotTrips) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  const TapeDriveModel model = TapeDriveModel::DLT4000();
  TapeDrive drive("drv", model, sim.CreateResource("tape"));
  ASSERT_TRUE(library.AddCartridge(MakeCartridge(50)).ok());
  ASSERT_TRUE(library.AddCartridge(MakeCartridge(50)).ok());

  auto first = library.Mount(0, &drive, 0.0);
  ASSERT_TRUE(first.ok());
  // Empty drive: one robot trip plus the drive load.
  EXPECT_DOUBLE_EQ((first->duration()).value(),
                   (library.model().exchange_seconds + model.load_seconds).value());

  auto swap = library.Mount(1, &drive, first->end);
  ASSERT_TRUE(swap.ok());
  // Swap: rewind + unload on the drive, eject + inject robot trips, load.
  EXPECT_DOUBLE_EQ((swap->duration()).value(),
                   (model.rewind_seconds + model.load_seconds +
                    2 * library.model().exchange_seconds + model.load_seconds)
                       .value());
  EXPECT_EQ(drive.stats().rewind_count, 1u);
  EXPECT_EQ(drive.stats().load_count, 2u);
  // Bookkeeping: cartridge 0 is home again — another mount of it succeeds.
  sim::Simulation sim2;
  TapeDrive other("other", model, sim2.CreateResource("tape2"));
  EXPECT_TRUE(library.Mount(0, &other, 0.0).ok());
}

TEST(TapeLibraryMount, FailedExchangeLeavesSlotBookkeepingConsistent) {
  sim::Simulation sim;
  TapeLibrary library(TapeLibraryModel::SmallAutoloader(), sim.CreateResource("robot"));
  TapeDrive drive("drv", TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(library.AddCartridge(MakeCartridge(50)).ok());

  sim::FaultProfile profile;
  profile.exchange_failure_rate = 1.0;
  profile.max_retries = 0;
  sim::FaultInjector injector(profile, 1, "robot");
  library.set_fault_injector(&injector);
  auto failed = library.Mount(0, &drive, 0.0);
  EXPECT_EQ(failed.status().code(), StatusCode::kDeviceError);

  // The failed mount must NOT have marked the cartridge as mounted (the old
  // bug set mounted_in before the physical steps succeeded): with the robot
  // healthy again, the same mount goes through.
  library.set_fault_injector(nullptr);
  EXPECT_TRUE(library.Mount(0, &drive, 0.0).ok());
}

TEST(TapeSchedulerBatch, MidBatchErrorKeepsCompletionsAndRequeuesTheRest) {
  sim::Simulation sim;
  TapeVolume volume("t", kBlock);
  ASSERT_TRUE(volume.AppendPhantom(100, 0.25).ok());
  TapeDrive drive("drv", TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  TapeScheduler scheduler(&drive, SchedulePolicy::kFifo);
  scheduler.Submit({1, 0, 10});
  scheduler.Submit({2, 90, 50});  // reads past end-of-data: fails
  scheduler.Submit({3, 20, 10});

  auto batch = scheduler.ExecuteBatch(0.0);
  EXPECT_FALSE(batch.ok());
  ASSERT_EQ(batch.completions.size(), 1u);
  EXPECT_EQ(batch.completions.front().id, 1u);
  EXPECT_EQ(batch.requeued, 2u);
  EXPECT_EQ(scheduler.pending(), 2u);

  // The requeued requests stay ahead of later submissions and drain once the
  // offender is fixed (here: dropped and replaced by a valid range).
  scheduler.Submit({4, 40, 10});
  auto retry = scheduler.ExecuteBatch(0.0);
  EXPECT_FALSE(retry.ok());  // the bad request is retried first and fails again
  EXPECT_EQ(retry.completions.size(), 0u);
  EXPECT_EQ(scheduler.pending(), 3u);
}

TEST(TapeSchedulerBatch, DeviceErrorRequeuesEverythingForRetry) {
  sim::Simulation sim;
  TapeVolume volume("t", kBlock);
  ASSERT_TRUE(volume.AppendPhantom(100, 0.25).ok());
  TapeDrive drive("drv", TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  sim::FaultProfile profile;
  profile.transient_read_error_rate = 1.0;
  profile.max_retries = 0;
  sim::FaultInjector injector(profile, 1, "drv");
  drive.set_fault_injector(&injector);

  TapeScheduler scheduler(&drive, SchedulePolicy::kFifo);
  scheduler.Submit({1, 0, 10});
  scheduler.Submit({2, 20, 10});
  auto batch = scheduler.ExecuteBatch(0.0);
  EXPECT_EQ(batch.status.code(), StatusCode::kDeviceError);
  EXPECT_TRUE(batch.completions.empty());
  EXPECT_EQ(batch.requeued, 2u);

  // Device healthy again: the queue drains with nothing lost.
  drive.set_fault_injector(nullptr);
  auto retry = scheduler.ExecuteBatch(0.0);
  EXPECT_TRUE(retry.ok());
  EXPECT_EQ(retry.completions.size(), 2u);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(TapeSchedulerBatch, RequeueUnderActiveFaultPlanWithMultipleSubmitters) {
  // Two logical submitters keep feeding the scheduler between batches while
  // an active fault plan makes a fraction of reads hard-fail. No request may
  // be lost or duplicated, and completions gathered before each mid-batch
  // failure must be preserved.
  sim::Simulation sim;
  TapeVolume volume("t", kBlock);
  ASSERT_TRUE(volume.AppendPhantom(200, 0.25).ok());
  TapeDrive drive("drv", TapeDriveModel::DLT4000(), sim.CreateResource("tape"));
  ASSERT_TRUE(drive.Load(&volume, 0.0).ok());
  sim::FaultProfile profile;
  profile.transient_read_error_rate = 0.35;
  profile.max_retries = 0;  // every injected fault is a hard kDeviceError
  sim::FaultInjector injector(profile, 7, "drv");
  drive.set_fault_injector(&injector);

  TapeScheduler scheduler(&drive, SchedulePolicy::kSortedAscending);
  std::uint64_t next_a = 1, next_b = 1000;
  auto submit_round = [&](int count) {
    for (int i = 0; i < count; ++i) {
      // Submitter A reads low addresses, submitter B high ones.
      scheduler.Submit({next_a, (next_a % 10) * 10, 5});
      scheduler.Submit({next_b, 100 + (next_b % 10) * 10, 5});
      ++next_a;
      ++next_b;
    }
  };
  submit_round(3);
  std::uint64_t expected = 6;

  std::map<std::uint64_t, int> completed;
  SimSeconds cursor = 0.0;
  for (int attempt = 0; attempt < 100 && (scheduler.pending() > 0 || expected < 10); ++attempt) {
    if (attempt == 1 || attempt == 2) {
      submit_round(1);  // both submitters add work while earlier requests retry
      expected += 2;
    }
    auto batch = scheduler.ExecuteBatch(cursor);
    for (const auto& completion : batch.completions) {
      completed[completion.id]++;
      cursor = std::max(cursor, completion.interval.end);
    }
    if (!batch.ok()) {
      // Failed + unexecuted requests are back in the queue, nothing dropped.
      EXPECT_EQ(completed.size() + scheduler.pending(), expected);
      EXPECT_GT(batch.requeued, 0u);
    }
  }
  drive.set_fault_injector(nullptr);
  auto drain = scheduler.ExecuteBatch(cursor);
  EXPECT_TRUE(drain.ok());
  for (const auto& completion : drain.completions) completed[completion.id]++;

  EXPECT_EQ(scheduler.pending(), 0u);
  ASSERT_EQ(completed.size(), expected);
  for (const auto& [id, count] : completed) {
    EXPECT_EQ(count, 1) << "request " << id << " completed more than once";
  }
  EXPECT_GT(injector.stats().hard_failures, 0u);
}

}  // namespace
}  // namespace tertio::tape
