// Unit tests for the pipeline engine (sim/pipeline.h) and the extent
// slicing under it: stage dependencies, Transfer dependency structure
// (lock-step vs streaming), span aggregation, SliceExtents edge cases.

#include <gtest/gtest.h>

#include <vector>

#include "disk/extent.h"
#include "sim/pipeline.h"
#include "sim/resource.h"
#include "sim/trace_report.h"

namespace tertio::sim {
namespace {

// A block device with a fixed per-block cost, for exercising Transfer's
// dependency structure without the real device models.
class FakeDevice final : public BlockSource, public BlockSink {
 public:
  FakeDevice(std::string name, SimSeconds seconds_per_block)
      : resource_(std::move(name)), cost_(seconds_per_block) {}

  Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                        std::vector<BlockPayload>* out) override {
    (void)offset;
    if (out != nullptr) out->resize(((out->size() + count)).value());  // phantom payloads
    return resource_.Schedule(ready, cost_ * static_cast<double>(count.value()));
  }

  Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                         std::vector<BlockPayload>* payloads) override {
    (void)offset;
    (void)payloads;
    return resource_.Schedule(ready, cost_ * static_cast<double>(count.value()));
  }

  std::string_view device() const override { return resource_.name(); }

 private:
  Resource resource_;
  SimSeconds cost_;
};

TEST(PipelineTest, EventIsFlooredAtStart) {
  Pipeline pipe(100.0);
  StageId early = pipe.Event("early", 50.0);
  StageId late = pipe.Event("late", 150.0);
  EXPECT_DOUBLE_EQ((pipe.end(early)).value(), 100.0);
  EXPECT_DOUBLE_EQ((pipe.end(late)).value(), 150.0);
}

TEST(PipelineTest, NoStageSentinelIsIgnoredInDeps) {
  Pipeline pipe(10.0);
  std::vector<StageId> none{kNoStage};
  EXPECT_DOUBLE_EQ((pipe.ReadyAfter(none)).value(), 10.0);
  StageId e = pipe.Event("e", 25.0);
  StageId barrier = pipe.Barrier("sync", {kNoStage, e, kNoStage});
  EXPECT_DOUBLE_EQ((pipe.end(barrier)).value(), 25.0);
}

TEST(PipelineTest, BarrierJoinsChains) {
  Pipeline pipe(0.0);
  StageId a = pipe.Event("a", 7.0);
  StageId b = pipe.Event("b", 12.0);
  StageId barrier = pipe.Barrier("sync", {a, b});
  EXPECT_DOUBLE_EQ((pipe.end(barrier)).value(), 12.0);
  EXPECT_DOUBLE_EQ((pipe.Horizon()).value(), 12.0);
}

// Lock-step: chunk i+1's read waits for write i — the single process of the
// sequential (DT) methods. With a 1 s/block source and 2 s/block sink moving
// 4 blocks in 2-block chunks: read [0,2], write [2,6], read [6,8],
// write [8,12].
TEST(PipelineTest, LockStepTransferAlternatesDevices) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 2.0);
  Pipeline pipe(0.0);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.streaming = false;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((pipe.end(result->last_read)).value(), 8.0);
  EXPECT_DOUBLE_EQ(result->source_done.value(), 8.0);
  EXPECT_DOUBLE_EQ((pipe.end(result->last_write)).value(), 12.0);
  EXPECT_DOUBLE_EQ(result->done.value(), 12.0);
}

// Streaming: the producer runs ahead (read i+1 follows read i); the sink
// trails. Same devices and volume as above: reads [0,2] [2,4], writes
// [2,6] [6,10] — two seconds faster than lock-step.
TEST(PipelineTest, StreamingTransferOverlapsProducerAndConsumer) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 2.0);
  Pipeline pipe(0.0);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.streaming = true;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->source_done.value(), 4.0);
  EXPECT_DOUBLE_EQ((pipe.end(result->last_write)).value(), 10.0);
  EXPECT_DOUBLE_EQ(result->done.value(), 10.0);
}

TEST(PipelineTest, TransferTailChunkCoversRemainder) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 1.0);
  SpanTrace trace;
  Pipeline pipe(0.0, &trace);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 5;
  plan.chunk = 2;
  plan.streaming = true;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(trace.phases().size(), 2u);
  EXPECT_EQ(trace.phases()[0].phase, "read");
  EXPECT_EQ(trace.phases()[0].stage_count, 3u);  // chunks of 2, 2, 1
  EXPECT_EQ(trace.phases()[0].blocks, 5u);
  EXPECT_EQ(trace.phases()[1].blocks, 5u);
}

TEST(PipelineTest, SpanWindowMatchesHorizon) {
  FakeDevice src("src", 1.0);
  FakeDevice dst("dst", 2.0);
  SpanTrace trace;
  trace.set_retain(true);
  Pipeline pipe(5.0, &trace);
  Pipeline::TransferPlan plan;
  plan.read_phase = "read";
  plan.write_phase = "write";
  plan.total = 4;
  plan.chunk = 2;
  plan.streaming = false;
  auto result = pipe.Transfer(plan, src, dst);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(trace.window().start.value(), 5.0);
  EXPECT_DOUBLE_EQ(trace.window().end.value(), (pipe.Horizon()).value());
  EXPECT_EQ(trace.spans().size(), pipe.size());
  EXPECT_EQ(trace.phases()[0].device, "src");
  EXPECT_EQ(trace.phases()[1].device, "dst");
  std::string gantt = RenderSpanGantt(trace);
  EXPECT_NE(gantt.find("read"), std::string::npos);
  EXPECT_NE(gantt.find("write"), std::string::npos);
}

class SliceExtentsTest : public ::testing::Test {
 protected:
  // 8 logical blocks: 5 on disk 0 at 10, then 3 on disk 1 at 0.
  disk::ExtentList extents_{{0, 10, 5}, {1, 0, 3}};
};

TEST_F(SliceExtentsTest, ZeroCountSliceIsEmpty) {
  EXPECT_TRUE(disk::SliceExtents(extents_, 0, 0)->empty());
  EXPECT_TRUE(disk::SliceExtents(extents_, 4, 0)->empty());
  EXPECT_TRUE(disk::SliceExtents(extents_, 8, 0)->empty());
}

TEST_F(SliceExtentsTest, SliceWithinOneExtent) {
  auto slice = disk::SliceExtents(extents_, 1, 3);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), 1u);
  EXPECT_EQ((*slice)[0], (disk::Extent{0, 11, 3}));
}

TEST_F(SliceExtentsTest, SliceSpansExtentBoundary) {
  auto slice = disk::SliceExtents(extents_, 3, 4);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), 2u);
  EXPECT_EQ((*slice)[0], (disk::Extent{0, 13, 2}));
  EXPECT_EQ((*slice)[1], (disk::Extent{1, 0, 2}));
}

TEST_F(SliceExtentsTest, FullSliceReturnsWholeList) {
  EXPECT_EQ(*disk::SliceExtents(extents_, 0, 8), extents_);
}

TEST_F(SliceExtentsTest, OffsetPastEndReturnsInvalidArgument) {
  auto past_end = disk::SliceExtents(extents_, 6, 5);
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past_end.status().message().find("extent slice out of range"), std::string::npos);
  EXPECT_EQ(disk::SliceExtents(extents_, 9, 1).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tertio::sim
