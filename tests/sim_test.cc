// Unit tests for tertio_sim: resource timelines, simulation.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/interval.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace tertio::sim {
namespace {

TEST(IntervalTest, DurationAndHull) {
  Interval a{1.0, 3.0};
  Interval b{2.0, 5.0};
  EXPECT_DOUBLE_EQ((a.duration()).value(), 2.0);
  Interval h = Interval::Hull(a, b);
  EXPECT_DOUBLE_EQ(h.start.value(), 1.0);
  EXPECT_DOUBLE_EQ(h.end.value(), 5.0);
  EXPECT_DOUBLE_EQ((Interval::At(4.0).duration()).value(), 0.0);
}

TEST(ResourceTest, FifoSerialization) {
  Resource r("dev");
  Interval a = r.Schedule(0.0, 10.0);
  Interval b = r.Schedule(0.0, 5.0);
  EXPECT_DOUBLE_EQ(a.start.value(), 0.0);
  EXPECT_DOUBLE_EQ(a.end.value(), 10.0);
  EXPECT_DOUBLE_EQ(b.start.value(), 10.0);  // queued behind a
  EXPECT_DOUBLE_EQ(b.end.value(), 15.0);
  EXPECT_DOUBLE_EQ((r.available_at()).value(), 15.0);
}

TEST(ResourceTest, ReadyTimeDelaysStart) {
  Resource r("dev");
  Interval a = r.Schedule(100.0, 5.0);
  EXPECT_DOUBLE_EQ(a.start.value(), 100.0);
  EXPECT_DOUBLE_EQ(a.end.value(), 105.0);
  // Device idles between ops when the next op is not ready.
  Interval b = r.Schedule(200.0, 1.0);
  EXPECT_DOUBLE_EQ(b.start.value(), 200.0);
}

TEST(ResourceTest, StatsAccumulate) {
  Resource r("dev");
  r.Schedule(0.0, 2.0, 1000, "read");
  r.Schedule(10.0, 3.0, 2000, "write");
  EXPECT_EQ(r.stats().op_count, 2u);
  EXPECT_EQ(r.stats().bytes_transferred, 3000u);
  EXPECT_DOUBLE_EQ(r.stats().busy_seconds.value(), 5.0);
  EXPECT_DOUBLE_EQ(r.stats().horizon.value(), 13.0);
}

TEST(ResourceTest, UtilizationAgainstHorizonAndFixedSpan) {
  Resource r("dev");
  r.Schedule(0.0, 4.0);
  r.Schedule(6.0, 4.0);  // horizon 10, busy 8
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.8);
  EXPECT_DOUBLE_EQ(r.Utilization(20.0), 0.4);
  EXPECT_DOUBLE_EQ(Resource("idle").Utilization(), 0.0);
}

TEST(ResourceTest, TraceRecordsOps) {
  Resource r("dev");
  r.EnableTrace();
  r.Schedule(0.0, 1.0, 10, "a");
  r.Schedule(0.0, 2.0, 20, "b");
  ASSERT_EQ(r.trace().size(), 2u);
  EXPECT_STREQ(r.trace()[0].tag, "a");
  EXPECT_EQ(r.trace()[1].bytes, 20u);
  EXPECT_DOUBLE_EQ(r.trace()[1].interval.start.value(), 1.0);
}

TEST(ResourceTest, TraceOffByDefault) {
  Resource r("dev");
  r.Schedule(0.0, 1.0);
  EXPECT_TRUE(r.trace().empty());
}

TEST(ResourceTest, ResetClearsEverything) {
  Resource r("dev");
  r.EnableTrace();
  r.Schedule(0.0, 5.0, 100, "x");
  r.Reset();
  EXPECT_DOUBLE_EQ((r.available_at()).value(), 0.0);
  EXPECT_EQ(r.stats().op_count, 0u);
  EXPECT_TRUE(r.trace().empty());
}

TEST(SimulationTest, HorizonSpansResources) {
  Simulation sim;
  Resource* a = sim.CreateResource("a");
  Resource* b = sim.CreateResource("b");
  a->Schedule(0.0, 7.0);
  b->Schedule(0.0, 11.0);
  EXPECT_DOUBLE_EQ((sim.Horizon()).value(), 11.0);
  sim.Reset();
  EXPECT_DOUBLE_EQ((sim.Horizon()).value(), 0.0);
  EXPECT_EQ(sim.resources().size(), 2u);
}

}  // namespace
}  // namespace tertio::sim

// ---- Trace report ----------------------------------------------------------

#include <sstream>

#include "sim/trace_report.h"

namespace tertio::sim {
namespace {

TEST(TraceReportTest, GanttShowsBusyAndIdle) {
  Simulation sim;
  Resource* tape = sim.CreateResource("tape");
  Resource* disk = sim.CreateResource("disk");
  tape->EnableTrace();
  disk->EnableTrace();
  tape->Schedule(0.0, 50.0, 0, "read");   // busy first half
  disk->Schedule(50.0, 50.0, 0, "write"); // busy second half
  GanttOptions options;
  options.width = 10;
  std::string gantt = RenderGantt(sim, options);
  // tape: #####.....  disk: .....#####
  EXPECT_NE(gantt.find("tape  #####....."), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("disk  .....#####"), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("50%"), std::string::npos);
}

TEST(TraceReportTest, UntracedResourceIsFlagged) {
  Simulation sim;
  Resource* r = sim.CreateResource("quiet");
  r->Schedule(0.0, 10.0);
  std::string gantt = RenderGantt(sim);
  EXPECT_NE(gantt.find("(no trace)"), std::string::npos);
}

TEST(TraceReportTest, CsvListsEveryOp) {
  Simulation sim;
  Resource* r = sim.CreateResource("dev");
  r->EnableTrace();
  r->Schedule(0.0, 1.0, 100, "a");
  r->Schedule(0.0, 2.0, 200, "b");
  std::ostringstream out;
  WriteTraceCsv(sim, out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("resource,tag,start,end,bytes"), std::string::npos);
  EXPECT_NE(csv.find("dev,a,0,1,100"), std::string::npos);
  EXPECT_NE(csv.find("dev,b,1,3,200"), std::string::npos);
}

TEST(TraceReportTest, CsvTimesRoundTripExactly) {
  Simulation sim;
  Resource* r = sim.CreateResource("dev");
  r->EnableTrace();
  const SimSeconds start(123456.789);
  r->Schedule(start, 0.25, 100, "a");
  std::ostringstream out;
  out.precision(3);  // a caller's precision neither truncates nor is lost
  WriteTraceCsv(sim, out);
  EXPECT_EQ(out.precision(), 3);
  const std::string csv = out.str();
  const std::string prefix = "dev,a,";
  const std::size_t at = csv.find(prefix);
  ASSERT_NE(at, std::string::npos) << csv;
  const std::size_t begin = at + prefix.size();
  const std::string field = csv.substr(begin, csv.find(',', begin) - begin);
  EXPECT_EQ(std::stod(field), start.value()) << field;
}

}  // namespace
}  // namespace tertio::sim
