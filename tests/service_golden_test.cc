// Golden service timelines at max_in_flight = 1.
//
// Pins, per dispatched query, everything a client observes — id, status,
// start, completion (exact, as hex floats), scan_shared, cached — plus a
// digest of the query's JoinStats, for every policy over the small service
// scenarios of service_test.cc. Any change to how the scheduler dispatches,
// anchors or retires queries shows up here as a row diff; a change to a
// fixture must be explained field by field, never regenerated silently.
//
// On a mismatch the test prints the actual rows as C++ literals.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_scheduler.h"
#include "exec/service_workload.h"
#include "exec/site.h"

namespace tertio::exec {
namespace {

ServiceWorkloadConfig SmallWorkload(int s_cartridges) {
  ServiceWorkloadConfig config;
  config.s_cartridges = s_cartridges;
  config.s_bytes = 100 * kMB;
  config.r_relations = 3;
  config.r_bytes = 5 * kMB;
  config.phantom = true;
  return config;
}

// FNV-1a over the 64-bit images of every simulated JoinStats field.
std::uint64_t StatsDigest(const join::JoinStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto secs = [&mix](SimSeconds v) { mix(std::bit_cast<std::uint64_t>(v.value())); };
  secs(s.response_seconds);
  secs(s.step1_seconds);
  secs(s.step2_seconds);
  secs(s.recovery_seconds);
  for (std::uint64_t v :
       {s.output_tuples, s.output_checksum, s.disk_blocks_read.value(),
        s.disk_blocks_written.value(), s.tape_blocks_read.value(), s.tape_blocks_written.value(),
        s.tape_blocks_shared.value(), s.tape_blocks_cached.value(), s.disk_requests, s.r_scans,
        s.iterations, s.bucket_overflow_slices, s.peak_memory_blocks.value(),
        s.peak_disk_blocks.value(), s.memory_occupied_blocks.value(), s.robot_exchanges,
        s.faults_injected, s.fault_retries, s.blocks_remapped, s.chunk_retries}) {
    mix(v);
  }
  return h;
}

std::string Row(const QueryOutcome& out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "q%llu %s start=%a completion=%a shared=%d cached=%d stats=%016llx",
                static_cast<unsigned long long>(out.id), out.status.ok() ? "ok" : "failed",
                out.start.value(), out.completion.value(), out.scan_shared ? 1 : 0,
                out.cached ? 1 : 0, static_cast<unsigned long long>(StatsDigest(out.stats)));
  return buf;
}

struct Query {
  std::uint64_t id;
  int r_index;
  int s_index;
  double arrival;
  /// Disk carve override; 0 = the whole session disk.
  std::uint64_t disk_blocks = 0;
};

std::vector<std::string> RunScenario(ServicePolicy policy, int s_cartridges,
                                     BlockCount cache_blocks, const std::vector<Query>& queries) {
  SiteConfig config;
  config.with_library = true;
  config.cache_blocks = cache_blocks;
  auto site = std::make_unique<Site>(config);
  auto workload = PrepareServiceWorkload(site.get(), SmallWorkload(s_cartridges));
  TERTIO_CHECK(workload.ok(), "workload setup failed");
  SchedulerOptions options;
  options.max_in_flight = 1;
  QueryScheduler scheduler(site.get(), policy, options);
  for (const Query& q : queries) {
    JoinRequest request;
    request.id = q.id;
    request.arrival = q.arrival;
    request.spec.r = &workload->r[static_cast<std::size_t>(q.r_index)];
    request.spec.s = &workload->s[static_cast<std::size_t>(q.s_index)];
    request.method = JoinMethodId::kCdtGh;
    request.memory_blocks = site->memory_blocks();
    request.disk_blocks = q.disk_blocks > 0 ? BlockCount{q.disk_blocks}
                                            : site->session_disk_blocks();
    auto id = scheduler.Submit(std::move(request));
    TERTIO_CHECK(id.ok(), "submit failed");
  }
  TERTIO_CHECK(scheduler.Run().ok(), "run failed");
  std::vector<std::string> rows;
  for (const QueryOutcome& out : scheduler.outcomes()) rows.push_back(Row(out));
  char makespan[64];
  std::snprintf(makespan, sizeof(makespan), "makespan=%a",
                scheduler.service_stats().makespan.value());
  rows.push_back(makespan);
  return rows;
}

void ExpectRows(const std::vector<std::string>& actual, const std::vector<std::string>& golden) {
  if (actual == golden) return;
  std::string literal;
  for (const std::string& row : actual) literal += "      \"" + row + "\",\n";
  ADD_FAILURE() << "golden rows differ; actual rows:\n" << literal;
}

const char* PolicyName(ServicePolicy policy) {
  switch (policy) {
    case ServicePolicy::kFifo:
      return "fifo";
    case ServicePolicy::kSharedScan:
      return "shared_scan";
    case ServicePolicy::kElevator:
      return "elevator";
  }
  return "?";
}

struct Golden {
  ServicePolicy policy;
  std::vector<std::string> rows;
};

// Three joins on one S cartridge, all arrived at t=0.
TEST(ServiceGoldenTest, BurstOnOneCartridge) {
  std::vector<Query> queries = {{1, 0, 0, 0.0}, {2, 1, 0, 0.0}, {3, 2, 0, 0.0}};
  std::vector<Golden> golden = {
      {ServicePolicy::kFifo,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.43fccca341a61p+7 completion=0x1.f0799be03b9d4p+7 shared=0 cached=0 stats=9ce607b7d4c8127a",
        "q3 ok start=0x1.f0799be03b9d4p+7 completion=0x1.4e7b358e9a976p+8 shared=0 cached=0 stats=e181992534625611",
        "makespan=0x1.4e7b358e9a976p+8",
       }},
      {ServicePolicy::kSharedScan,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.43fccca341a61p+7 completion=0x1.91af524c6377dp+7 shared=1 cached=0 stats=a0336285924073f8",
        "q3 ok start=0x1.91af524c6377dp+7 completion=0x1.df61d7f585499p+7 shared=1 cached=0 stats=a0336285924073f8",
        "makespan=0x1.df61d7f585499p+7",
       }},
      {ServicePolicy::kElevator,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.43fccca341a61p+7 completion=0x1.f0799be03b9d4p+7 shared=0 cached=0 stats=9ce607b7d4c8127a",
        "q3 ok start=0x1.f0799be03b9d4p+7 completion=0x1.4e7b358e9a976p+8 shared=0 cached=0 stats=e181992534625611",
        "makespan=0x1.4e7b358e9a976p+8",
       }},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(PolicyName(g.policy));
    ExpectRows(RunScenario(g.policy, 1, 0, queries), g.rows);
  }
}

// Arrivals spread so each query finds an idle service.
TEST(ServiceGoldenTest, StaggeredArrivals) {
  std::vector<Query> queries = {{1, 0, 0, 0.0}, {2, 1, 0, 1000.0}, {3, 2, 0, 2000.0}};
  std::vector<Golden> golden = {
      {ServicePolicy::kFifo,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.f4p+9 completion=0x1.0f8f99e79f344p+10 shared=0 cached=0 stats=9aa3200bbd3c97fc",
        "q3 ok start=0x1.f4p+10 completion=0x1.04c7ccf3cf995p+11 shared=0 cached=0 stats=1e9dc349cc817bf7",
        "makespan=0x1.04c7ccf3cf995p+11",
       }},
      {ServicePolicy::kSharedScan,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.f4p+9 completion=0x1.0f8f99e79f344p+10 shared=0 cached=0 stats=9aa3200bbd3c97fc",
        "q3 ok start=0x1.f4p+10 completion=0x1.04c7ccf3cf995p+11 shared=0 cached=0 stats=1e9dc349cc817bf7",
        "makespan=0x1.04c7ccf3cf995p+11",
       }},
      {ServicePolicy::kElevator,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.f4p+9 completion=0x1.0f8f99e79f344p+10 shared=0 cached=0 stats=9aa3200bbd3c97fc",
        "q3 ok start=0x1.f4p+10 completion=0x1.04c7ccf3cf995p+11 shared=0 cached=0 stats=1e9dc349cc817bf7",
        "makespan=0x1.04c7ccf3cf995p+11",
       }},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(PolicyName(g.policy));
    ExpectRows(RunScenario(g.policy, 1, 0, queries), g.rows);
  }
}

// The FollowersRequeueInsteadOfJumpingTheQueueWhenTheLeaderFails scenario:
// the cartridge-0 leader fails in execution (its disk carve is too small).
TEST(ServiceGoldenTest, LeaderFailsOnSecondCartridge) {
  std::vector<Query> queries = {
      {1, 0, 1, 0.0}, {2, 1, 0, 0.1, /*disk_blocks=*/2}, {3, 2, 1, 0.15}, {4, 0, 0, 0.2}};
  std::vector<Golden> golden = {
      {ServicePolicy::kFifo,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 failed start=0x1.43fccca341a61p+7 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=ab0c262759a1d225",
        "q3 ok start=0x1.91fe6651a0d3p+8 completion=0x1.e80000b541d08p+8 shared=0 cached=0 stats=24e64a0849dbf2d8",
        "q4 ok start=0x1.3000005aa0e84p+9 completion=0x1.5b04019e71c6ap+9 shared=0 cached=0 stats=3c8197bb1fa15bad",
        "makespan=0x1.5b04019e71c6ap+9",
       }},
      {ServicePolicy::kSharedScan,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 failed start=0x1.43fccca341a61p+7 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=ab0c262759a1d225",
        "q3 ok start=0x1.91fe6651a0d3p+8 completion=0x1.e80000b541d08p+8 shared=0 cached=0 stats=24e64a0849dbf2d8",
        "q4 ok start=0x1.3000005aa0e84p+9 completion=0x1.5b04019e71c6ap+9 shared=0 cached=0 stats=3c8197bb1fa15bad",
        "makespan=0x1.5b04019e71c6ap+9",
       }},
      {ServicePolicy::kElevator,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q3 ok start=0x1.43fccca341a61p+7 completion=0x1.014002021e29bp+8 shared=0 cached=0 stats=146cbbf866f1c15c",
        "q2 failed start=0x1.014002021e29bp+8 completion=0x1.014002021e29bp+8 shared=0 cached=0 stats=ab0c262759a1d225",
        "q4 ok start=0x1.014002021e29bp+8 completion=0x1.c3b9bba6fa0ebp+8 shared=0 cached=0 stats=51e566d56e17ceee",
        "makespan=0x1.c3b9bba6fa0ebp+8",
       }},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(PolicyName(g.policy));
    ExpectRows(RunScenario(g.policy, 2, 0, queries), g.rows);
  }
}

// The burst again over a 150 MB extent cache: the first pass fills it.
TEST(ServiceGoldenTest, BurstOverAWarmingExtentCache) {
  std::vector<Query> queries = {{1, 0, 0, 0.0}, {2, 1, 0, 0.0}, {3, 2, 0, 0.0}};
  SiteConfig defaults;
  BlockCount cache = BytesToBlocks(150 * kMB, defaults.block_bytes);
  std::vector<Golden> golden = {
      {ServicePolicy::kFifo,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.43fccca341a61p+7 completion=0x1.c1cbcb4cb8c0ep+7 shared=0 cached=1 stats=3b6cbae101969efe",
        "q3 ok start=0x1.c1cbcb4cb8c0ep+7 completion=0x1.15c57f66b5255p+8 shared=0 cached=1 stats=65901d473a06b457",
        "makespan=0x1.15c57f66b5255p+8",
       }},
      {ServicePolicy::kSharedScan,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.43fccca341a61p+7 completion=0x1.a5bf1d7528b1ap+7 shared=1 cached=0 stats=ef023460973bc4a9",
        "q3 ok start=0x1.a5bf1d7528b1ap+7 completion=0x1.f371a31e4a836p+7 shared=1 cached=0 stats=a0336285924073f8",
        "makespan=0x1.f371a31e4a836p+7",
       }},
      {ServicePolicy::kElevator,
       {
        "q1 ok start=0x1.54p+6 completion=0x1.43fccca341a61p+7 shared=0 cached=0 stats=e3f0a12af272e0f0",
        "q2 ok start=0x1.43fccca341a61p+7 completion=0x1.c1cbcb4cb8c0ep+7 shared=0 cached=1 stats=3b6cbae101969efe",
        "q3 ok start=0x1.c1cbcb4cb8c0ep+7 completion=0x1.15c57f66b5255p+8 shared=0 cached=1 stats=65901d473a06b457",
        "makespan=0x1.15c57f66b5255p+8",
       }},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(PolicyName(g.policy));
    ExpectRows(RunScenario(g.policy, 1, cache, queries), g.rows);
  }
}

}  // namespace
}  // namespace tertio::exec
