// Property-style sweeps (parameterized gtest): conservation and resource
// invariants that must hold for every method across a grid of geometries,
// verified on real data against the reference join.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/machine.h"
#include "join/join_method.h"
#include "join/reference_join.h"
#include "relation/generator.h"

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 1024;

struct Geometry {
  uint64_t r_tuples;
  uint64_t s_tuples;
  BlockCount memory_blocks;
  BlockCount disk_blocks;
  ByteCount record_bytes;
  /// Every method must accept the geometry (no refusal path).
  bool all_feasible;
};

// Three regimes: comfortable, memory-tight, disk-tight (tape-tape only for
// the disk-tight one — disk-tape methods are expected to refuse it). The
// fourth reruns the memory-tight regime at 47-byte records (32 + 8 + 4 + 3),
// which are not a whole number of 8-byte words: every record digest then
// runs the stripe, word, 4-byte and single-byte steps of join::HashBytes
// through the real join paths.
const Geometry kGeometries[] = {
    {300, 1500, 24, 96, 100, false},   // comfortable
    {600, 1800, 14, 128, 100, false},  // memory-tight
    {600, 1800, 20, 40, 100, false},   // disk-tight: D < |R| = 60 blocks
    {600, 1800, 14, 128, 47, true},    // memory-tight, record not a word multiple
};

using Param = std::tuple<JoinMethodId, int>;

class PropertyTest : public ::testing::TestWithParam<Param> {
 public:
  static std::string Name(const ::testing::TestParamInfo<Param>& info) {
    std::string name(JoinMethodName(std::get<0>(info.param)));
    for (char& c : name) {
      if (c == '-' || c == '/') c = '_';
    }
    return name + "_geo" + std::to_string(std::get<1>(info.param));
  }
};

TEST_P(PropertyTest, InvariantsAndCorrectness) {
  auto [method_id, geo_index] = GetParam();
  const Geometry& geo = kGeometries[geo_index];

  exec::MachineConfig config;
  config.block_bytes = kBlock;
  config.memory_bytes = geo.memory_blocks * kBlock;
  config.disk_space_bytes = geo.disk_blocks * kBlock;
  config.stripe_unit = 4;
  exec::Machine machine(config);

  rel::GeneratorConfig r_config;
  r_config.name = "R";
  r_config.tuple_count = geo.r_tuples;
  r_config.keys = rel::KeySequence::kSequentialUnique;
  r_config.seed = 101 + geo_index;
  r_config.record_bytes = geo.record_bytes;
  auto r = rel::GenerateOnTape(r_config, &machine.tape_r());
  rel::GeneratorConfig s_config;
  s_config.name = "S";
  s_config.tuple_count = geo.s_tuples;
  s_config.keys = rel::KeySequence::kForeignKeyUniform;
  s_config.key_domain = geo.r_tuples;
  s_config.seed = 202 + geo_index;
  s_config.record_bytes = geo.record_bytes;
  auto s = rel::GenerateOnTape(s_config, &machine.tape_s());
  ASSERT_TRUE(r.ok() && s.ok());
  machine.MountTapes();

  JoinSpec spec;
  spec.r = &r.value();
  spec.s = &s.value();
  auto executor = CreateJoinMethod(method_id);
  JoinContext ctx = machine.context();

  auto requirements = executor->Requirements(spec, ctx);
  auto stats = executor->Execute(spec, ctx);
  if (geo.all_feasible) {
    ASSERT_TRUE(stats.ok()) << stats.status();
  }
  if (!stats.ok()) {
    // A method may refuse a geometry, but then it must be a resource error
    // and (when requirements are computable) the requirements must exceed
    // the machine.
    EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted) << stats.status();
    if (requirements.ok()) {
      EXPECT_TRUE(requirements->memory_blocks > machine.memory_blocks() ||
                  requirements->disk_blocks > machine.disk_blocks())
          << "refused although requirements fit: " << stats.status();
    }
    return;
  }

  // --- Correctness: identical pair set to the reference join.
  auto reference = ReferenceJoin(*spec.r, *spec.s, 0, 0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(stats->output_tuples, reference->tuples());
  EXPECT_EQ(stats->output_checksum, reference->checksum());

  // --- Conservation: both relations are read in full from tape at least
  // once; R is read exactly r_scans times from *some* medium.
  EXPECT_GE(stats->tape_blocks_read, spec.r->blocks + spec.s->blocks);

  // --- Resource ceilings: never exceed the configured M and D.
  EXPECT_LE(stats->peak_memory_blocks, machine.memory_blocks());
  EXPECT_LE(stats->peak_disk_blocks, machine.disk_blocks());

  // --- Timing: steps sum to the response; all durations non-negative.
  EXPECT_GE(stats->step1_seconds, 0.0);
  EXPECT_GE(stats->step2_seconds, 0.0);
  EXPECT_NEAR((stats->step1_seconds + stats->step2_seconds).value(), ((stats->response_seconds)).value(),
              stats->response_seconds.value() * 0.05 + 1e-9);

  // --- Device accounting: traffic implies busy time; response is at least
  // the busiest device's busy time and at most the sum of all busy times
  // plus idle gaps (sanity bound: sum of device busy).
  double busiest = 0.0;
  double total_busy = 0.0;
  for (const auto& resource : machine.sim().resources()) {
    busiest = std::max(busiest, resource->stats().busy_seconds.value());
    total_busy += resource->stats().busy_seconds.value();
  }
  EXPECT_GE(stats->response_seconds, busiest * 0.999);
  EXPECT_LE(stats->response_seconds, total_busy * 1.001 + 1.0);

  // --- Cleanup: scratch space restored.
  EXPECT_EQ(machine.memory().reserved_blocks(), 0u);
  EXPECT_EQ(machine.disks().allocator().used_blocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByGeometry, PropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllJoinMethods), ::testing::Values(0, 1, 2, 3)),
    PropertyTest::Name);

/// Checksum is permutation-independent: two methods joining the same inputs
/// through entirely different physical plans agree bit-for-bit.
TEST(ChecksumPropertyTest, AllFeasibleMethodsAgreePairwise) {
  exec::MachineConfig config;
  config.block_bytes = kBlock;
  config.memory_bytes = 24 * kBlock;
  config.disk_space_bytes = 96 * kBlock;
  config.stripe_unit = 4;

  std::uint64_t checksum = 0;
  std::uint64_t tuples = 0;
  bool first = true;
  for (JoinMethodId method_id : kAllJoinMethods) {
    exec::Machine machine(config);
    rel::GeneratorConfig r_config;
    r_config.tuple_count = 400;
    r_config.keys = rel::KeySequence::kUniformRandom;
    r_config.key_domain = 90;
    r_config.seed = 7;
    auto r = rel::GenerateOnTape(r_config, &machine.tape_r());
    rel::GeneratorConfig s_config;
    s_config.tuple_count = 1300;
    s_config.keys = rel::KeySequence::kUniformRandom;
    s_config.key_domain = 90;
    s_config.seed = 8;
    auto s = rel::GenerateOnTape(s_config, &machine.tape_s());
    ASSERT_TRUE(r.ok() && s.ok());
    machine.MountTapes();
    JoinSpec spec;
    spec.r = &r.value();
    spec.s = &s.value();
    JoinContext ctx = machine.context();
    auto stats = CreateJoinMethod(method_id)->Execute(spec, ctx);
    ASSERT_TRUE(stats.ok()) << JoinMethodName(method_id) << ": " << stats.status();
    if (first) {
      checksum = stats->output_checksum;
      tuples = stats->output_tuples;
      first = false;
    } else {
      EXPECT_EQ(stats->output_checksum, checksum) << JoinMethodName(method_id);
      EXPECT_EQ(stats->output_tuples, tuples) << JoinMethodName(method_id);
    }
  }
}

}  // namespace
}  // namespace tertio::join
