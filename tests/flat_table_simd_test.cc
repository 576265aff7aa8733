// FlatJoinTable vs the per-record reference table (tests/scalar_join_table.h).
//
// The production kernels (Bloom-prefiltered two-stage pipeline + group-of-
// four digest compares, join/simd.h) must emit exactly the reference's pair
// set on every workload shape: uniform, foreign-key, Zipf-skewed, and
// selective (miss-heavy) key distributions, wide records, seeded digest
// collisions, and the record-capturing pipeline mode. The Bloom filter is
// table state maintained by every insert path, so builds that rehash
// between AddBlocks calls and Clear() are covered too, as is the group
// compare against its portable kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "join/flat_table.h"
#include "join/join_output.h"
#include "join/simd.h"
#include "relation/block.h"
#include "relation/generator.h"
#include "relation/tuple.h"
#include "scalar_join_table.h"
#include "tape/tape_volume.h"
#include "util/units.h"

namespace tertio::join {
namespace {

constexpr ByteCount kBlock = 8 * kKiB;

struct GeneratedBlocks {
  rel::Relation relation;
  std::vector<BlockPayload> blocks;
};

GeneratedBlocks GenerateBlocks(const rel::GeneratorConfig& config) {
  GeneratedBlocks g;
  tape::TapeVolume tape(config.name, kBlock);
  g.relation = rel::GenerateOnTape(config, &tape).value();
  for (BlockIndex i = 0; i < tape.size_blocks(); ++i) {
    g.blocks.push_back(tape.ReadBlock(i).value());
  }
  return g;
}

struct ProbeResult {
  std::uint64_t tuples = 0;
  std::uint64_t checksum = 0;
  std::uint64_t table_size = 0;
};

/// Builds a `Table` over R (one AddBlocks call per `build_batch` blocks),
/// probes it with S, and returns the output aggregates.
template <typename Table>
ProbeResult BuildAndProbe(const GeneratedBlocks& r, const GeneratedBlocks& s,
                          KeyHashFn key_hash = nullptr, std::size_t build_batch = 0) {
  Table table(&r.relation.schema, 0, /*build_is_r=*/true, /*capture_records=*/false, key_hash);
  const std::span<const BlockPayload> blocks(r.blocks);
  const std::size_t batch = build_batch == 0 ? blocks.size() : build_batch;
  for (std::size_t i = 0; i < blocks.size(); i += batch) {
    const std::size_t n = std::min(batch, blocks.size() - i);
    TERTIO_CHECK(table.AddBlocks(blocks.subspan(i, n)).ok(), "build failed");
  }
  JoinOutput out;
  TERTIO_CHECK(table.Probe(s.blocks, &s.relation.schema, 0, &out).ok(), "probe failed");
  return {out.tuples(), out.checksum(), table.size()};
}

void ExpectSameResult(const ProbeResult& got, const ProbeResult& reference) {
  EXPECT_EQ(got.table_size, reference.table_size);
  EXPECT_EQ(got.tuples, reference.tuples);
  EXPECT_EQ(got.checksum, reference.checksum);
}

/// Workload grid shared by the equivalence tests: every key-sequence shape
/// the generator offers, including a selective case whose probe keys mostly
/// miss (the regime the Bloom prefilter accelerates).
struct WorkloadCase {
  const char* name;
  rel::KeySequence r_keys;
  rel::KeySequence s_keys;
  std::uint64_t r_domain;
  std::uint64_t s_domain;
  ByteCount record_bytes;
};

const WorkloadCase kWorkloads[] = {
    {"foreign-key", rel::KeySequence::kSequentialUnique, rel::KeySequence::kForeignKeyUniform,
     400, 400, 24},
    {"many-to-many", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 120,
     120, 24},
    {"zipf-skew", rel::KeySequence::kSequentialUnique, rel::KeySequence::kZipf, 400, 400, 24},
    {"selective", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 300,
     30000, 24},
    {"wide-records", rel::KeySequence::kUniformRandom, rel::KeySequence::kUniformRandom, 200,
     200, 256},
};

std::pair<GeneratedBlocks, GeneratedBlocks> Generate(const WorkloadCase& c,
                                                     std::uint64_t r_tuples = 400) {
  rel::GeneratorConfig r_config;
  r_config.name = "R";
  r_config.tuple_count = r_tuples;
  r_config.record_bytes = c.record_bytes;
  r_config.keys = c.r_keys;
  r_config.key_domain = c.r_domain;
  r_config.seed = 101;
  rel::GeneratorConfig s_config;
  s_config.name = "S";
  s_config.tuple_count = 1500;
  s_config.record_bytes = c.record_bytes;
  s_config.keys = c.s_keys;
  s_config.key_domain = c.s_domain;
  s_config.seed = 202;
  return {GenerateBlocks(r_config), GenerateBlocks(s_config)};
}

/// The production table must produce the reference's pair set — same match
/// count, same order-independent checksum — on every workload shape.
TEST(FlatTableSimdTest, MatchesScalarReferenceOnGeneratedWorkloads) {
  for (const WorkloadCase& c : kWorkloads) {
    SCOPED_TRACE(c.name);
    auto [r, s] = Generate(c);
    const ProbeResult reference = BuildAndProbe<ScalarJoinTable>(r, s);
    EXPECT_GT(reference.table_size, 0u);
    EXPECT_GT(reference.tuples, 0u);
    ExpectSameResult(BuildAndProbe<FlatJoinTable>(r, s), reference);
  }
}

/// A build split over several AddBlocks calls grows the slot array between
/// calls, and Rehash re-inserts every earlier entry through InsertSlot
/// rather than the batched insert loop. The Bloom prefilter is rebuilt on
/// that path too, so probes for keys inserted before the rehash must still
/// find them.
TEST(FlatTableSimdTest, RehashBetweenBuildBatchesKeepsThePrefilterComplete) {
  for (const WorkloadCase& c : kWorkloads) {
    SCOPED_TRACE(c.name);
    // 3000 build tuples span several blocks; one block per call doubles the
    // slot array (and so rehashes) several times during the build.
    auto [r, s] = Generate(c, /*r_tuples=*/3000);
    ASSERT_GE(r.blocks.size(), 3u);
    const ProbeResult reference = BuildAndProbe<ScalarJoinTable>(r, s);
    EXPECT_GT(reference.tuples, 0u);
    ExpectSameResult(BuildAndProbe<FlatJoinTable>(r, s, nullptr, /*build_batch=*/1), reference);
  }
}

/// A degenerate injected hash maps every key to one of two digests, so the
/// batched walk sees digest matches whose keys differ in nearly every group
/// — the key-compare rejection path — and chains that are one long collision
/// cluster. Both tables must agree and reject every unequal-key digest
/// collision.
std::uint64_t TwoValuedKeyHash(std::int64_t key) {
  return (key & 1) != 0 ? 42u : 7777u;
}

TEST(FlatTableSimdTest, SeededDigestCollisionsAgreeWithScalar) {
  const WorkloadCase& c = kWorkloads[1];  // many-to-many: duplicates on both sides
  auto [r, s] = Generate(c);
  const ProbeResult reference = BuildAndProbe<ScalarJoinTable>(r, s, &TwoValuedKeyHash);
  ExpectSameResult(BuildAndProbe<FlatJoinTable>(r, s, &TwoValuedKeyHash), reference);
  // The injected hash changes placement, never the pair set: the production
  // hash must report the identical aggregates.
  const ProbeResult production = BuildAndProbe<FlatJoinTable>(r, s);
  EXPECT_EQ(production.tuples, reference.tuples);
  EXPECT_EQ(production.checksum, reference.checksum);
}

/// Builds a record-capturing `Table` over R, probes it with S into a row
/// sink, and returns the serialized joined rows, sorted (row order is
/// method-dependent; the multiset is not).
template <typename Table>
std::vector<std::string> CollectRows(const GeneratedBlocks& r, const GeneratedBlocks& s) {
  Table table(&r.relation.schema, 0, /*build_is_r=*/true, /*capture_records=*/true);
  TERTIO_CHECK(table.AddBlocks(r.blocks).ok(), "build failed");
  std::vector<std::string> rows;
  JoinOutput out;
  out.set_sink([&rows](const rel::Tuple& rt, const rel::Tuple& st) {
    std::string row(rt.bytes().begin(), rt.bytes().end());
    row.append(st.bytes().begin(), st.bytes().end());
    rows.push_back(std::move(row));
    return Status::OK();
  });
  TERTIO_CHECK(table.Probe(s.blocks, &s.relation.schema, 0, &out).ok(), "probe failed");
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Pipeline (record-capturing) mode: both tables must hand the sink the
/// same joined-row multiset.
TEST(FlatTableSimdTest, PipelineModeDeliversTheSameRowMultiset) {
  auto [r, s] = Generate(kWorkloads[0]);
  const std::vector<std::string> reference_rows = CollectRows<ScalarJoinTable>(r, s);
  EXPECT_FALSE(reference_rows.empty());
  EXPECT_EQ(CollectRows<FlatJoinTable>(r, s), reference_rows);
}

/// Clear() must reset the Bloom prefilter along with the slots: a cleared
/// and rebuilt table must find the new entries (no false negatives) and
/// the aggregates must match a fresh reference run.
TEST(FlatTableSimdTest, ClearResetsThePrefilter) {
  const WorkloadCase& c = kWorkloads[3];  // selective: the filter actually rejects
  auto [r, s] = Generate(c);
  FlatJoinTable table(&r.relation.schema, 0, /*build_is_r=*/true);
  ASSERT_TRUE(table.AddBlocks(r.blocks).ok());
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  ASSERT_TRUE(table.AddBlocks(r.blocks).ok());
  JoinOutput out;
  ASSERT_TRUE(table.Probe(s.blocks, &s.relation.schema, 0, &out).ok());
  const ProbeResult reference = BuildAndProbe<ScalarJoinTable>(r, s);
  EXPECT_EQ(out.tuples(), reference.tuples);
  EXPECT_EQ(out.checksum(), reference.checksum);
}

/// The compiled group compare (SSE2, NEON or portable) must equal the
/// portable kernel on every group drawn from digests that stress the lane
/// logic: empty (0), the probe digest itself, all-ones, and values that
/// differ from the probe only in the high or only in the low 32 bits. The
/// last two pin SSE2's 64-bit equality, which ANDs the 32-bit compare with
/// its half-swapped self.
TEST(FlatTableSimdTest, CompareDigests4MatchesPortableKernel) {
  constexpr std::uint64_t kProbe = 0x0123456789ABCDEFull;
  const std::uint64_t values[] = {0, kProbe, ~std::uint64_t{0}, kProbe ^ (1ull << 40),
                                  kProbe ^ 1ull};
  constexpr std::size_t kStride = 4;  // FlatJoinTable's 32-byte slots
  std::uint64_t words[4 * kStride] = {};
  // Non-digest words of a slot must never leak into the masks.
  words[1] = words[kStride + 1] = kProbe;
  for (const std::uint64_t a : values) {
    for (const std::uint64_t b : values) {
      for (const std::uint64_t c : values) {
        for (const std::uint64_t d : values) {
          words[0] = a;
          words[kStride] = b;
          words[2 * kStride] = c;
          words[3 * kStride] = d;
          const simd::Group4 want = simd::CompareDigests4Scalar(words, kStride, kProbe);
          const simd::Group4 got = simd::CompareDigests4(words, kStride, kProbe);
          EXPECT_EQ(got.match_mask, want.match_mask);
          EXPECT_EQ(got.empty_mask, want.empty_mask);
        }
      }
    }
  }
  // The portable kernel itself, on one hand-checked group.
  words[0] = kProbe;
  words[kStride] = 0;
  words[2 * kStride] = kProbe ^ 1ull;
  words[3 * kStride] = kProbe;
  const simd::Group4 g = simd::CompareDigests4Scalar(words, kStride, kProbe);
  EXPECT_EQ(g.match_mask, 0b1001u);
  EXPECT_EQ(g.empty_mask, 0b0010u);
}

}  // namespace
}  // namespace tertio::join
