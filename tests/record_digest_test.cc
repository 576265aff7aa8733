// Properties of join::HashBytes, the per-record digest behind every join's
// order-independent output checksum. The checksum can only tell two pair
// sets apart if the digest tells the records apart, so these tests pin the
// distinctions the correctness tests rely on: length, every single bit, and
// word order. The placement test also runs under ASan (label `digest`),
// where an exact-size heap buffer turns any read past the span into a
// hard failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "join/join_output.h"
#include "util/rng.h"

namespace tertio::join {
namespace {

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
  return bytes;
}

std::uint64_t Digest(const std::vector<std::uint8_t>& bytes) {
  return HashBytes(std::span<const std::uint8_t>(bytes));
}

TEST(RecordDigestTest, EmptyInputMatchesXxHash64) {
  // xxHash64 of the empty input with seed 0 — the published test vector.
  EXPECT_EQ(HashBytes({}), 0xEF46DB3751D8E999ULL);
}

TEST(RecordDigestTest, EveryLengthUpTo40DigestsDistinctly) {
  // All-zero prefixes differ only in their length, so only the length mix
  // can separate them; the random prefixes run the same tail paths on
  // nonzero words.
  for (const std::vector<std::uint8_t>& source :
       {std::vector<std::uint8_t>(40, 0), RandomBytes(40, 7)}) {
    std::set<std::uint64_t> digests;
    for (std::size_t len = 0; len <= 40; ++len) {
      digests.insert(HashBytes(std::span<const std::uint8_t>(source.data(), len)));
    }
    EXPECT_EQ(digests.size(), 41u);
  }
}

TEST(RecordDigestTest, EverySingleBitFlipChangesTheDigest) {
  // A 100-byte record (the default record size) and every length up to 40,
  // so each bit of the stripe lanes, the word step, the 4-byte step and the
  // single-byte tail is flipped somewhere.
  std::vector<std::size_t> lengths = {100};
  for (std::size_t len = 1; len <= 40; ++len) lengths.push_back(len);
  for (std::size_t len : lengths) {
    std::vector<std::uint8_t> record = RandomBytes(len, 11 + len);
    const std::uint64_t original = Digest(record);
    std::set<std::uint64_t> flipped;
    for (std::size_t bit = 0; bit < len * 8; ++bit) {
      record[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const std::uint64_t digest = Digest(record);
      record[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_NE(digest, original) << "len " << len << " bit " << bit;
      flipped.insert(digest);
    }
    EXPECT_EQ(flipped.size(), len * 8) << "two single-bit flips collide at len " << len;
  }
}

TEST(RecordDigestTest, SwappingTwoWordsChangesTheDigest) {
  // Every pair of the 12 whole 8-byte words of a 100-byte record: words in
  // the same lane (stripe k and k + 1) and in different lanes alike.
  std::vector<std::uint8_t> record = RandomBytes(100, 13);
  const std::uint64_t original = Digest(record);
  constexpr std::size_t kWords = 100 / 8;
  for (std::size_t a = 0; a < kWords; ++a) {
    for (std::size_t b = a + 1; b < kWords; ++b) {
      std::vector<std::uint8_t> swapped = record;
      std::swap_ranges(swapped.begin() + 8 * a, swapped.begin() + 8 * a + 8,
                       swapped.begin() + 8 * b);
      EXPECT_NE(Digest(swapped), original) << "words " << a << " and " << b;
    }
  }
}

TEST(RecordDigestTest, DigestDependsOnlyOnTheBytesInsideTheSpan) {
  // The same bytes, once cut from the middle of a larger buffer whose
  // surroundings are random and once in a heap buffer of exactly their
  // size, at every length and at every start alignment within a word. A
  // tail that read past the span would either see the surroundings (and
  // digest differently) or overrun the exact buffer (and fail under ASan).
  const std::vector<std::uint8_t> large = RandomBytes(256, 17);
  for (std::size_t len = 0; len <= 136; ++len) {
    for (std::size_t start = 8; start < 16; ++start) {
      const std::span<const std::uint8_t> inner(large.data() + start, len);
      const std::vector<std::uint8_t> exact(inner.begin(), inner.end());
      EXPECT_EQ(HashBytes(inner), Digest(exact)) << "len " << len << " start " << start;
    }
  }
}

}  // namespace
}  // namespace tertio::join
