#pragma once

/// \file flat_table.h
/// Cache-friendly build/probe substrate of the full-data join paths.
///
/// FlatJoinTable replaces the original std::unordered_multimap table: slots
/// live in one contiguous open-addressed array (linear probing) keyed by the
/// splitmix64 digest of the join key (hash/hasher.h), and captured build
/// records are packed back-to-back in a per-table arena addressed by
/// (offset, length) handles — no per-entry heap allocation, no node pointer
/// chases. AddBlocks and Probe run a short software-prefetch pipeline over
/// the slot array, so the dependent cache miss per tuple largely overlaps
/// with decoding the next records.
///
/// Probes compare the stored 64-bit key digest first and the key itself only
/// on digest equality; a digest collision between unequal keys therefore
/// never produces a match (see FlatTableDigestCollision in
/// tests/join_correctness_test.cc).
///
/// The probe is a two-stage software pipeline. Stage one digests records a
/// full filter distance ahead and prefetches their blocked-Bloom filter
/// word; stage two tests the filter half a ring later and prefetches the
/// slot line only for digests that may be present. Probes the filter
/// rejects — the common case for selective joins — never touch the slot
/// array at all; survivors walk their chain with group-of-four digest
/// compares (join/simd.h, SSE2/NEON picked at compile time). The table
/// emits the same pair set as the per-record reference table in
/// tests/scalar_join_table.h (tests/flat_table_simd_test.cc).

#include <cstdint>
#include <span>
#include <vector>

#include "hash/hasher.h"
#include "join/join_output.h"
#include "relation/schema.h"
#include "util/block_payload.h"
#include "util/hugepage.h"
#include "util/status.h"

namespace tertio::join {

/// Hash of a join key, used for slot placement and the digest-first probe
/// compare. Injectable so tests can force digest collisions; production code
/// always uses hash::HashKey (a 64-bit bijection).
using KeyHashFn = std::uint64_t (*)(std::int64_t);

/// In-memory hash table over the build side of one (sub-)join.
///
/// Stores, per key, the digest of every build record, so probes can emit the
/// exact pair set without keeping full tuples around. `build_is_r` fixes
/// which side of the output pair the build records occupy. When
/// `capture_records` is set the full build records are retained (in the
/// arena) so that probes can pipeline whole joined rows to a MatchSink (the
/// build side is memory-resident by construction — that is the join methods'
/// invariant).
class FlatJoinTable {
 public:
  FlatJoinTable(const rel::Schema* build_schema, std::size_t build_key_column, bool build_is_r,
                bool capture_records = false, KeyHashFn key_hash = nullptr)
      : build_schema_(build_schema),
        build_key_(build_key_column),
        build_is_r_(build_is_r),
        capture_records_(capture_records),
        key_hash_(key_hash != nullptr ? key_hash : &hash::HashKey) {}

  /// Adds every tuple in `blocks` to the table.
  Status AddBlocks(std::span<const BlockPayload> blocks);

  /// Probes every tuple in `blocks` (from the other relation), emitting all
  /// matching pairs into `out`.
  Status Probe(std::span<const BlockPayload> blocks, const rel::Schema* probe_schema,
               std::size_t probe_key_column, JoinOutput* out) const;

  std::uint64_t size() const { return size_; }

  /// Drops all entries but keeps the slot array and arena capacity (the
  /// tape-tape methods rebuild per bucket slice).
  void Clear();

  /// Grows the slot array so `entries` fit without rehashing mid-insert.
  void Reserve(std::uint64_t entries);

 private:
  /// One slot: 32 bytes, two per cache line. digest == 0 marks an empty
  /// slot; key digests are remapped off 0 in DigestOf.
  struct Slot {
    std::uint64_t digest = 0;
    std::int64_t key = 0;
    /// Record digest (join::HashBytes) of the full build record; enters
    /// the pair checksum.
    std::uint64_t record_digest = 0;
    /// Arena handle of the captured record bytes (capture_records_ only).
    std::uint32_t record_offset = 0;
    std::uint32_t record_length = 0;
  };

  std::uint64_t DigestOf(std::int64_t key) const {
    std::uint64_t digest = key_hash_(key);
    // 0 is the empty-slot marker; remap to a fixed odd constant.
    return digest != 0 ? digest : 0x9E3779B97F4A7C15ULL;
  }

  void Rehash(std::size_t new_capacity);
  void InsertSlot(const Slot& slot);

  /// Blocked Bloom prefilter over the stored digests: one 64-bit filter word
  /// per eight slots, four bits per key, all drawn from digest bits the slot
  /// index (low bits) does not use. Every insert path sets the bits, so a
  /// negative test proves the digest is absent — the filter only ever skips
  /// chain walks that could not have matched, never real matches.
  static std::uint64_t BloomBitsOf(std::uint64_t digest) {
    return (1ull << ((digest >> 38) & 63)) | (1ull << ((digest >> 44) & 63)) |
           (1ull << ((digest >> 50) & 63)) | (1ull << ((digest >> 56) & 63));
  }
  std::size_t BloomWordOf(std::uint64_t digest) const {
    return static_cast<std::size_t>(digest >> 32) & bloom_mask_;
  }
  void BloomAdd(std::uint64_t digest) { bloom_[BloomWordOf(digest)] |= BloomBitsOf(digest); }
  bool BloomMayContain(std::uint64_t digest) const {
    const std::uint64_t bits = BloomBitsOf(digest);
    return (bloom_[BloomWordOf(digest)] & bits) == bits;
  }

  const rel::Schema* build_schema_;
  std::size_t build_key_;
  bool build_is_r_;
  bool capture_records_;
  KeyHashFn key_hash_;

  /// Power-of-two size, linear probing. Hugepage-backed above 2 MiB: paper-
  /// scale tables have page working sets far beyond the dTLB on 4 KiB pages,
  /// and x86 drops prefetches that miss the dTLB — THP backing is what makes
  /// the build and probe prefetch pipelines effective (util/hugepage.h).
  std::vector<Slot, util::HugePageAllocator<Slot>> slots_;
  std::size_t mask_ = 0;
  /// One filter word per eight slots (3% of the table), kept in lockstep
  /// with slots_ by Rehash/Clear and every insert.
  std::vector<std::uint64_t, util::HugePageAllocator<std::uint64_t>> bloom_;
  std::size_t bloom_mask_ = 0;
  std::uint64_t size_ = 0;
  std::vector<std::uint8_t> arena_;  // captured record bytes, back-to-back
};

}  // namespace tertio::join
