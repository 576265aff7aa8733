#pragma once

/// \file scalar_join_table.h
/// Per-record reference implementation of FlatJoinTable, kept with the tests.
///
/// Production code uses FlatJoinTable (join/flat_table.h), whose build and
/// probe run a Bloom-prefiltered pipeline with group-of-four digest compares.
/// This header keeps the table's original per-record loops: the same slot
/// layout, digest remap, linear probing, prefetch ring and hugepage-backed
/// slot array, but no Bloom filter and one slot per step. It serves as
/// (a) the oracle tests/flat_table_simd_test.cc holds the production table
/// to and (b) the baseline of bench_micro_substrates' probe_* speedups.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "hash/hasher.h"
#include "join/flat_table.h"
#include "join/join_output.h"
#include "relation/block.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "util/block_payload.h"
#include "util/hugepage.h"
#include "util/status.h"

namespace tertio::join {

/// Open-addressed join table with FlatJoinTable's API and per-record loops.
class ScalarJoinTable {
 public:
  ScalarJoinTable(const rel::Schema* build_schema, std::size_t build_key_column,
                  bool build_is_r, bool capture_records = false, KeyHashFn key_hash = nullptr)
      : build_schema_(build_schema),
        build_key_(build_key_column),
        build_is_r_(build_is_r),
        capture_records_(capture_records),
        key_hash_(key_hash != nullptr ? key_hash : &hash::HashKey) {}

  Status AddBlocks(std::span<const BlockPayload> blocks) {
    // One reservation for the whole batch: no rehash mid-insert, so the
    // prefetched slot addresses below stay valid.
    std::uint64_t incoming = 0;
    for (const BlockPayload& payload : blocks) {
      TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                              rel::BlockReader::Open(payload, build_schema_));
      incoming += reader.record_count();
    }
    Reserve(size_ + incoming);
    const std::size_t key_offset = build_schema_->offset(build_key_);
    for (const BlockPayload& payload : blocks) {
      TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                              rel::BlockReader::Open(payload, build_schema_));
      const std::uint64_t n = reader.record_count();
      if (n == 0) continue;
      // Digests run kPrefetchDistance records ahead of the inserts.
      std::uint64_t digests[kPrefetchDistance];
      const std::uint64_t lead = std::min<std::uint64_t>(n, kPrefetchDistance);
      for (std::uint64_t i = 0; i < lead; ++i) {
        std::uint64_t digest = DigestOf(KeyAt(reader.record(i), key_offset));
        digests[i % kPrefetchDistance] = digest;
        PrefetchWrite(&slots_[static_cast<std::size_t>(digest) & mask_]);
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        // Read before the lookahead reuses this ring position (i + D ≡ i).
        const std::uint64_t current_digest = digests[i % kPrefetchDistance];
        if (i + kPrefetchDistance < n) {
          std::uint64_t digest =
              DigestOf(KeyAt(reader.record(i + kPrefetchDistance), key_offset));
          digests[i % kPrefetchDistance] = digest;
          PrefetchWrite(&slots_[static_cast<std::size_t>(digest) & mask_]);
        }
        const std::span<const std::uint8_t> bytes = reader.record(i);
        Slot slot;
        slot.digest = current_digest;
        slot.key = KeyAt(bytes, key_offset);
        slot.record_digest = HashBytes(bytes);
        if (capture_records_) {
          if (arena_.size() + bytes.size() >
              static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
            return Status::ResourceExhausted("flat table arena exceeds 4 GiB of build records");
          }
          slot.record_offset = static_cast<std::uint32_t>(arena_.size());
          slot.record_length = static_cast<std::uint32_t>(bytes.size());
          arena_.insert(arena_.end(), bytes.begin(), bytes.end());
        }
        InsertSlot(slot);
        ++size_;
      }
    }
    return Status::OK();
  }

  Status Probe(std::span<const BlockPayload> blocks, const rel::Schema* probe_schema,
               std::size_t probe_key_column, JoinOutput* out) const {
    if (size_ == 0) return Status::OK();
    const bool pipeline = capture_records_ && out->has_sink();
    const std::size_t key_offset = probe_schema->offset(probe_key_column);
    for (const BlockPayload& payload : blocks) {
      TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                              rel::BlockReader::Open(payload, probe_schema));
      const std::uint64_t n = reader.record_count();
      std::uint64_t digests[kPrefetchDistance];
      const std::uint64_t lead = std::min<std::uint64_t>(n, kPrefetchDistance);
      for (std::uint64_t i = 0; i < lead; ++i) {
        std::uint64_t digest = DigestOf(KeyAt(reader.record(i), key_offset));
        digests[i % kPrefetchDistance] = digest;
        PrefetchRead(&slots_[static_cast<std::size_t>(digest) & mask_]);
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t digest = digests[i % kPrefetchDistance];
        if (i + kPrefetchDistance < n) {
          std::uint64_t ahead_digest =
              DigestOf(KeyAt(reader.record(i + kPrefetchDistance), key_offset));
          digests[i % kPrefetchDistance] = ahead_digest;
          PrefetchRead(&slots_[static_cast<std::size_t>(ahead_digest) & mask_]);
        }
        rel::Tuple tuple(reader.record(i), probe_schema);
        const std::int64_t key = KeyAt(tuple.bytes(), key_offset);
        // Lazy probe digest: unmatched probes cost one slot load only.
        std::uint64_t probe_digest = 0;
        bool have_probe_digest = false;
        std::size_t idx = static_cast<std::size_t>(digest) & mask_;
        while (slots_[idx].digest != 0) {
          const Slot& slot = slots_[idx];
          // Digest first, key only on digest equality.
          if (slot.digest == digest && slot.key == key) {
            if (!have_probe_digest) {
              probe_digest = HashBytes(tuple.bytes());
              have_probe_digest = true;
            }
            if (pipeline) {
              rel::Tuple build_tuple(
                  std::span<const std::uint8_t>(arena_.data() + slot.record_offset,
                                                slot.record_length),
                  build_schema_);
              const rel::Tuple& r = build_is_r_ ? build_tuple : tuple;
              const rel::Tuple& s = build_is_r_ ? tuple : build_tuple;
              TERTIO_RETURN_IF_ERROR(out->AddMatchWithRows(slot.key, r, s));
            } else if (build_is_r_) {
              out->AddMatch(slot.key, slot.record_digest, probe_digest);
            } else {
              out->AddMatch(slot.key, probe_digest, slot.record_digest);
            }
          }
          idx = (idx + 1) & mask_;
        }
      }
    }
    return Status::OK();
  }

  std::uint64_t size() const { return size_; }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    arena_.clear();
  }

  void Reserve(std::uint64_t entries) {
    // Max load factor 0.7, never below 16 slots (as FlatJoinTable).
    std::size_t capacity = slots_.empty() ? 16 : slots_.size();
    while (static_cast<double>(entries) > 0.7 * static_cast<double>(capacity)) {
      capacity *= 2;
    }
    if (capacity != slots_.size()) Rehash(capacity);
  }

 private:
  static constexpr std::size_t kPrefetchDistance = 8;

  /// FlatJoinTable's 32-byte slot; digest == 0 marks an empty slot.
  struct Slot {
    std::uint64_t digest = 0;
    std::int64_t key = 0;
    std::uint64_t record_digest = 0;
    std::uint32_t record_offset = 0;
    std::uint32_t record_length = 0;
  };

  static void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
    (void)p;
#endif
  }

  static void PrefetchWrite(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/1, /*locality=*/1);
#else
    (void)p;
#endif
  }

  static std::int64_t KeyAt(std::span<const std::uint8_t> record, std::size_t key_offset) {
    std::int64_t key;
    std::memcpy(&key, record.data() + key_offset, sizeof(key));
    return key;
  }

  std::uint64_t DigestOf(std::int64_t key) const {
    std::uint64_t digest = key_hash_(key);
    return digest != 0 ? digest : 0x9E3779B97F4A7C15ULL;
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<Slot, util::HugePageAllocator<Slot>> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    for (const Slot& slot : old) {
      if (slot.digest != 0) InsertSlot(slot);
    }
  }

  void InsertSlot(const Slot& slot) {
    std::size_t idx = static_cast<std::size_t>(slot.digest) & mask_;
    while (slots_[idx].digest != 0) {
      idx = (idx + 1) & mask_;
    }
    slots_[idx] = slot;
  }

  const rel::Schema* build_schema_;
  std::size_t build_key_;
  bool build_is_r_;
  bool capture_records_;
  KeyHashFn key_hash_;
  std::vector<Slot, util::HugePageAllocator<Slot>> slots_;
  std::size_t mask_ = 0;
  std::uint64_t size_ = 0;
  std::vector<std::uint8_t> arena_;
};

}  // namespace tertio::join
