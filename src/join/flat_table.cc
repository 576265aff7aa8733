#include "join/flat_table.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>

#include "join/simd.h"
#include "relation/block.h"
#include "relation/tuple.h"

namespace tertio::join {
namespace {

/// Slots ahead of the current record whose cache lines are prefetched
/// (the build's lookahead ring, and the probe's second pipeline stage:
/// filter test + conditional slot prefetch).
constexpr std::size_t kPrefetchDistance = 8;

/// First pipeline stage of the probe: records are digested this far
/// ahead and their Bloom filter word is prefetched. The filter is a few
/// percent of the table and mostly cache-resident, so a short extra lead
/// over kPrefetchDistance is enough to have the word loaded by test time.
constexpr std::size_t kFilterDistance = 16;
static_assert(kFilterDistance >= kPrefetchDistance,
              "the filter stage must run ahead of the filter test");

inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

inline void PrefetchWrite(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/1);
#else
  (void)p;
#endif
}

/// The int64 join key at `key_offset` of one record. The loops below hoist
/// the offset out of the record loop instead of resolving the column
/// through the schema per record.
inline std::int64_t KeyAt(std::span<const std::uint8_t> record, std::size_t key_offset) {
  std::int64_t key;
  std::memcpy(&key, record.data() + key_offset, sizeof(key));
  return key;
}

}  // namespace

void FlatJoinTable::Rehash(std::size_t new_capacity) {
  std::vector<Slot, util::HugePageAllocator<Slot>> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  mask_ = new_capacity - 1;
  bloom_.assign(new_capacity / 8, 0);
  bloom_mask_ = new_capacity / 8 - 1;
  for (const Slot& slot : old) {
    if (slot.digest != 0) InsertSlot(slot);
  }
}

void FlatJoinTable::InsertSlot(const Slot& slot) {
  std::size_t idx = static_cast<std::size_t>(slot.digest) & mask_;
  while (slots_[idx].digest != 0) {
    idx = (idx + 1) & mask_;
  }
  slots_[idx] = slot;
  BloomAdd(slot.digest);
}

void FlatJoinTable::Reserve(std::uint64_t entries) {
  // Max load factor 0.7: capacity is the next power of two above
  // entries / 0.7, never below 16.
  std::size_t capacity = slots_.empty() ? 16 : slots_.size();
  while (static_cast<double>(entries) > 0.7 * static_cast<double>(capacity)) {
    capacity *= 2;
  }
  if (capacity != slots_.size()) Rehash(capacity);
}

void FlatJoinTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  std::fill(bloom_.begin(), bloom_.end(), 0);
  size_ = 0;
  arena_.clear();
}

Status FlatJoinTable::AddBlocks(std::span<const BlockPayload> blocks) {
  static_assert(sizeof(Slot) == 4 * sizeof(std::uint64_t), "group compares assume 32-byte slots");
  static_assert(offsetof(Slot, digest) == 0, "group compares read word 0 as the digest");
  // One reservation for the whole batch (block headers are cheap to parse
  // twice): no rehash can happen mid-insert, so the word view and the
  // prefetched lines below stay valid, and a chunk-sized batch grows the
  // slot array once instead of once per doubling.
  std::uint64_t incoming = 0;
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, build_schema_));
    incoming += reader.record_count();
  }
  Reserve(size_ + incoming);
  constexpr std::size_t kStride = sizeof(Slot) / sizeof(std::uint64_t);
  const std::uint64_t* slot_words = reinterpret_cast<const std::uint64_t*>(slots_.data());
  const std::size_t capacity = slots_.size();
  const std::size_t key_offset = build_schema_->offset(build_key_);
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, build_schema_));
    const std::uint64_t n = reader.record_count();
    if (n == 0) continue;
    // Paced prefetch ring: digests run kPrefetchDistance records ahead of
    // the inserts, one prefetch issued per record (which keeps the miss
    // queue from overflowing, as a burst of a whole batch's prefetches does
    // not); the insert scan itself runs the group-of-four empty-slot search.
    std::uint64_t digests[kPrefetchDistance];
    std::int64_t keys[kPrefetchDistance];
    auto stage = [&](BlockCount j) {
      const std::int64_t key = KeyAt(reader.record(j.value()), key_offset);
      const std::uint64_t digest = DigestOf(key);
      keys[(j % kPrefetchDistance).value()] = key;
      digests[(j % kPrefetchDistance).value()] = digest;
      PrefetchWrite(&slots_[static_cast<std::size_t>(digest) & mask_]);
    };
    const std::uint64_t lead = std::min<std::uint64_t>(n, kPrefetchDistance);
    for (BlockCount j = 0; j < lead; ++j) stage(j);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Read the current record's ring entries before the lookahead below
      // reuses the same ring position (i + D ≡ i mod D).
      Slot slot;
      slot.digest = digests[i % kPrefetchDistance];
      slot.key = keys[i % kPrefetchDistance];
      if (i + kPrefetchDistance < n) stage(i + kPrefetchDistance);
      const std::span<const std::uint8_t> bytes = reader.record(i);
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
      BloomAdd(slot.digest);
      // Empty-slot scan: the home slot is free for most inserts below the
      // 0.7 load ceiling, so test it with one scalar load and fall back to
      // group-of-four scans only when a cluster has to be crossed. The
      // first empty slot found is the one InsertSlot's per-slot walk (the
      // Rehash path) lands on, so placement does not depend on which path
      // inserted a slot.
      std::size_t idx = static_cast<std::size_t>(slot.digest) & mask_;
      if (slots_[idx].digest == 0) {
        slots_[idx] = slot;
        ++size_;
        continue;
      }
      idx = (idx + 1) & mask_;
      for (;;) {
        if (idx + 4 <= capacity) {
          const simd::Group4 g =
              simd::CompareDigests4(slot_words + idx * kStride, kStride, slot.digest);
          if (g.empty_mask != 0) {
            slots_[idx + static_cast<std::size_t>(std::countr_zero(g.empty_mask))] = slot;
            break;
          }
          idx += 4;
          if (idx == capacity) idx = 0;
        } else {
          // Group would run past the array end: scalar-step across the wrap.
          if (slots_[idx].digest == 0) {
            slots_[idx] = slot;
            break;
          }
          idx = (idx + 1) & mask_;
        }
      }
      ++size_;
    }
  }
  return Status::OK();
}

Status FlatJoinTable::Probe(std::span<const BlockPayload> blocks,
                            const rel::Schema* probe_schema, std::size_t probe_key_column,
                            JoinOutput* out) const {
  if (size_ == 0) return Status::OK();
  const bool pipeline = capture_records_ && out->has_sink();
  constexpr std::size_t kStride = sizeof(Slot) / sizeof(std::uint64_t);
  const std::uint64_t* slot_words = reinterpret_cast<const std::uint64_t*>(slots_.data());
  const std::size_t capacity = slots_.size();
  const std::size_t key_offset = probe_schema->offset(probe_key_column);
  for (const BlockPayload& payload : blocks) {
    TERTIO_ASSIGN_OR_RETURN(rel::BlockReader reader,
                            rel::BlockReader::Open(payload, probe_schema));
    const std::uint64_t n = reader.record_count();
    if (n == 0) continue;
    // Two-stage software pipeline. Stage one (kFilterDistance ahead):
    // digest the record and prefetch its Bloom filter word. Stage two
    // (kPrefetchDistance ahead): test the filter — the word has had half a
    // ring of lead time to arrive — and prefetch the slot line only for
    // digests that may be present. By the time a surviving record is
    // processed its slot line has been in flight for kPrefetchDistance
    // records; rejected records skip the slot array entirely.
    std::uint64_t digests[kFilterDistance];
    std::int64_t keys[kFilterDistance];
    bool may_match[kPrefetchDistance];
    auto stage_digest = [&](BlockCount j) {
      const std::int64_t key = KeyAt(reader.record(j.value()), key_offset);
      const std::uint64_t digest = DigestOf(key);
      keys[(j % kFilterDistance).value()] = key;
      digests[(j % kFilterDistance).value()] = digest;
      PrefetchRead(&bloom_[BloomWordOf(digest)]);
    };
    auto stage_filter = [&](BlockCount j) {
      const std::uint64_t digest = digests[(j % kFilterDistance).value()];
      const bool may = BloomMayContain(digest);
      may_match[(j % kPrefetchDistance).value()] = may;
      if (may) PrefetchRead(&slots_[static_cast<std::size_t>(digest) & mask_]);
    };
    const std::uint64_t lead_digest = std::min<std::uint64_t>(n, kFilterDistance);
    for (BlockCount j = 0; j < lead_digest; ++j) stage_digest(j);
    const std::uint64_t lead_filter = std::min<std::uint64_t>(n, kPrefetchDistance);
    for (BlockCount j = 0; j < lead_filter; ++j) stage_filter(j);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Read the current record's ring entries before the stage calls below
      // reuse the same ring positions (i + D ≡ i mod D).
      const std::uint64_t digest = digests[i % kFilterDistance];
      const std::int64_t key = keys[i % kFilterDistance];
      const bool walk = may_match[i % kPrefetchDistance];
      if (i + kFilterDistance < n) stage_digest(i + kFilterDistance);
      if (i + kPrefetchDistance < n) stage_filter(i + kPrefetchDistance);
      if (!walk) continue;
      rel::Tuple tuple(reader.record(i), probe_schema);
      // The probe record's digest enters the pair checksum; computed lazily
      // on the first match, so unmatched probes never hash their bytes.
      std::uint64_t probe_digest = 0;
      bool have_probe_digest = false;
      auto emit = [&](const Slot& slot) -> Status {
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
          return out->AddMatchWithRows(slot.key, r, s);
        }
        if (build_is_r_) {
          out->AddMatch(slot.key, slot.record_digest, probe_digest);
        } else {
          out->AddMatch(slot.key, probe_digest, slot.record_digest);
        }
        return Status::OK();
      };
      std::size_t idx = static_cast<std::size_t>(digest) & mask_;
      bool open = true;
      while (open) {
        if (idx + 4 <= capacity) {
          const simd::Group4 g =
              simd::CompareDigests4(slot_words + idx * kStride, kStride, digest);
          std::uint32_t matches = g.match_mask;
          if (g.empty_mask != 0) {
            // The chain ends at the first empty slot; digests equal to the
            // probe's beyond it belong to other chains.
            matches &= (1u << std::countr_zero(g.empty_mask)) - 1u;
            open = false;
          }
          while (matches != 0) {
            const Slot& slot =
                slots_[idx + static_cast<std::size_t>(std::countr_zero(matches))];
            matches &= matches - 1;
            // Digest first, key bytes only on digest equality — an
            // (injected) digest collision between unequal keys is
            // rejected here.
            if (slot.key != key) continue;
            TERTIO_RETURN_IF_ERROR(emit(slot));
          }
          if (open) {
            idx += 4;
            if (idx == capacity) idx = 0;
          }
        } else {
          // Group would run past the array end: scalar-step across the wrap.
          const Slot& slot = slots_[idx];
          if (slot.digest == 0) {
            open = false;
          } else {
            if (slot.digest == digest && slot.key == key) {
              TERTIO_RETURN_IF_ERROR(emit(slot));
            }
            idx = (idx + 1) & mask_;
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace tertio::join
