#pragma once

/// \file join_output.h
/// Join result accumulation, the cross-method result checksum and the record
/// digest (HashBytes) that feeds it.
///
/// The paper assumes query output is pipelined to a consumer and charges no
/// I/O for it (Section 3.2); tertio therefore accumulates a count and an
/// order-independent checksum instead of materializing pairs. Two join
/// methods computed the same join iff their (tuples, checksum) agree — the
/// property the correctness tests assert for all seven methods against the
/// in-memory reference join.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>

#include "relation/tuple.h"
#include "util/rng.h"
#include "util/status.h"

namespace tertio::join {

/// Consumer of joined pairs. The paper's Section 3.2 assumes query output is
/// "pipelined to an unrelated process capable of receiving and processing
/// data at the output rate" — a MatchSink is that process. Pairs arrive in
/// an arbitrary, method-dependent order.
using MatchSink = std::function<Status(const rel::Tuple& r, const rel::Tuple& s)>;

namespace digest_internal {

// xxHash64's primes: odd 64-bit constants with well-mixed bit patterns.
inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t Load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Folds one 8-byte word into an accumulator lane.
inline std::uint64_t Round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

/// Folds a finished lane into the combined state.
inline std::uint64_t MergeLane(std::uint64_t h, std::uint64_t lane) {
  return (h ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace digest_internal

/// 64-bit digest of raw bytes (the record digests entering the pair
/// checksum). The algorithm is xxHash64 with seed 0, written here so the
/// library needs no hashing dependency. Spans of 32 bytes or more run four
/// independent multiply/rotate lanes over 8-byte words, so the per-word
/// multiplies overlap instead of forming one serial chain; the remaining
/// words and the 4-byte and single-byte tail fold in afterwards, reading
/// only bytes inside the span. The length is mixed in before a full-
/// avalanche finalizer. Words are loaded in host byte order: a digest is
/// only ever compared with digests computed by the same process.
inline std::uint64_t HashBytes(std::span<const std::uint8_t> bytes) {
  using namespace digest_internal;
  const std::uint8_t* p = bytes.data();
  std::size_t left = bytes.size();
  std::uint64_t h;
  if (left >= 32) {
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = MergeLane(h, v1);
    h = MergeLane(h, v2);
    h = MergeLane(h, v3);
    h = MergeLane(h, v4);
  } else {
    h = kPrime5;
  }
  h += bytes.size();
  for (; left >= 8; p += 8, left -= 8) {
    h = std::rotl(h ^ Round(0, Load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    h = std::rotl(h ^ (Load32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// Accumulator for joined pairs, with an optional pipelined consumer.
class JoinOutput {
 public:
  /// Records the pair (r_tuple, s_tuple); digests are HashBytes of the full
  /// records. Addition is commutative, so methods may emit pairs in any
  /// order.
  void AddMatch(std::int64_t key, std::uint64_t r_digest, std::uint64_t s_digest) {
    ++tuples_;
    checksum_ += SplitMix64(SplitMix64(static_cast<std::uint64_t>(key)) ^
                            (r_digest * 0x9E3779B97F4A7C15ULL) ^ s_digest);
  }

  /// Records the pair and forwards the full tuples to the sink (if set).
  Status AddMatchWithRows(std::int64_t key, const rel::Tuple& r, const rel::Tuple& s) {
    AddMatch(key, HashBytes(r.bytes()), HashBytes(s.bytes()));
    if (sink_) return sink_(r, s);
    return Status::OK();
  }

  /// Attaches a pipelined consumer; pairs flow to it as they are produced.
  void set_sink(MatchSink sink) { sink_ = std::move(sink); }
  bool has_sink() const { return static_cast<bool>(sink_); }

  std::uint64_t tuples() const { return tuples_; }
  std::uint64_t checksum() const { return checksum_; }

  void MergeFrom(const JoinOutput& other) {
    tuples_ += other.tuples_;
    checksum_ += other.checksum_;
  }

 private:
  std::uint64_t tuples_ = 0;
  std::uint64_t checksum_ = 0;
  MatchSink sink_;
};

}  // namespace tertio::join
