#pragma once

/// \file block.h
/// Fixed-size block codec: packing records into BlockPayloads and back.
///
/// Layout: a small header (magic + record count) followed by densely packed
/// fixed-width records. Blocks are the unit of all simulated I/O; the codec
/// is the boundary between the storage substrates (which move opaque
/// payloads) and the relational layer (which sees tuples).

#include <cstdint>
#include <span>
#include <vector>

#include "relation/schema.h"
#include "util/block_payload.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::rel {

inline constexpr ByteCount kBlockHeaderBytes = 8;
inline constexpr uint32_t kBlockMagic = 0x74424C4B;  // "tBLK"

/// Accumulates records and emits full blocks.
class BlockBuilder {
 public:
  BlockBuilder(const Schema* schema, ByteCount block_bytes);

  /// True if no record has been appended since the last Finish().
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t record_count() const { return count_; }

  /// Appends one record (must be exactly schema->record_bytes() long).
  Status Append(std::span<const uint8_t> record);

  /// Emits the current (possibly partial) block and resets. The emitted
  /// block is always block_bytes long (zero-padded).
  BlockPayload Finish();

 private:
  const Schema* schema_;
  ByteCount block_bytes_;
  std::uint64_t capacity_;
  std::uint64_t count_ = 0;
  std::vector<uint8_t> buffer_;
};

/// Decodes records from one block payload.
class BlockReader {
 public:
  /// The payload must have been produced by BlockBuilder with `schema`.
  static Result<BlockReader> Open(const BlockPayload& payload, const Schema* schema);

  std::uint64_t record_count() const { return count_; }

  /// Raw bytes of record `i`: records are packed at a fixed stride, so this
  /// is one multiply-add, inlined into the per-record join loops.
  std::span<const uint8_t> record(std::uint64_t i) const {
    TERTIO_CHECK(i < count_, "record index out of range");
    return std::span<const uint8_t>(records_ + i * stride_, stride_);
  }

 private:
  BlockReader(BlockPayload payload, const uint8_t* records, std::size_t stride,
              std::uint64_t count)
      : payload_(std::move(payload)),
        records_(records),
        stride_(stride),
        count_(count) {}

  BlockPayload payload_;
  const uint8_t* records_;  // first record, just past the header
  std::size_t stride_;  // record size: records are packed back-to-back
  std::uint64_t count_;
};

}  // namespace tertio::rel
