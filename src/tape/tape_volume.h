#pragma once

/// \file tape_volume.h
/// The recorded content of one tape cartridge.
///
/// A TapeVolume is an append-only sequence of fixed-size blocks. Each block
/// carries an optional real payload (full-data runs) and the compressibility
/// of its data, which determines the effective transfer rate when the block
/// moves through a compressing drive. Volumes can be truncated back to a
/// logical end-of-data marker, which is how scratch space on the R and S
/// tapes (the paper's T_R and T_S) is reclaimed between experiments.
///
/// Storage is a structure of arrays: one contiguous float per block for the
/// compressibility, and a payload vector that extends only to the last real
/// block. A phantom block (timing-only runs) therefore costs 4 bytes, and a
/// drive costing a multi-block read sums a dense float run.

#include <cstdint>
#include <string>
#include <vector>

#include "util/block_payload.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {
class Auditor;
}

namespace tertio::tape {

/// Content of one cartridge. Thread-compatible, not thread-safe.
class TapeVolume {
 public:
  /// \param name label for diagnostics, e.g. "tape-R".
  /// \param block_bytes size of every block on this volume.
  /// \param capacity_blocks maximum number of blocks (0 = unlimited).
  TapeVolume(std::string name, ByteCount block_bytes, BlockCount capacity_blocks = 0)
      : name_(std::move(name)), block_bytes_(block_bytes), capacity_blocks_(capacity_blocks) {
    TERTIO_CHECK(block_bytes > 0, "block size must be positive");
  }

  const std::string& name() const { return name_; }
  ByteCount block_bytes() const { return block_bytes_; }
  BlockCount capacity_blocks() const { return capacity_blocks_; }
  BlockCount size_blocks() const { return compressibility_.size(); }
  ByteCount size_bytes() const { return size_blocks() * block_bytes_; }

  /// Appends one block with a real payload.
  Status Append(BlockPayload payload, double compressibility);

  /// Appends `count` phantom blocks (timing-only data).
  Status AppendPhantom(BlockCount count, double compressibility);

  /// Payload of block `index` (nullptr for phantom blocks, which includes
  /// every block past the last real one).
  Result<BlockPayload> ReadBlock(BlockIndex index) const;

  /// Compressibility of block `index`.
  Result<double> Compressibility(BlockIndex index) const;

  /// Mean compressibility over [start, start+count) — used by the drive to
  /// cost a multi-block transfer.
  Result<double> MeanCompressibility(BlockIndex start, BlockCount count) const;

  /// Discards all blocks at and after `new_size` (rewriting scratch space).
  Status Truncate(BlockCount new_size);

  /// Registers a SimSan auditor (sim/auditor.h): every append is checked
  /// against the volume capacity — the paper's T_R / T_S scratch bounds for
  /// the R/S tapes. Null detaches.
  void BindAuditor(sim::Auditor* auditor) { auditor_ = auditor; }

 private:
  Status CheckRange(BlockIndex start, BlockCount count) const;

  std::string name_;
  ByteCount block_bytes_;
  BlockCount capacity_blocks_;
  sim::Auditor* auditor_ = nullptr;
  /// One entry per recorded block; its size is the volume's size.
  std::vector<float> compressibility_;
  /// Payloads of blocks [0, payloads_.size()); nullptr = phantom. Never
  /// longer than compressibility_, and ends at or after the last real block.
  std::vector<BlockPayload> payloads_;
};

}  // namespace tertio::tape
