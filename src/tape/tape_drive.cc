#include "tape/tape_drive.h"

#include <cstdlib>

#include "util/string_util.h"

namespace tertio::tape {

Status TapeDrive::CheckLoaded() const {
  if (volume_ == nullptr) {
    return Status::FailedPrecondition(StrFormat("drive %s has no tape loaded", name_.c_str()));
  }
  return Status::OK();
}

SimSeconds TapeDrive::SeekCost(BlockIndex target) {
  if (target == head_) return 0.0;
  ByteCount distance_bytes =
      (target > head_ ? target - head_ : head_ - target) * volume_->block_bytes();
  stats_.locate_count += 1;
  stats_.reposition_count += 1;
  return model_.locate_base_seconds +
         model_.locate_seconds_per_byte * static_cast<double>(distance_bytes.value()) +
         model_.reposition_seconds;
}

Result<sim::Interval> TapeDrive::Load(TapeVolume* volume, SimSeconds ready) {
  if (volume == nullptr) return Status::InvalidArgument("cannot load a null volume");
  volume_ = volume;
  head_ = 0;
  ClearSharedPassWindow();
  ClearCacheWindow();
  stats_.load_count += 1;
  return resource_->Schedule(ready, model_.load_seconds, 0, "tape.load");
}

Result<sim::Interval> TapeDrive::Unload(SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  // Both windows describe ranges of the departing volume; leaving them set
  // would let a later Load of the same cartridge serve stale free/cached
  // reads from a window nobody re-declared.
  ClearSharedPassWindow();
  ClearCacheWindow();
  volume_ = nullptr;
  head_ = 0;
  return resource_->Schedule(ready, model_.load_seconds, 0, "tape.unload");
}

Result<sim::Interval> TapeDrive::Read(BlockIndex start, BlockCount count, SimSeconds ready,
                                      std::vector<BlockPayload>* out) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  TERTIO_ASSIGN_OR_RETURN(double mean_c, volume_->MeanCompressibility(start, count));
  if (InSharedPassWindow(start, count)) {
    // The requested range is covered by another query's in-flight sequential
    // pass: multicast its data instead of re-reading the tape. No head
    // motion, no drive occupancy, no fault draw — the physical pass already
    // paid (and drew) for these blocks.
    if (out != nullptr) {
      out->reserve(out->size() + count.value());
      for (BlockIndex i = start; i < start + count; ++i) {
        TERTIO_ASSIGN_OR_RETURN(BlockPayload payload, volume_->ReadBlock(i));
        out->push_back(std::move(payload));
      }
    }
    stats_.blocks_shared += count;
    return sim::Interval::At(ready);
  }
  if (InCacheWindow(start, count)) {
    // The range is resident in the cross-query extent cache: the disk copy
    // serves it at disk cost while the drive stays parked — no head motion,
    // no drive occupancy, no fault draw. Payloads still come from the
    // volume's block store, so data delivered through the cache is
    // bit-identical to a physical read.
    if (out != nullptr) {
      out->reserve(out->size() + count.value());
      for (BlockIndex i = start; i < start + count; ++i) {
        TERTIO_ASSIGN_OR_RETURN(BlockPayload payload, volume_->ReadBlock(i));
        out->push_back(std::move(payload));
      }
    }
    stats_.blocks_cached += count;
    return cache_reader_(start, count, ready);
  }
  if (faults_ != nullptr && faults_->enabled()) {
    sim::FaultInjector::ReadOutcome outcome =
        faults_->SimulateRead(start, count, model_.TransferSeconds(volume_->block_bytes(), mean_c),
                              model_.reposition_seconds);
    if (!outcome.completed) {
      // Unrecoverable media error: charge the seek, the blocks streamed
      // before the fault, and the recovery time burned retrying; deliver
      // nothing and leave the head at the failed position. A chunk-level
      // retry (pipeline) will reposition and re-read from `start`.
      ByteCount clean_bytes = outcome.clean_blocks * volume_->block_bytes();
      SimSeconds wasted = SeekCost(start) + model_.TransferSeconds(clean_bytes, mean_c) +
                          outcome.recovery_seconds;
      head_ = outcome.failed_block;
      stats_.blocks_read += outcome.clean_blocks;
      resource_->Schedule(ready, wasted, clean_bytes, "tape.read-failed");
      return Status::DeviceError(
          StrFormat("drive %s: unrecoverable read error at block %llu", name_.c_str(),
                    static_cast<unsigned long long>(outcome.failed_block.value())));
    }
    SimSeconds duration = SeekCost(start);
    ByteCount bytes = count * volume_->block_bytes();
    duration += model_.TransferSeconds(bytes, mean_c) + outcome.recovery_seconds;
    if (out != nullptr) {
      out->reserve(out->size() + count.value());
      for (BlockIndex i = start; i < start + count; ++i) {
        TERTIO_ASSIGN_OR_RETURN(BlockPayload payload, volume_->ReadBlock(i));
        out->push_back(std::move(payload));
      }
    }
    head_ = start + count;
    stats_.blocks_read += count;
    return resource_->Schedule(ready, duration, bytes, "tape.read");
  }
  SimSeconds duration = SeekCost(start);
  ByteCount bytes = count * volume_->block_bytes();
  duration += model_.TransferSeconds(bytes, mean_c);
  if (out != nullptr) {
    out->reserve(out->size() + count.value());
    for (BlockIndex i = start; i < start + count; ++i) {
      TERTIO_ASSIGN_OR_RETURN(BlockPayload payload, volume_->ReadBlock(i));
      out->push_back(std::move(payload));
    }
  }
  head_ = start + count;
  stats_.blocks_read += count;
  return resource_->Schedule(ready, duration, bytes, "tape.read");
}

Result<sim::Interval> TapeDrive::Append(const std::vector<BlockPayload>& payloads,
                                        double compressibility, SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  BlockIndex end = ToIndex(volume_->size_blocks());
  SimSeconds duration = SeekCost(end);
  for (const BlockPayload& payload : payloads) {
    TERTIO_RETURN_IF_ERROR(volume_->Append(payload, compressibility));
  }
  ByteCount bytes = payloads.size() * volume_->block_bytes();
  duration += model_.TransferSeconds(bytes, compressibility);
  head_ = ToIndex(volume_->size_blocks());
  stats_.blocks_written += payloads.size();
  return resource_->Schedule(ready, duration, bytes, "tape.write");
}

Result<sim::Interval> TapeDrive::AppendPhantom(BlockCount count, double compressibility,
                                               SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  BlockIndex end = ToIndex(volume_->size_blocks());
  SimSeconds duration = SeekCost(end);
  TERTIO_RETURN_IF_ERROR(volume_->AppendPhantom(count, compressibility));
  ByteCount bytes = count * volume_->block_bytes();
  duration += model_.TransferSeconds(bytes, compressibility);
  head_ = ToIndex(volume_->size_blocks());
  stats_.blocks_written += count;
  return resource_->Schedule(ready, duration, bytes, "tape.write");
}

Result<sim::Interval> TapeDrive::Locate(BlockIndex target, SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  if (target > volume_->size_blocks()) {
    return Status::InvalidArgument("locate target beyond end of data");
  }
  SimSeconds duration = SeekCost(target);
  head_ = target;
  return resource_->Schedule(ready, duration, 0, "tape.locate");
}

Result<sim::Interval> TapeDrive::Rewind(SimSeconds ready) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  head_ = 0;
  stats_.rewind_count += 1;
  return resource_->Schedule(ready, model_.rewind_seconds, 0, "tape.rewind");
}

Result<sim::Interval> TapeDrive::ReadReverse(BlockCount count, SimSeconds ready,
                                             std::vector<BlockPayload>* out) {
  TERTIO_RETURN_IF_ERROR(CheckLoaded());
  if (!model_.supports_read_reverse) {
    return Status::Unimplemented(
        StrFormat("drive %s does not implement READ REVERSE", name_.c_str()));
  }
  if (count > head_) {
    return Status::InvalidArgument("read-reverse would cross beginning-of-tape");
  }
  BlockIndex start = head_ - count;
  TERTIO_ASSIGN_OR_RETURN(double mean_c, volume_->MeanCompressibility(start, count));
  ByteCount bytes = count * volume_->block_bytes();
  SimSeconds duration = model_.TransferSeconds(bytes, mean_c);
  if (out != nullptr) {
    for (BlockIndex i = head_; i-- > start;) {
      TERTIO_ASSIGN_OR_RETURN(BlockPayload payload, volume_->ReadBlock(i));
      out->push_back(std::move(payload));
    }
  }
  head_ = start;
  stats_.blocks_read += count;
  return resource_->Schedule(ready, duration, bytes, "tape.read-reverse");
}

Result<sim::StageId> TapeDrive::IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                          std::span<const sim::StageId> deps, BlockIndex start,
                                          BlockCount count, std::vector<BlockPayload>* out,
                                          int retry_limit) {
  ByteCount bytes = volume_ != nullptr ? count * volume_->block_bytes() : 0;
  return pipe.StageWithRetry(
      phase, name_, deps, count, bytes,
      [&](SimSeconds ready) { return Read(start, count, ready, out); }, retry_limit);
}

}  // namespace tertio::tape
