#include "sim/pipeline.h"

#include <algorithm>
#include <utility>

#include "sim/auditor.h"

namespace tertio::sim {

std::size_t SpanTrace::PhaseIndex(std::string_view phase, std::string_view device,
                                  Interval interval) {
  if (!phases_.empty()) {
    if (phases_[recent_[0]].phase == phase) return recent_[0];
    if (phases_[recent_[1]].phase == phase) {
      std::swap(recent_[0], recent_[1]);
      return recent_[0];
    }
  }
  auto pos = std::lower_bound(
      by_phase_.begin(), by_phase_.end(), phase,
      [this](std::uint32_t index, std::string_view label) { return phases_[index].phase < label; });
  std::uint32_t index;
  if (pos != by_phase_.end() && phases_[*pos].phase == phase) {
    index = *pos;
  } else {
    PhaseSummary summary;
    summary.phase = std::string(phase);
    summary.device = std::string(device);
    summary.window = interval;
    phases_.push_back(std::move(summary));
    index = static_cast<std::uint32_t>(phases_.size() - 1);
    by_phase_.insert(pos, index);
  }
  recent_[1] = recent_[0];
  recent_[0] = index;
  return index;
}

void SpanTrace::Record(std::string_view phase, std::string_view device, BlockCount blocks,
                       ByteCount bytes, Interval interval) {
  if (retain_) {
    spans_.push_back(Span{std::string(phase), std::string(device), blocks, bytes, interval});
  }
  PhaseSummary& summary = phases_[PhaseIndex(phase, device, interval)];
  if (summary.device != device) summary.device = "";
  summary.stage_count += 1;
  summary.blocks += blocks;
  summary.bytes += bytes;
  summary.busy_seconds += interval.duration();
  summary.window = Interval::Hull(summary.window, interval);
  window_ = has_window_ ? Interval::Hull(window_, interval) : interval;
  has_window_ = true;
}

void SpanTrace::Clear() {
  spans_.clear();
  phases_.clear();
  by_phase_.clear();
  recent_[0] = recent_[1] = 0;
  window_ = Interval{};
  has_window_ = false;
}

SimSeconds Pipeline::ReadyAfter(std::span<const StageId> deps) const {
  SimSeconds ready = start_;
  for (StageId dep : deps) {
    if (dep == kNoStage) continue;
    TERTIO_CHECK(dep < intervals_.size(), "pipeline stage depends on an undispatched stage");
    if (intervals_[dep].end > ready) ready = intervals_[dep].end;
  }
  return ready;
}

StageId Pipeline::Commit(std::string_view phase, std::string_view device, BlockCount blocks,
                         ByteCount bytes, SimSeconds ready, Interval interval) {
  intervals_.push_back(interval);
  if (!any_stage_ || interval.end > horizon_) horizon_ = std::max(horizon_, interval.end);
  any_stage_ = true;
  if (trace_ != nullptr) trace_->Record(phase, device, blocks, bytes, interval);
  if (auditor_ != nullptr) auditor_->OnStage(phase, device, start_, ready, interval);
  return intervals_.size() - 1;
}

Result<StageId> Pipeline::Stage(std::string_view phase, std::string_view device,
                                std::span<const StageId> deps, BlockCount blocks,
                                ByteCount bytes, StageOp op) {
  SimSeconds ready = ReadyAfter(deps);
  TERTIO_ASSIGN_OR_RETURN(Interval interval, op(ready));
  return Commit(phase, device, blocks, bytes, ready, interval);
}

Result<StageId> Pipeline::StageWithRetry(std::string_view phase, std::string_view device,
                                         std::span<const StageId> deps, BlockCount blocks,
                                         ByteCount bytes, StageOp op, int retry_limit) {
  int attempts = 0;
  for (;;) {
    Result<StageId> stage = Stage(phase, device, deps, blocks, bytes, op);
    if (stage.ok()) return stage;
    // The device model has already charged the failed attempt's time; a
    // kDeviceError is retryable in place. Anything else propagates.
    if (stage.status().code() != StatusCode::kDeviceError || attempts >= retry_limit) {
      return stage;
    }
    ++attempts;
    ++chunk_retries_;
    if (trace_ != nullptr) {
      trace_->Record("recovery:chunk-retry", device, blocks, 0, Interval::At(ReadyAfter(deps)));
    }
  }
}

StageId Pipeline::Event(std::string_view phase, SimSeconds when) {
  SimSeconds at = std::max(start_, when);
  return Commit(phase, "", 0, 0, at, Interval::At(at));
}

StageId Pipeline::Barrier(std::string_view phase, std::span<const StageId> deps) {
  SimSeconds at = ReadyAfter(deps);
  return Commit(phase, "", 0, 0, at, Interval::At(at));
}

Result<Pipeline::TransferResult> Pipeline::Transfer(const TransferPlan& plan,
                                                    BlockSource& source, BlockSink& sink,
                                                    std::span<const StageId> deps) {
  BlockCount chunk = plan.chunk == 0 ? 1 : plan.chunk;
  TransferResult result;
  result.source_done = ReadyAfter(deps);
  result.done = result.source_done;
  std::vector<StageId> read_deps(deps.begin(), deps.end());
  read_deps.push_back(kNoStage);  // slot for the chaining dependency
  // A resumed transfer (checkpoint from an earlier failed attempt) skips
  // chunks that already completed both their read and their write.
  const BlockCount resume_at = plan.checkpoint != nullptr ? plan.checkpoint->completed_blocks : 0;
  // SimSan conservation ledger: every block handed to the source is either
  // sunk (read and write both committed) or dropped to a chunk retry.
  BlockCount issued_blocks = 0;
  BlockCount sunk_blocks = 0;
  BlockCount dropped_blocks = 0;
  // One payload buffer serves every chunk: cleared per attempt, so its
  // capacity is reused instead of reallocated per chunk.
  std::vector<BlockPayload> payloads;
  std::vector<BlockPayload>* moved = plan.move_payloads ? &payloads : nullptr;
  const std::string_view source_device = source.device();
  const std::string_view sink_device = sink.device();
  for (BlockCount offset = resume_at; offset < plan.total; offset += chunk) {
    BlockCount take = std::min<BlockCount>(chunk, plan.total - offset);
    // Streaming: chunk i+1's read follows read i. Lock-step: it waits for
    // write i (the paper's sequential single-process structure).
    read_deps.back() = plan.streaming ? result.last_read : result.last_write;
    auto read_op = [&](SimSeconds ready) { return source.Read(offset, take, ready, moved); };
    auto write_op = [&](SimSeconds ready) { return sink.Write(offset, take, ready, moved); };
    int attempts = 0;
    for (;;) {
      payloads.clear();
      issued_blocks += take;
      Result<StageId> read = Stage(plan.read_phase, source_device,
                                   std::span<const StageId>(read_deps), take, 0, read_op);
      Status failure;
      if (read.ok()) {
        Result<StageId> write = Stage(plan.write_phase, sink_device, {*read}, take, 0, write_op);
        if (write.ok()) {
          sunk_blocks += take;
          if (result.first_read == kNoStage) result.first_read = *read;
          result.last_read = *read;
          result.last_write = *write;
          result.source_done = end(*read);
          result.done = std::max(result.done, std::max(end(*read), end(*write)));
          break;
        }
        failure = write.status();
      } else {
        failure = read.status();
      }
      // The device model has already charged the failed attempt's time.
      // A kDeviceError is retryable at chunk granularity: re-issue this
      // chunk's read and write (a failed-mid-chunk read delivered nothing,
      // so the re-read produces the full chunk). Anything else propagates.
      if (failure.code() != StatusCode::kDeviceError || attempts >= plan.chunk_retry_limit) {
        return failure;
      }
      ++attempts;
      ++chunk_retries_;
      dropped_blocks += take;
      if (plan.checkpoint != nullptr) ++plan.checkpoint->chunk_retries;
      // Surface the recovery in the span trace (a marker, not a stage: the
      // failed attempt's device time is inside the device's own timeline).
      if (trace_ != nullptr) {
        trace_->Record("recovery:chunk-retry", source_device, take, 0,
                       Interval::At(ReadyAfter(std::span<const StageId>(read_deps))));
      }
    }
    if (plan.checkpoint != nullptr) plan.checkpoint->completed_blocks = offset + take;
  }
  // Conservation is audited only for transfers that ran to completion; an
  // aborted transfer returns above with its checkpoint mid-stream.
  if (auditor_ != nullptr) {
    BlockCount expected = plan.total > resume_at ? plan.total - resume_at : 0;
    auditor_->OnTransferEnd(plan.read_phase, expected, sunk_blocks, issued_blocks,
                            dropped_blocks);
  }
  return result;
}

Result<Interval> CollectSink::Write(BlockCount offset, BlockCount count, SimSeconds ready,
                                    std::vector<BlockPayload>* payloads) {
  (void)offset;
  (void)count;
  if (out_ != nullptr && payloads != nullptr) {
    out_->insert(out_->end(), payloads->begin(), payloads->end());
  }
  return Interval::At(ready);
}

}  // namespace tertio::sim
