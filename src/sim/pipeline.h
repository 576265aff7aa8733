#pragma once

/// \file pipeline.h
/// The chunked-transfer pipeline engine shared by every join executor.
///
/// Device operations in tertio are state-dependent — a tape read's cost
/// depends on where the head stopped, a disk write's on the extent layout —
/// so executors cannot declare durations ahead of time as a static DAG.
/// Pipeline list-schedules stages instead: they are dispatched eagerly, in
/// insertion order (matching the FIFO device-queue semantics of Resource),
/// and each stage's operation computes its own occupancy interval by
/// charging the device model when dispatched. A stage's ready time is the
/// latest finish of its dependencies — the scheduler derives the overlap
/// structure of the paper's concurrent methods from declared dependencies
/// instead of each executor hand-threading `max()` arithmetic over raw
/// SimSeconds.
///
/// On top of the stage primitive, Transfer() expresses the paper's central
/// I/O idiom — "stream N blocks from device A to device B through a double
/// buffer" (Section 4) — as one declared operation: a BlockSource and a
/// BlockSink are connected chunk by chunk, either lock-step (sequential
/// methods: the producer waits for each consumption) or streaming
/// (concurrent methods: the producer runs ahead, consumption trails).
///
/// Every stage carries a named *span* (phase label, device, block/byte
/// volume, occupancy interval). Spans aggregate into per-phase summaries in
/// a SpanTrace — collected into JoinStats and rendered by exec/report and
/// sim/trace_report — giving a Figure-4-style phase timeline for every
/// method.
///
/// Every simulated block moves through Transfer's per-chunk loop, so a
/// stage's host cost is the simulator's host budget. The loop allocates
/// nothing in steady state: StageOp is a non-owning function reference,
/// one payload buffer serves every chunk, and SpanTrace finds the phase of
/// a read/write alternation without a search (DESIGN.md §5.1).

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/interval.h"
#include "util/block_payload.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {

class Auditor;

using StageId = std::size_t;

/// Sentinel for "no stage" — ignored in dependency lists, so optional
/// dependencies can be threaded without branching.
inline constexpr StageId kNoStage = std::numeric_limits<StageId>::max();

/// One pipeline stage's occupancy of a device, retained when the trace
/// retains spans.
struct Span {
  std::string phase;
  std::string device;
  BlockCount blocks = 0;
  ByteCount bytes = 0;
  Interval interval;
};

/// Aggregate of every span sharing one phase label.
struct PhaseSummary {
  std::string phase;
  std::string device;  // "" when spans of several devices share the phase
  std::uint64_t stage_count = 0;
  BlockCount blocks = 0;
  ByteCount bytes = 0;
  /// Sum of span durations (device busy time attributed to the phase).
  SimSeconds busy_seconds = 0.0;
  /// Hull of the phase's span intervals.
  Interval window;
};

/// Collects the spans of one run. Per-phase summaries are always maintained
/// (bounded by the number of distinct phase labels); individual spans are
/// retained only when set_retain(true) — full traces of paper-scale joins
/// are large.
class SpanTrace {
 public:
  void set_retain(bool retain) { retain_ = retain; }
  bool retain() const { return retain_; }

  void Record(std::string_view phase, std::string_view device, BlockCount blocks,
              ByteCount bytes, Interval interval);

  /// Individual spans (empty unless set_retain(true) before the run).
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-phase aggregates, in order of first appearance.
  const std::vector<PhaseSummary>& phases() const { return phases_; }

  /// Hull of all recorded spans ([0,0] when nothing was recorded).
  Interval window() const { return window_; }

  bool empty() const { return phases_.empty(); }
  void Clear();

 private:
  // Phase lookup first checks the two most recently hit phases (a Transfer
  // alternates between its read and write labels), then a sorted index over
  // phases_ (by label): first-appearance order in phases_ itself is
  // preserved for deterministic reports, while a miss pays O(log phases)
  // instead of a linear scan — hashed containers are banned in src/sim
  // (tertio_lint).
  std::size_t PhaseIndex(std::string_view phase, std::string_view device, Interval interval);

  bool retain_ = false;
  std::vector<Span> spans_;
  std::vector<PhaseSummary> phases_;
  /// Indices into phases_, sorted by phase label (the Record() lookup index).
  std::vector<std::uint32_t> by_phase_;
  /// The last two phases_ indices PhaseIndex returned, most recent first.
  /// They start at 0, a valid index once phases_ is not empty.
  std::uint32_t recent_[2] = {0, 0};
  Interval window_;
  bool has_window_ = false;
};

/// Producer side of a Transfer: a logical sequence of blocks read in chunks.
/// Implementations charge the device model and return the occupied interval
/// (tape::TapeReadSource, disk::ExtentReadSource, ...).
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// Reads blocks [offset, offset+count) of the logical sequence, eligible
  /// at `ready`. When `out` is non-null the payloads are appended (phantom
  /// blocks append nullptr); null means timing-only.
  virtual Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                                std::vector<BlockPayload>* out) = 0;

  /// Device label for spans, e.g. "tapeR", "disks".
  virtual std::string_view device() const = 0;
};

/// Consumer side of a Transfer. `payloads` is null in timing-only runs.
class BlockSink {
 public:
  virtual ~BlockSink() = default;

  virtual Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                                 std::vector<BlockPayload>* payloads) = 0;

  virtual std::string_view device() const = 0;
};

/// The eager stage scheduler. One Pipeline spans one join execution (or one
/// phase of it); its virtual origin is the time the execution became
/// eligible to run.
class Pipeline {
 public:
  /// A stage operation: performs the device work, eligible at `ready`, and
  /// returns the interval it occupied. Non-owning (a function reference: one
  /// object pointer plus one call thunk), so dispatching a stage allocates
  /// nothing; the referenced callable must outlive the Stage() call, which a
  /// lambda passed inline always does.
  class StageOp {
   public:
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, StageOp>>>
    StageOp(F&& op)  // NOLINT(google-explicit-constructor): lambdas pass inline
        : object_(const_cast<void*>(static_cast<const void*>(std::addressof(op)))),
          call_([](void* object, SimSeconds ready) -> Result<Interval> {
            return (*static_cast<std::remove_reference_t<F>*>(object))(ready);
          }) {}

    Result<Interval> operator()(SimSeconds ready) const { return call_(object_, ready); }

   private:
    void* object_;
    Result<Interval> (*call_)(void* object, SimSeconds ready);
  };

  /// \param start virtual time before which no stage may begin.
  /// \param trace optional span collector (spans are dropped when null).
  /// \param auditor optional SimSan observer (sim/auditor.h): every
  ///        committed stage is causality-checked and every completed
  ///        Transfer's block accounting verified. Never alters scheduling.
  explicit Pipeline(SimSeconds start, SpanTrace* trace = nullptr, Auditor* auditor = nullptr)
      : start_(start), trace_(trace), auditor_(auditor) {}

  SimSeconds start() const { return start_; }

  /// Latest finish of `deps` (entries equal to kNoStage are ignored),
  /// floored at start().
  SimSeconds ReadyAfter(std::span<const StageId> deps) const;

  /// Dispatches a stage: runs `op` with ready = ReadyAfter(deps) and records
  /// its span under `phase`.
  Result<StageId> Stage(std::string_view phase, std::string_view device,
                        std::span<const StageId> deps, BlockCount blocks, ByteCount bytes,
                        StageOp op);
  Result<StageId> Stage(std::string_view phase, std::string_view device,
                        std::initializer_list<StageId> deps, BlockCount blocks, ByteCount bytes,
                        StageOp op) {
    return Stage(phase, device, std::span<const StageId>(deps.begin(), deps.size()), blocks,
                 bytes, op);
  }

  /// Stage() with bounded in-place re-attempts after kDeviceError: the
  /// failed attempt's device time is already charged by the device model, so
  /// a retry simply re-runs `op` (which must be re-runnable — device reads
  /// deliver no payloads on failure). Other error codes propagate
  /// immediately. This is the chunk-recovery primitive behind Transfer();
  /// executors issuing bare scan stages use it directly.
  Result<StageId> StageWithRetry(std::string_view phase, std::string_view device,
                                 std::span<const StageId> deps, BlockCount blocks,
                                 ByteCount bytes, StageOp op, int retry_limit);

  /// A zero-duration marker at max(start(), when): lets externally-computed
  /// readiness (a bucket's flush time, buffer-space availability) enter the
  /// dependency graph as a stage.
  StageId Event(std::string_view phase, SimSeconds when);

  /// A zero-duration stage at ReadyAfter(deps) — a named synchronization
  /// point joining several chains.
  StageId Barrier(std::string_view phase, std::span<const StageId> deps);
  StageId Barrier(std::string_view phase, std::initializer_list<StageId> deps) {
    return Barrier(phase, std::span<const StageId>(deps.begin(), deps.size()));
  }

  /// Completion time / occupancy of a dispatched stage.
  SimSeconds end(StageId id) const { return intervals_[id].end; }
  Interval interval(StageId id) const { return intervals_[id]; }

  /// Latest finish over every dispatched stage (start() when none).
  SimSeconds Horizon() const { return horizon_; }

  std::size_t size() const { return intervals_.size(); }

  /// Chunk re-attempts performed by Transfer() across this pipeline's
  /// lifetime (kDeviceError recoveries at transfer granularity).
  std::uint64_t chunk_retries() const { return chunk_retries_; }

  /// Resumable progress of one Transfer. A caller that passes a checkpoint
  /// can re-issue a Transfer that failed with kDeviceError and have it pick
  /// up at the first incomplete chunk instead of re-running the whole pass —
  /// the join-level recovery unit of the fault model (fault.h).
  struct TransferCheckpoint {
    /// Blocks whose read AND write stages completed. A resumed Transfer
    /// starts its chunk loop here.
    BlockCount completed_blocks = 0;
    /// Chunk re-attempts spent so far (in-place retries after kDeviceError).
    std::uint64_t chunk_retries = 0;
  };

  /// One declared chunked transfer from `source` to `sink`.
  struct TransferPlan {
    /// Span labels for the producer/consumer stages.
    std::string_view read_phase;
    std::string_view write_phase;
    /// Blocks to move and the chunk (request) granularity.
    BlockCount total = 0;
    BlockCount chunk = 1;
    /// Streaming (concurrent methods): chunk i+1's read follows read i, the
    /// sink trails behind. Lock-step (sequential methods): chunk i+1's read
    /// waits for write i — the single process of the DT methods.
    bool streaming = false;
    /// Move real payloads from source to sink (false = timing-only).
    bool move_payloads = false;
    /// In-place re-attempts per chunk after a kDeviceError before the error
    /// propagates. The failed attempt's device time is already charged by the
    /// device model; the retry simply re-issues the chunk's read and write.
    /// Other error codes always propagate immediately.
    int chunk_retry_limit = 0;
    /// Optional resume point: when non-null the transfer starts at
    /// `checkpoint->completed_blocks` and keeps the struct current after
    /// every completed chunk, so the caller can re-issue on failure.
    TransferCheckpoint* checkpoint = nullptr;
  };

  struct TransferResult {
    StageId first_read = kNoStage;
    StageId last_read = kNoStage;
    StageId last_write = kNoStage;
    /// Finish of the producer (last read).
    SimSeconds source_done = 0.0;
    /// Finish of the whole transfer (max over reads and writes).
    SimSeconds done = 0.0;
  };

  /// Streams `plan.total` blocks through `plan.chunk`-block requests,
  /// issuing read stages on the source and write stages on the sink with
  /// the dependency structure selected by `plan.streaming`. The first read
  /// additionally waits for `deps`.
  Result<TransferResult> Transfer(const TransferPlan& plan, BlockSource& source,
                                  BlockSink& sink, std::span<const StageId> deps);
  Result<TransferResult> Transfer(const TransferPlan& plan, BlockSource& source,
                                  BlockSink& sink, std::initializer_list<StageId> deps = {}) {
    return Transfer(plan, source, sink, std::span<const StageId>(deps.begin(), deps.size()));
  }

 private:
  StageId Commit(std::string_view phase, std::string_view device, BlockCount blocks,
                 ByteCount bytes, SimSeconds ready, Interval interval);

  SimSeconds start_;
  SpanTrace* trace_;
  Auditor* auditor_ = nullptr;
  std::vector<Interval> intervals_;
  SimSeconds horizon_ = 0.0;
  bool any_stage_ = false;
  std::uint64_t chunk_retries_ = 0;
};

/// A zero-cost sink that collects payloads in memory — the "consumer is the
/// CPU" end of a transfer (building a hash table, probing). Memory transfers
/// are free in the system model (Section 3.2); the sink exists so the
/// transfer's consumption is still a declared, span-carrying stage.
class CollectSink final : public BlockSink {
 public:
  /// \param out destination for payloads; may be null (discard).
  explicit CollectSink(std::vector<BlockPayload>* out, std::string_view device = "mem")
      : out_(out), device_(device) {}

  Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                         std::vector<BlockPayload>* payloads) override;
  std::string_view device() const override { return device_; }

 private:
  std::vector<BlockPayload>* out_;
  std::string device_;
};

}  // namespace tertio::sim
