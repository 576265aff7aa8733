#pragma once

/// \file workload.h
/// The interface every benchmark workload implements, and the simulated
/// per-layer counts they fill.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "join/join_spec.h"

namespace perfbench {

/// Simulated per-layer counts of one pass. Every field is a simulated
/// quantity, so two passes of one seed must agree exactly.
struct SimCounts {
  std::uint64_t output_tuples = 0;
  std::uint64_t stages = 0;
  std::uint64_t tape_blocks_read = 0;
  std::uint64_t tape_blocks_written = 0;
  std::uint64_t tape_blocks_shared = 0;
  std::uint64_t tape_blocks_cached = 0;
  std::uint64_t robot_exchanges = 0;
  double tape_busy_s = 0.0;
  std::uint64_t disk_blocks_read = 0;
  std::uint64_t disk_blocks_written = 0;
  std::uint64_t disk_requests = 0;
  double disk_busy_s = 0.0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t mem_peak_blocks = 0;
  std::uint64_t hash_iterations = 0;
  std::uint64_t hash_r_scans = 0;
  std::uint64_t hash_overflow_slices = 0;
  std::uint64_t shared_queries = 0;
  std::uint64_t cached_queries = 0;
  std::uint64_t peak_in_flight = 0;
  std::uint64_t queue_depth_peak = 0;
  double queue_wait_p50_s = 0.0;
  double queue_wait_p99_s = 0.0;

  /// Adds one join's counters (device busy time is not in JoinStats).
  void AddJoin(const tertio::join::JoinStats& stats);
  /// Adds the busy seconds of every tape drive and disk of `sim`.
  void AddDeviceBusy(const tertio::sim::Simulation& sim);
  /// Adds a successful single-machine join, device busy time included.
  void AddRun(const JoinRun& run);
};

/// One measured pass over a workload's inputs.
struct Pass {
  /// Host seconds of each timed unit of the pass (one join, or one service
  /// rate), in the same order every pass: constructing sites/machines and
  /// generating relations...
  std::vector<double> setup_s;
  /// ...and inside the measured library calls: JoinMethod::Execute, or the
  /// advisor, Submit and Run of the service. Output checks are excluded.
  std::vector<double> exec_s;
  /// Gigabytes of S joined.
  double s_gb = 0.0;
  /// Digest over every simulated output of the pass.
  std::uint64_t digest = 0;
  /// Operations attempted / failed in the pass.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Tuples generated in setup (phantom tuples included).
  std::uint64_t tuples_generated = 0;
  /// Completed queries (service) or joins.
  std::uint64_t completed = 0;
  SimCounts counts;
  /// Output-check failures found in the pass; empty when every check held.
  std::vector<std::string> errors;

  /// Books one single-machine join: its host times, the attempt, and either
  /// the failure or its S bytes, simulated counts and digest. A join the
  /// method's Requirements() refused counts only its setup time. \returns
  /// true when the join ran and succeeded.
  bool AddJoinRun(const JoinRun& run, Digest* digest);
};

/// A benchmark workload. Prepare() draws the inputs from the seed before any
/// timing; RunPass() executes one full pass and is called repeatedly for the
/// run's duration. Every pass of one seed must produce the same digest.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual Status Prepare() = 0;
  virtual Result<Pass> RunPass(Tracer* tracer) = 0;

  /// Simulated end-to-end metrics of the last pass (resp_*, makespan_s,
  /// max_rate_qph, model_err_*, advisor_vs_best_max_pct, table3_err_pct).
  virtual std::vector<Metric> SimulatedMetrics() const = 0;

  /// Direct FlatJoinTable build/probe cost on the workload's own blocks,
  /// ns per tuple; zero on phantom workloads.
  virtual double TableBuildNsPerTuple() const { return 0.0; }
  virtual double TableProbeNsPerTuple() const { return 0.0; }

  /// Human-readable summary lines (sample counts, the rates swept, ...).
  virtual std::vector<std::string> Notes() const = 0;
};

std::unique_ptr<Workload> MakePaperGrid(std::uint64_t seed);
std::unique_ptr<Workload> MakeArchiveService(std::uint64_t seed);
/// `selective`: S keys uniform over ~30x the R key domain instead of foreign
/// keys into R.
std::unique_ptr<Workload> MakeVerified(std::uint64_t seed, bool selective);

}  // namespace perfbench
