#pragma once

/// \file common.h
/// Shared pieces of the benchmark: host-time spans, metric records, result
/// digests and the small statistics the workloads report.
///
/// Every host time is taken from outside the library, around calls into its
/// public API; simulated quantities are read from JoinStats, SpanTrace
/// phases, ServiceStats and device resource counters.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "cost/method_id.h"
#include "exec/experiment.h"
#include "exec/machine.h"
#include "join/join_spec.h"
#include "sim/pipeline.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

using tertio::JoinMethodId;
using tertio::Result;
using tertio::Status;

/// Host clock of every measurement.
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// In-memory host-time spans. One span per call into a library layer; its
/// name is "<layer>.<call>", `op` groups the spans of one join or query and
/// `parent` is the enclosing span (-1 at top level). Disabled tracers record
/// nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t op = 0;
    int iteration = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_iteration(int iteration) { iteration_ = iteration; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Keeps the simulated per-phase summaries of join `op` (`label` names the
  /// method or query) as one JSON object. Only the first traced pass keeps
  /// them: every pass of a seed simulates the same phases.
  void RecordPhases(std::uint64_t op, std::string_view label,
                    const tertio::sim::SpanTrace& trace);
  const std::vector<std::string>& phases() const { return phases_; }

  /// Sum of the durations of spans named `name` in `iteration`, seconds.
  double TotalSeconds(std::string_view name, int iteration) const;
  /// Number of spans named `name` in `iteration`.
  std::uint64_t Count(std::string_view name, int iteration) const;
  /// Self time of every span of `layer` ("exec", "join", ...) in
  /// `iteration`: each span's duration minus what its child spans cover.
  double LayerSelfSeconds(std::string_view layer, int iteration) const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  bool enabled_ = false;
  int iteration_ = 0;
  int open_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int phases_iteration_ = -1;
  std::vector<std::string> phases_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Order-dependent 64-bit digest of simulated outputs. Doubles enter by
/// their bit pattern, so two digests agree only when every simulated value
/// is bit-identical.
class Digest {
 public:
  void Add(std::uint64_t v) {
    state_ ^= v + 0x9E3779B97F4A7C15ULL + (state_ << 6) + (state_ >> 2);
    state_ *= 0xBF58476D1CE4E5B9ULL;
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  /// Every simulated field of a join: times, block counts, outcome tuples.
  void AddJoin(const tertio::join::JoinStats& stats);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x243F6A8885A308D3ULL;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

/// The tail percentile a sample of `n` supports: 0.99 with n >= 1000,
/// otherwise the highest percentile that leaves at least ten samples beyond
/// it, and the maximum (1.0) when that would fall below p90.
double TailQuantile(std::size_t n);

/// `bytes` scaled by a factor drawn uniformly from [0.98, 1.02].
tertio::ByteCount Perturbed(tertio::ByteCount bytes, tertio::Rng* rng);

/// Lower-case metric-name spelling of a method: "CDT-NB/MB" -> "cdt_nb_mb".
std::string MethodKey(JoinMethodId method);

/// Generates one join's relations onto a fresh machine's tapes and mounts
/// them (exec::PrepareWorkload or a custom key distribution).
using Generator = std::function<Result<tertio::exec::PreparedWorkload>(tertio::exec::Machine*)>;

/// One join on a fresh single-query machine, timed from outside.
struct JoinRun {
  /// False when the method's Requirements() refuse the geometry; the join is
  /// then not attempted.
  bool feasible = false;
  Result<tertio::join::JoinStats> stats = Status::Internal("join not run");
  /// Host seconds: machine construction plus relation generation, and the
  /// Execute call alone.
  double setup_s = 0.0;
  double exec_s = 0.0;
  std::uint64_t tuples_generated = 0;
  /// Simulated busy seconds of the machine's tape drives and disks.
  double tape_busy_s = 0.0;
  double disk_busy_s = 0.0;
  /// Cost-model inputs of this machine and workload.
  tertio::cost::CostParams params;
};

/// Builds a machine, generates the relations (`generate`, or
/// exec::PrepareWorkload when empty), and executes `method` once. Spans:
/// exec.site_setup, relation.generate, join.execute.<method>.
JoinRun RunJoin(Tracer* tracer, std::uint64_t op, const tertio::exec::MachineConfig& machine,
                const tertio::exec::WorkloadConfig& workload, JoinMethodId method,
                const Generator& generate = nullptr);

/// Paper Table 3 (Experiment 1): CTT-GH relative cost against its own
/// geometry, run on fresh phantom machines at the paper's sizes.
struct Table3Result {
  /// Mean |simulated - paper| / paper relative cost over the four rows, %.
  double err_pct = 0.0;
  std::vector<JoinRun> runs;
};
Result<Table3Result> RunTable3(Tracer* tracer, std::uint64_t first_op);

/// Accuracy of the cost model and the advisor over one set of simulated
/// joins. Each Add() is one accepted join; geometries group the joins that
/// ran every feasible method on one configuration.
class Accuracy {
 public:
  /// Records the model's estimate against the simulated response.
  void AddEstimate(double estimate_s, double simulated_s);
  /// Records the simulated responses of every method run on one geometry
  /// and the method the advisor chose there.
  void AddGeometry(const std::vector<std::pair<JoinMethodId, double>>& simulated,
                   JoinMethodId advised);

  double err_mean_pct() const;
  double err_max_pct() const { return err_max_pct_; }
  /// Largest advised/best simulated response over all geometries, %.
  double advisor_vs_best_max_pct() const { return advisor_max_pct_; }
  /// Geometries whose advised method did not run in the simulator.
  std::uint64_t advisor_misses() const { return advisor_misses_; }

 private:
  double err_sum_pct_ = 0.0;
  double err_max_pct_ = 0.0;
  std::uint64_t estimates_ = 0;
  double advisor_max_pct_ = 0.0;
  std::uint64_t advisor_misses_ = 0;
};

/// Estimates `method` under `params` (span cost.estimate) and records the
/// estimate against the simulated response when the model finds the method
/// feasible.
void AddEstimate(Tracer* tracer, std::uint64_t op, JoinMethodId method,
                 const tertio::cost::CostParams& params, double simulated_s, Accuracy* accuracy);

/// The simulated end-to-end metrics of a set of independent single-machine
/// joins: response percentiles over the joins, their back-to-back makespan,
/// the join rate that makespan implies, and the model's accuracy.
std::vector<Metric> JoinSetMetrics(const std::vector<double>& responses,
                                   const Accuracy& accuracy, double table3_err_pct);

/// Peak resident set of this process, MiB.
double PeakRssMb();

}  // namespace perfbench
