#include "common.h"

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include <sys/resource.h>

#include "exec/experiment.h"
#include "exec/machine.h"
#include "join/join_method.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string_view name, std::uint64_t op)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = std::string(name);
  span.parent = tracer_->open_;
  span.op = op;
  span.iteration = tracer_->iteration_;
  span.start_ns = tracer_->NowNs();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_->NowNs();
  tracer_->open_ = span.parent;
}

double Tracer::TotalSeconds(std::string_view name, int iteration) const {
  std::int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.iteration == iteration && span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Tracer::Count(std::string_view name, int iteration) const {
  std::uint64_t n = 0;
  for (const Span& span : spans_) {
    if (span.iteration == iteration && span.name == name) ++n;
  }
  return n;
}

double Tracer::LayerSelfSeconds(std::string_view layer, int iteration) const {
  // Children never outlive their parent and never overlap each other (one
  // thread), so a span's self time is its duration minus its children's.
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.iteration != iteration) continue;
    std::int64_t duration = span.end_ns - span.start_ns;
    self[i] += duration;
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= duration;
  }
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.iteration != iteration) continue;
    std::string_view name = span.name;
    if (name.size() > layer.size() && name.substr(0, layer.size()) == layer &&
        name[layer.size()] == '.') {
      ns += self[i];
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::RecordPhases(std::uint64_t op, std::string_view label,
                          const tertio::sim::SpanTrace& trace) {
  if (!enabled_) return;
  if (phases_iteration_ < 0) phases_iteration_ = iteration_;
  if (phases_iteration_ != iteration_) return;
  std::string json = "{\"op\": " + std::to_string(op) + ", \"label\": \"" +
                     std::string(label) + "\", \"phases\": [";
  char buf[512];
  bool first = true;
  for (const tertio::sim::PhaseSummary& p : trace.phases()) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"phase\": \"%s\", \"device\": \"%s\", \"stages\": %llu, "
                  "\"blocks\": %llu, \"busy_s\": %.17g, \"start_s\": %.17g, \"end_s\": %.17g}",
                  first ? "" : ", ", p.phase.c_str(), p.device.c_str(),
                  static_cast<unsigned long long>(p.stage_count),
                  static_cast<unsigned long long>(p.blocks.value()), p.busy_seconds.value(),
                  p.window.start.value(), p.window.end.value());
    json += buf;
    first = false;
  }
  phases_.push_back(json + "]}");
}

void Digest::AddJoin(const tertio::join::JoinStats& stats) {
  Add(stats.response_seconds.value());
  Add(stats.step1_seconds.value());
  Add(stats.step2_seconds.value());
  Add(stats.output_tuples);
  Add(stats.output_checksum);
  Add(stats.disk_blocks_read.value());
  Add(stats.disk_blocks_written.value());
  Add(stats.tape_blocks_read.value());
  Add(stats.tape_blocks_written.value());
  Add(stats.tape_blocks_shared.value());
  Add(stats.tape_blocks_cached.value());
  Add(stats.disk_requests);
  Add(stats.r_scans);
  Add(stats.iterations);
  Add(stats.bucket_overflow_slices);
  Add(stats.peak_memory_blocks.value());
  Add(stats.peak_disk_blocks.value());
  Add(stats.robot_exchanges);
  for (const tertio::sim::PhaseSummary& phase : stats.spans.phases()) {
    Add(phase.stage_count);
    Add(phase.blocks.value());
    Add(phase.busy_seconds.value());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double TailQuantile(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n == 0) return 1.0;
  double q = 1.0 - 10.0 / static_cast<double>(n);
  return q >= 0.9 ? q : 1.0;
}

tertio::ByteCount Perturbed(tertio::ByteCount bytes, tertio::Rng* rng) {
  double factor = 0.98 + 0.04 * rng->NextDouble();
  return static_cast<tertio::ByteCount>(static_cast<double>(bytes.value()) * factor);
}

std::string MethodKey(JoinMethodId method) {
  std::string key;
  for (char c : tertio::JoinMethodName(method)) {
    key += (c == '-' || c == '/') ? '_' : static_cast<char>(c - 'A' + 'a');
  }
  return key;
}

namespace {

struct Table3Row {
  std::uint64_t s_mb;
  std::uint64_t r_mb;
  std::uint64_t d_mb;
  /// Relative cost (response / bare read of S and R) the paper measured.
  double paper_rel_cost;
};

constexpr Table3Row kTable3[] = {
    {1000, 500, 100, 7.9},
    {2500, 1250, 250, 7.3},
    {5000, 2500, 500, 6.9},
    {10000, 2500, 500, 6.8},
};

}  // namespace

JoinRun RunJoin(Tracer* tracer, std::uint64_t op, const tertio::exec::MachineConfig& config,
                const tertio::exec::WorkloadConfig& workload, JoinMethodId method,
                const Generator& generate) {
  JoinRun run;
  std::string execute_span = "join.execute." + MethodKey(method);
  Clock::time_point setup_start = Clock::now();
  std::unique_ptr<tertio::exec::Machine> machine;
  {
    Tracer::Scope span(tracer, "exec.site_setup", op);
    machine = std::make_unique<tertio::exec::Machine>(config);
  }
  Result<tertio::exec::PreparedWorkload> prepared = Status::Internal("unset");
  {
    Tracer::Scope span(tracer, "relation.generate", op);
    prepared = generate ? generate(machine.get())
                        : tertio::exec::PrepareWorkload(machine.get(), workload);
  }
  run.setup_s = SecondsSince(setup_start);
  if (!prepared.ok()) {
    run.stats = prepared.status();
    return run;
  }
  run.tuples_generated = prepared->r.tuple_count + prepared->s.tuple_count;
  run.params = tertio::exec::CostParamsFor(*machine, workload);

  tertio::join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  std::unique_ptr<tertio::join::JoinMethod> executor = tertio::join::CreateJoinMethod(method);
  tertio::join::JoinContext ctx = machine->context();
  run.feasible = executor->Requirements(spec, ctx).ok();
  if (!run.feasible) return run;
  Clock::time_point exec_start = Clock::now();
  {
    Tracer::Scope span(tracer, execute_span, op);
    run.stats = executor->Execute(spec, ctx);
  }
  run.exec_s = SecondsSince(exec_start);
  if (run.stats.ok() && tracer != nullptr) {
    tracer->RecordPhases(op, tertio::JoinMethodName(method), run.stats->spans);
  }
  SimCounts busy;
  busy.AddDeviceBusy(machine->sim());
  run.tape_busy_s = busy.tape_busy_s;
  run.disk_busy_s = busy.disk_busy_s;
  return run;
}

Result<Table3Result> RunTable3(Tracer* tracer, std::uint64_t first_op) {
  using tertio::kMB;
  const double kCompressibility = 0.25;
  auto drive = tertio::tape::TapeDriveModel::DLT4000();
  Table3Result result;
  double err_sum = 0.0;
  std::uint64_t op = first_op;
  for (const Table3Row& row : kTable3) {
    tertio::exec::WorkloadConfig workload;
    workload.r_bytes = row.r_mb * kMB;
    workload.s_bytes = row.s_mb * kMB;
    workload.compressibility = kCompressibility;
    workload.phantom = true;
    JoinRun run = RunJoin(tracer, op++,
                          tertio::exec::MachineConfig::PaperTestbed(row.d_mb * kMB, 16 * kMB),
                          workload, JoinMethodId::kCttGh);
    if (!run.stats.ok()) return run.stats.status();
    double bare = (drive.TransferSeconds(workload.s_bytes, kCompressibility) +
                   drive.TransferSeconds(workload.r_bytes, kCompressibility))
                      .value();
    double rel_cost = run.stats->response_seconds.value() / bare;
    err_sum += std::fabs(rel_cost - row.paper_rel_cost) / row.paper_rel_cost * 100.0;
    result.runs.push_back(std::move(run));
  }
  result.err_pct = err_sum / static_cast<double>(result.runs.size());
  return result;
}

void Accuracy::AddEstimate(double estimate_s, double simulated_s) {
  double err = std::fabs(estimate_s - simulated_s) / simulated_s * 100.0;
  err_sum_pct_ += err;
  err_max_pct_ = std::max(err_max_pct_, err);
  ++estimates_;
}

void Accuracy::AddGeometry(const std::vector<std::pair<JoinMethodId, double>>& simulated,
                           JoinMethodId advised) {
  double best = 0.0;
  double advised_s = -1.0;
  for (const auto& [method, seconds] : simulated) {
    if (best == 0.0 || seconds < best) best = seconds;
    if (method == advised) advised_s = seconds;
  }
  if (advised_s < 0.0 || best <= 0.0) {
    ++advisor_misses_;
    return;
  }
  advisor_max_pct_ = std::max(advisor_max_pct_, advised_s / best * 100.0);
}

void AddEstimate(Tracer* tracer, std::uint64_t op, JoinMethodId method,
                 const tertio::cost::CostParams& params, double simulated_s, Accuracy* accuracy) {
  Result<tertio::cost::CostBreakdown> estimate = Status::Internal("unset");
  {
    Tracer::Scope span(tracer, "cost.estimate", op);
    estimate = tertio::cost::Estimate(method, params);
  }
  if (estimate.ok()) accuracy->AddEstimate(estimate->total_seconds.value(), simulated_s);
}

std::vector<Metric> JoinSetMetrics(const std::vector<double>& responses,
                                   const Accuracy& accuracy, double table3_err_pct) {
  double makespan = 0.0;
  for (double r : responses) makespan += r;
  return {
      {"resp_p50_s", Median(responses), "s"},
      {"resp_p99_s", Quantile(responses, TailQuantile(responses.size())), "s"},
      {"makespan_s", makespan, "s"},
      {"max_rate_qph", 3600.0 * static_cast<double>(responses.size()) / makespan, "1/h"},
      {"model_err_mean_pct", accuracy.err_mean_pct(), "%"},
      {"model_err_max_pct", accuracy.err_max_pct(), "%"},
      {"advisor_vs_best_max_pct", accuracy.advisor_vs_best_max_pct(), "%"},
      {"table3_err_pct", table3_err_pct, "%"},
  };
}

double Accuracy::err_mean_pct() const {
  return estimates_ == 0 ? 0.0 : err_sum_pct_ / static_cast<double>(estimates_);
}

void SimCounts::AddJoin(const tertio::join::JoinStats& stats) {
  output_tuples += stats.output_tuples;
  for (const tertio::sim::PhaseSummary& phase : stats.spans.phases()) stages += phase.stage_count;
  tape_blocks_read += stats.tape_blocks_read.value();
  tape_blocks_written += stats.tape_blocks_written.value();
  tape_blocks_shared += stats.tape_blocks_shared.value();
  tape_blocks_cached += stats.tape_blocks_cached.value();
  robot_exchanges += stats.robot_exchanges;
  disk_blocks_read += stats.disk_blocks_read.value();
  disk_blocks_written += stats.disk_blocks_written.value();
  disk_requests += stats.disk_requests;
  mem_peak_blocks = std::max<std::uint64_t>(mem_peak_blocks, stats.peak_memory_blocks.value());
  hash_iterations += stats.iterations;
  hash_r_scans += stats.r_scans;
  hash_overflow_slices += stats.bucket_overflow_slices;
}

void SimCounts::AddDeviceBusy(const tertio::sim::Simulation& sim) {
  for (const auto& resource : sim.resources()) {
    const std::string& name = resource->name();
    double busy = resource->stats().busy_seconds.value();
    if (name.rfind("tape", 0) == 0) tape_busy_s += busy;
    if (name.rfind("disk", 0) == 0) disk_busy_s += busy;
  }
}

void SimCounts::AddRun(const JoinRun& run) {
  AddJoin(*run.stats);
  tape_busy_s += run.tape_busy_s;
  disk_busy_s += run.disk_busy_s;
}

bool Pass::AddJoinRun(const JoinRun& run, Digest* digest) {
  setup_s.push_back(run.setup_s);
  tuples_generated += run.tuples_generated;
  if (!run.feasible) return false;
  ++attempted;
  exec_s.push_back(run.exec_s);
  if (!run.stats.ok()) {
    ++failed;
    errors.push_back("join failed: " + run.stats.status().ToString());
    return false;
  }
  ++completed;
  s_gb += static_cast<double>(run.params.s_blocks.value() * run.params.block_bytes.value()) * 1e-9;
  counts.AddRun(run);
  digest->AddJoin(*run.stats);
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
