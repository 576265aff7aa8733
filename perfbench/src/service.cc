/// \file service.cc
/// archive_service: the multi-query tape service under open-loop Poisson
/// arrivals, timing-only.
///
/// The site has more S cartridges than drives, R spread over several
/// cartridges, elevator robot scheduling with per-slot arm travel, up to
/// four sessions in flight and an extent cache sized for the hottest S
/// relations but not the tail. Each request joins a uniformly drawn R with a
/// Zipf(1)-drawn S under a memory grant drawn from kMemoryGrants, with the
/// method join::AdviseJoinMethod picks for that grant. Requests are drawn
/// from the seed before timing and submitted up front with their due times,
/// so response time counts from when each request was due and the generator
/// is never late. The stream runs at three fixed rates; the middle one is the
/// reference rate of the resp_* and makespan_s metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "exec/query_scheduler.h"
#include "exec/service_workload.h"
#include "exec/site.h"
#include "join/advisor.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using tertio::BlockCount;
using tertio::ByteCount;
using tertio::kMB;

constexpr int kSCartridges = 12;
constexpr int kRRelations = 8;
constexpr int kRCartridges = 4;
constexpr ByteCount kSBytes = 50 * kMB;
constexpr ByteCount kRBytes = 4 * kMB;
constexpr int kMaxInFlight = 4;
/// Memory grants M_q a request may carry; the advisor's choice follows.
constexpr ByteCount kMemoryGrants[] = {1 * kMB, 2 * kMB, 4 * kMB};
/// Disk carve D_q of every session.
constexpr ByteCount kSessionDiskBytes = 16 * kMB;
/// Extent cache: room for the three most popular S relations of twelve.
constexpr int kCachedRelations = 3;
/// Offered rates, queries per simulated hour; the middle one is the
/// reference rate.
constexpr double kRatesQph[] = {12.0, 16.0, 40.0};
constexpr int kReferenceRate = 1;
/// Requests per rate; the reference rate's p99 rests on at least 1000.
constexpr int kQueriesPerRate[] = {400, 4800, 400};
/// The benchmark's latency limit on p99 response, simulated seconds.
constexpr double kLatencyLimitSeconds = 3600.0;

/// One pre-drawn request.
struct Draw {
  double arrival = 0.0;
  int r_index = 0;
  int s_index = 0;
  int grant = 0;
};

/// Zipf(1) over `n` items: item k with weight 1/(k+1).
int ZipfPick(tertio::Rng* rng, int n) {
  double total = 0.0;
  for (int k = 1; k <= n; ++k) total += 1.0 / k;
  double u = rng->NextDouble() * total;
  double acc = 0.0;
  for (int k = 0; k < n; ++k) {
    acc += 1.0 / (k + 1);
    if (u < acc) return k;
  }
  return n - 1;
}

tertio::exec::SiteConfig ServiceSite() {
  tertio::exec::SiteConfig config;
  config.drive_count = 2 * kMaxInFlight;
  config.with_library = true;
  config.library_model.slots = 32;
  config.library_model.travel_seconds_per_slot = 1.0;
  config.memory_bytes = kMaxInFlight * kMemoryGrants[2];
  ByteCount cache_bytes = kCachedRelations * kSBytes;
  config.disk_space_bytes = kMaxInFlight * kSessionDiskBytes + cache_bytes;
  config.cache_blocks = tertio::BytesToBlocks(cache_bytes, config.block_bytes);
  return config;
}

/// Results of one rate's stream.
struct RateResult {
  double rate_qph = 0.0;
  std::vector<double> responses;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double makespan = 0.0;
  /// Simulated seconds between the last arrival and the queue draining.
  double drain = 0.0;
  bool meets_limit = false;
};

class ArchiveService final : public Workload {
 public:
  explicit ArchiveService(std::uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    tertio::Rng rng(seed_);
    for (std::size_t k = 0; k < std::size(kRatesQph); ++k) {
      std::vector<Draw> draws;
      double t = 0.0;
      for (int q = 0; q < kQueriesPerRate[k]; ++q) {
        t += -std::log(1.0 - rng.NextDouble()) * 3600.0 / kRatesQph[k];
        Draw draw;
        draw.arrival = t;
        draw.r_index = static_cast<int>(rng.NextBelow(kRRelations));
        draw.s_index = ZipfPick(&rng, kSCartridges);
        draw.grant = static_cast<int>(rng.NextBelow(std::size(kMemoryGrants)));
        draws.push_back(draw);
      }
      plans_.push_back(std::move(draws));
    }
    TERTIO_ASSIGN_OR_RETURN(Table3Result table3, RunTable3(nullptr, 0));
    table3_err_pct_ = table3.err_pct;
    return MeasureAdvisor();
  }

  Result<Pass> RunPass(Tracer* tracer) override {
    Pass pass;
    Digest digest;
    rates_.clear();
    accuracy_ = Accuracy();
    std::uint64_t op = 0;
    for (std::size_t k = 0; k < plans_.size(); ++k) {
      const bool reference = static_cast<int>(k) == kReferenceRate;
      const std::uint64_t setup_op = op++;
      Clock::time_point setup_start = Clock::now();
      std::unique_ptr<tertio::exec::Site> site;
      {
        Tracer::Scope span(tracer, "exec.site_setup", setup_op);
        site = std::make_unique<tertio::exec::Site>(ServiceSite());
      }
      Result<tertio::exec::ServiceWorkload> workload = Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "relation.generate", setup_op);
        workload = tertio::exec::PrepareServiceWorkload(site.get(), WorkloadConfig());
      }
      pass.setup_s.push_back(SecondsSince(setup_start));
      if (!workload.ok()) return workload.status();
      for (const auto& r : workload->r) pass.tuples_generated += r.tuple_count;
      for (const auto& s : workload->s) pass.tuples_generated += s.tuple_count;

      Clock::time_point exec_start = Clock::now();
      tertio::exec::SchedulerOptions options;
      options.max_in_flight = kMaxInFlight;
      tertio::exec::QueryScheduler scheduler(site.get(), tertio::exec::ServicePolicy::kElevator,
                                             options);
      // Scheduler id -> (span op, the advisor's estimate for the chosen method).
      std::map<std::uint64_t, std::pair<std::uint64_t, double>> submitted;
      RateResult result;
      result.rate_qph = kRatesQph[k];
      for (const Draw& draw : plans_[k]) {
        tertio::exec::JoinRequest request;
        request.arrival = draw.arrival;
        request.spec.r = &workload->r[static_cast<std::size_t>(draw.r_index)];
        request.spec.s = &workload->s[static_cast<std::size_t>(draw.s_index)];
        const ByteCount block = site->block_bytes();
        request.memory_blocks = tertio::BytesToBlocks(kMemoryGrants[draw.grant], block);
        request.disk_blocks = tertio::BytesToBlocks(kSessionDiskBytes, block);
        Result<tertio::join::AdvisorReport> advice = Status::Internal("unset");
        {
          Tracer::Scope span(tracer, "join.advise", op);
          advice = tertio::join::AdviseJoinMethod(
              Params(*site, request.memory_blocks, request.disk_blocks));
        }
        if (!advice.ok()) return advice.status();
        request.method = advice->best().method;
        Result<std::uint64_t> id = Status::Internal("unset");
        {
          Tracer::Scope span(tracer, "exec.submit", op);
          id = scheduler.Submit(request);
        }
        if (id.ok()) {
          submitted[*id] = {op, advice->best().estimate.total_seconds.value()};
        } else {
          ++result.rejected;
        }
        ++op;
      }
      Status ran = Status::OK();
      {
        Tracer::Scope span(tracer, "exec.run", op++);
        ran = scheduler.Run();
      }
      pass.exec_s.push_back(SecondsSince(exec_start));
      if (!ran.ok()) return ran;

      tertio::exec::ServiceStats stats = scheduler.service_stats();
      pass.attempted += stats.submitted;
      pass.failed += stats.rejected + stats.failed;
      if (stats.submitted != stats.completed + stats.failed + stats.rejected) {
        pass.errors.push_back("service lost queries: submitted != completed + failed + rejected");
      }
      result.failed = stats.failed;
      double last_arrival = plans_[k].back().arrival;
      std::vector<double> waits;
      std::vector<std::pair<double, int>> depth_events;
      // Robot trips happen in the sessions' mounts, outside any join.
      const std::uint64_t robot_before = pass.counts.robot_exchanges;
      for (const tertio::exec::QueryOutcome& outcome : scheduler.outcomes()) {
        digest.Add(outcome.id);
        digest.Add(outcome.start.value());
        digest.Add(outcome.completion.value());
        digest.Add(static_cast<std::uint64_t>(outcome.scan_shared) * 2 +
                   static_cast<std::uint64_t>(outcome.cached));
        digest.AddJoin(outcome.stats);
        if (!outcome.status.ok()) continue;
        ++pass.completed;
        pass.s_gb += static_cast<double>(kSBytes.value()) * 1e-9;
        result.responses.push_back(outcome.response_seconds().value());
        pass.counts.AddJoin(outcome.stats);
        const auto& [query_op, estimate] = submitted[outcome.id];
        if (tracer != nullptr) {
          tracer->RecordPhases(query_op, outcome.stats.method, outcome.stats.spans);
        }
        if (!reference) continue;
        waits.push_back((outcome.start - outcome.arrival).value());
        depth_events.emplace_back(outcome.arrival.value(), +1);
        depth_events.emplace_back(outcome.start.value(), -1);
        accuracy_.AddEstimate(estimate, outcome.stats.response_seconds.value());
      }
      result.p50 = Median(result.responses);
      result.p99 = Quantile(result.responses, TailQuantile(result.responses.size()));
      result.makespan = stats.makespan.value();
      result.drain = result.makespan - last_arrival;
      result.meets_limit = result.rejected == 0 && result.failed == 0 &&
                           result.p99 <= kLatencyLimitSeconds &&
                           result.drain <= kLatencyLimitSeconds;
      SimCounts& c = pass.counts;
      c.robot_exchanges = robot_before + stats.robot_exchanges;
      c.shared_queries += stats.scan_shared_queries;
      c.cached_queries += stats.cached_queries;
      c.cache_lookups += stats.cache_hits + stats.cache_misses;
      c.cache_hits += stats.cache_hits;
      c.cache_fills += stats.cache_fills;
      c.cache_evictions += stats.cache_evictions;
      c.AddDeviceBusy(site->sim());
      if (reference) {
        c.peak_in_flight = stats.peak_in_flight;
        c.queue_wait_p50_s = Median(waits);
        c.queue_wait_p99_s = Quantile(waits, TailQuantile(waits.size()));
        // Starts sort before arrivals at equal times: a request dispatched
        // on arrival never waits in the queue.
        std::sort(depth_events.begin(), depth_events.end());
        std::int64_t depth = 0;
        for (const auto& event : depth_events) {
          depth += event.second;
          c.queue_depth_peak = std::max<std::uint64_t>(c.queue_depth_peak,
                                                       static_cast<std::uint64_t>(depth));
        }
      }
      rates_.push_back(std::move(result));
    }
    pass.digest = digest.value();
    return pass;
  }

  std::vector<Metric> SimulatedMetrics() const override {
    const RateResult& ref = rates_[kReferenceRate];
    double max_rate = 0.0;
    for (const RateResult& r : rates_) {
      if (r.meets_limit) max_rate = std::max(max_rate, r.rate_qph);
    }
    return {
        {"resp_p50_s", ref.p50, "s"},
        {"resp_p99_s", ref.p99, "s"},
        {"makespan_s", ref.makespan, "s"},
        {"max_rate_qph", max_rate, "1/h"},
        {"model_err_mean_pct", accuracy_.err_mean_pct(), "%"},
        {"model_err_max_pct", accuracy_.err_max_pct(), "%"},
        {"advisor_vs_best_max_pct", advisor_.advisor_vs_best_max_pct(), "%"},
        {"table3_err_pct", table3_err_pct_, "%"},
    };
  }

  std::vector<std::string> Notes() const override {
    std::vector<std::string> notes;
    for (std::size_t k = 0; k < rates_.size(); ++k) {
      const RateResult& r = rates_[k];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "archive_service rate %.0f/h%s: %zu completed, %llu rejected, %llu failed, "
                    "p50 %.1f s, p%.1f %.1f s, drain %.1f s, %s the %.0f s limit",
                    r.rate_qph, static_cast<int>(k) == kReferenceRate ? " (reference)" : "",
                    r.responses.size(), static_cast<unsigned long long>(r.rejected),
                    static_cast<unsigned long long>(r.failed), r.p50,
                    100.0 * TailQuantile(r.responses.size()), r.p99, r.drain,
                    r.meets_limit ? "meets" : "misses", kLatencyLimitSeconds);
      notes.push_back(line);
    }
    return notes;
  }

 private:
  tertio::exec::ServiceWorkloadConfig WorkloadConfig() const {
    tertio::exec::ServiceWorkloadConfig config;
    config.s_cartridges = kSCartridges;
    config.s_bytes = kSBytes;
    config.r_relations = kRRelations;
    config.r_cartridges = kRCartridges;
    config.r_bytes = kRBytes;
    config.seed = seed_;
    config.phantom = true;
    return config;
  }

  /// Cost-model inputs of one request on `site`.
  static tertio::cost::CostParams Params(const tertio::exec::Site& site, BlockCount memory,
                                         BlockCount disk) {
    const tertio::exec::SiteConfig& config = site.config();
    tertio::cost::CostParams params;
    params.block_bytes = config.block_bytes;
    params.r_blocks = tertio::BytesToBlocks(kRBytes, config.block_bytes);
    params.s_blocks = tertio::BytesToBlocks(kSBytes, config.block_bytes);
    params.memory_blocks = memory;
    params.disk_blocks = disk;
    params.tape_rate_bps = config.tape_model.EffectiveRate(0.25);
    params.disk_rate_bps = site.AggregateDiskRate();
    params.disk_positioning_seconds = config.disk_model.positioning_seconds;
    return params;
  }

  /// For each memory grant, runs every method once on an idle machine with
  /// the session's resources and compares the advisor's pick with the best.
  Status MeasureAdvisor() {
    tertio::exec::WorkloadConfig workload;
    workload.r_bytes = kRBytes;
    workload.s_bytes = kSBytes;
    workload.phantom = true;
    workload.seed = seed_;
    for (ByteCount grant : kMemoryGrants) {
      auto config = tertio::exec::MachineConfig::PaperTestbed(kSessionDiskBytes, grant);
      std::vector<std::pair<JoinMethodId, double>> simulated;
      tertio::cost::CostParams params;
      for (JoinMethodId method : tertio::kAllJoinMethods) {
        JoinRun run = RunJoin(nullptr, 0, config, workload, method);
        params = run.params;
        if (run.feasible && run.stats.ok()) {
          simulated.emplace_back(method, run.stats->response_seconds.value());
        }
      }
      TERTIO_ASSIGN_OR_RETURN(tertio::join::AdvisorReport advice,
                              tertio::join::AdviseJoinMethod(params));
      advisor_.AddGeometry(simulated, advice.best().method);
    }
    return Status::OK();
  }

  std::uint64_t seed_;
  std::vector<std::vector<Draw>> plans_;
  std::vector<RateResult> rates_;
  Accuracy accuracy_;
  Accuracy advisor_;
  double table3_err_pct_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeArchiveService(std::uint64_t seed) {
  return std::make_unique<ArchiveService>(seed);
}

}  // namespace perfbench
