/// \file main.cc
/// tertio_perfbench: runs one workload for a fixed number of host seconds and
/// prints its metrics.
///
///   tertio_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                    [--trace-out <file>] [--git <sha>] [--dirty <0|1>]
///
/// A run draws the workload's inputs from the seed, then repeats full passes
/// over them until the time is up. Every pass must reproduce the first pass's
/// simulated digest. Host times take each timed unit's fastest repeat over
/// the passes (see HostSeconds).
///
/// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
/// and traced passes: the traced ones record host-time spans around every
/// library call, the per-layer metrics are medians over them, and the
/// difference between the two kinds of pass is reported as the tracing
/// overhead. The spans, each join's simulated phases and the run's
/// provenance go to --trace-out.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <cpuid.h>
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git = "unknown";
  bool dirty = false;
};

/// Passes run even when the time is up, so every median has a base.
constexpr int kMinPasses = 3;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--git") {
      options->git = value;
    } else if (flag == "--dirty") {
      options->dirty = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0.0;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "paper_grid") return MakePaperGrid(options.seed);
  if (options.workload == "archive_service") return MakeArchiveService(options.seed);
  if (options.workload == "verified_fk") return MakeVerified(options.seed, false);
  if (options.workload == "verified_selective") return MakeVerified(options.seed, true);
  return nullptr;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model = brand;
  std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Provenance(const Options& options) {
  return "{\"git\": " + JsonString(options.git) +
         ", \"dirty\": " + (options.dirty ? "true" : "false") +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"threads\": 1" + ", \"workload\": " + JsonString(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) + "}";
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Host seconds of one pass, built unit by unit: each timed unit (a join, or
/// a service rate) contributes its fastest time over `passes`. Other tenants
/// of the host slow down stretches of seconds at a time, so a unit's slower
/// repeats measure them, not the library; its best repeat is still a
/// measured time.
double HostSeconds(const std::vector<Pass>& passes, std::vector<double> Pass::*field) {
  double total = 0.0;
  for (std::size_t unit = 0; unit < (passes.front().*field).size(); ++unit) {
    double best = (passes.front().*field)[unit];
    for (const Pass& pass : passes) best = std::min(best, (pass.*field)[unit]);
    total += best;
  }
  return total;
}

/// Per-layer metrics of one traced pass.
std::vector<Metric> LayerMetrics(const Tracer& tracer, int iteration, const Pass& pass,
                                 const Workload& workload) {
  auto total = [&](const char* name) { return tracer.TotalSeconds(name, iteration); };
  auto per_call_us = [&](const char* name) {
    std::uint64_t n = tracer.Count(name, iteration);
    return n == 0 ? 0.0 : total(name) / static_cast<double>(n) * 1e6;
  };
  const SimCounts& c = pass.counts;
  double generate_s = total("relation.generate");
  double run_s = total("exec.run");
  double execute_s = run_s;
  std::vector<Metric> out = {
      {"relation.generate_s", generate_s, "s"},
      {"relation.tuples_per_s",
       generate_s > 0.0 ? static_cast<double>(pass.tuples_generated) / generate_s : 0.0, "1/s"},
      {"exec.site_setup_s", total("exec.site_setup"), "s"},
      {"exec.submit_us", per_call_us("exec.submit"), "us"},
      {"exec.run_us_per_query",
       pass.completed > 0 && run_s > 0.0 ? run_s / static_cast<double>(pass.completed) * 1e6
                                         : 0.0,
       "us"},
      {"exec.queue_wait_p50_s", c.queue_wait_p50_s, "s"},
      {"exec.queue_wait_p99_s", c.queue_wait_p99_s, "s"},
      {"exec.queue_depth_peak", static_cast<double>(c.queue_depth_peak), "count"},
      {"exec.peak_in_flight", static_cast<double>(c.peak_in_flight), "count"},
      {"exec.shared_queries", static_cast<double>(c.shared_queries), "count"},
      {"exec.cached_queries", static_cast<double>(c.cached_queries), "count"},
  };
  for (JoinMethodId method : tertio::kAllJoinMethods) {
    std::string name = "join.execute." + MethodKey(method);
    double seconds = tracer.TotalSeconds(name, iteration);
    execute_s += seconds;
    out.push_back({"join.execute_s." + MethodKey(method), seconds, "s"});
  }
  out.insert(out.end(), {
      {"join.table_build_ns_per_tuple", workload.TableBuildNsPerTuple(), "ns"},
      {"join.table_probe_ns_per_tuple", workload.TableProbeNsPerTuple(), "ns"},
      {"join.advise_us", per_call_us("join.advise"), "us"},
      {"cost.estimate_us", per_call_us("cost.estimate"), "us"},
      {"join.output_tuples", static_cast<double>(c.output_tuples), "count"},
      {"sim.stages", static_cast<double>(c.stages), "count"},
      {"sim.host_ns_per_stage",
       c.stages > 0 ? execute_s / static_cast<double>(c.stages) * 1e9 : 0.0, "ns"},
      {"tape.blocks_read", static_cast<double>(c.tape_blocks_read), "count"},
      {"tape.blocks_written", static_cast<double>(c.tape_blocks_written), "count"},
      {"tape.busy_s", c.tape_busy_s, "s"},
      {"tape.robot_exchanges", static_cast<double>(c.robot_exchanges), "count"},
      {"tape.blocks_shared", static_cast<double>(c.tape_blocks_shared), "count"},
      {"tape.blocks_cached", static_cast<double>(c.tape_blocks_cached), "count"},
      {"disk.blocks_read", static_cast<double>(c.disk_blocks_read), "count"},
      {"disk.blocks_written", static_cast<double>(c.disk_blocks_written), "count"},
      {"disk.requests", static_cast<double>(c.disk_requests), "count"},
      {"disk.busy_s", c.disk_busy_s, "s"},
      {"disk.cache_hit_ratio",
       c.cache_lookups > 0
           ? static_cast<double>(c.cache_hits) / static_cast<double>(c.cache_lookups)
           : 0.0,
       "ratio"},
      {"disk.cache_fills", static_cast<double>(c.cache_fills), "count"},
      {"disk.cache_evictions", static_cast<double>(c.cache_evictions), "count"},
      {"mem.peak_blocks", static_cast<double>(c.mem_peak_blocks), "count"},
      {"hash.iterations", static_cast<double>(c.hash_iterations), "count"},
      {"hash.r_scans", static_cast<double>(c.hash_r_scans), "count"},
      {"hash.bucket_overflow_slices", static_cast<double>(c.hash_overflow_slices), "count"},
  });
  for (const char* layer : {"relation", "exec", "join", "cost"}) {
    out.push_back({std::string(layer) + ".self_s", tracer.LayerSelfSeconds(layer, iteration),
                   "s"});
  }
  return out;
}

/// Writes the spans, the phases of the first traced pass's joins and the
/// provenance as one JSON document.
bool WriteTrace(const std::string& path, const std::string& provenance, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"provenance\": " << provenance << ",\n\"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"pass\": " << s.iteration << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "],\n\"simulated_phases\": [\n";
  const auto& phases = tracer.phases();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out << phases[i] << (i + 1 < phases.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int Run(int argc, char** argv) {
  // Keep freed memory in the heap for reuse by the next pass instead of
  // returning it to the kernel: otherwise every pass pays first-touch page
  // faults for its machines' block stores, and their cost swings with the
  // host's memory load rather than with the library's work.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_grid|archive_service|verified_fk|"
                 "verified_selective> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--git <sha>] [--dirty <0|1>]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::string provenance = Provenance(options);
  std::printf("provenance %s\n", provenance.c_str());
  Status prepared = workload->Prepare();
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.ToString().c_str());
    return 1;
  }

  Tracer tracer;
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  std::vector<int> traced_iterations;
  std::set<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_digest = 0;
  // Passes run while the next one, taking as long as the last, still ends
  // within --seconds.
  Clock::time_point start = Clock::now();
  double last_pass_s = 0.0;
  for (int i = 0; i < kMinPasses || SecondsSince(start) + last_pass_s <= options.seconds; ++i) {
    Clock::time_point pass_start = Clock::now();
    bool trace_pass = options.trace && i % 2 == 1;
    tracer.set_enabled(trace_pass);
    tracer.set_iteration(i);
    Result<Pass> pass = workload->RunPass(&tracer);
    if (!pass.ok()) {
      std::fprintf(stderr, "pass %d failed: %s\n", i, pass.status().ToString().c_str());
      return 1;
    }
    attempted += pass->attempted;
    failed += pass->failed;
    errors.insert(pass->errors.begin(), pass->errors.end());
    if (i == 0) {
      first_digest = pass->digest;
      for (const std::string& note : workload->Notes()) std::printf("%s\n", note.c_str());
    } else if (pass->digest != first_digest) {
      errors.insert(std::string(trace_pass ? "a traced" : "an untraced") +
                    " pass changed the simulated digest");
    }
    last_pass_s = SecondsSince(pass_start);
    if (trace_pass) {
      traced_iterations.push_back(i);
      traced.push_back(std::move(*pass));
    } else {
      untraced.push_back(std::move(*pass));
    }
  }
  for (const std::string& error : errors) std::printf("check failed: %s\n", error.c_str());
  std::printf("passes (setup_s/exec_s):");
  for (const Pass& p : untraced) std::printf(" %.4f/%.4f", Sum(p.setup_s), Sum(p.exec_s));
  std::printf("\n");
  std::printf("digest %s seed=%" PRIu64 " %016" PRIx64 " passes=%zu\n", options.workload.c_str(),
              options.seed, first_digest, untraced.size() + traced.size());

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics.push_back({"setup_s", HostSeconds(untraced, &Pass::setup_s), "s"});
    metrics.push_back(
        {"gb_per_host_s", untraced[0].s_gb / HostSeconds(untraced, &Pass::exec_s), "GB/s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    for (Metric& m : workload->SimulatedMetrics()) metrics.push_back(std::move(m));
  } else {
    // Medians over the traced passes, metric by metric.
    std::map<std::string, std::vector<double>> samples;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      for (const Metric& m : LayerMetrics(tracer, traced_iterations[k], traced[k], *workload)) {
        samples[m.name].push_back(m.value);
        if (k == 0) metrics.push_back(m);
      }
    }
    for (Metric& m : metrics) m.value = Median(samples[m.name]);
    double plain = HostSeconds(untraced, &Pass::exec_s) + HostSeconds(untraced, &Pass::setup_s);
    double with_spans = HostSeconds(traced, &Pass::exec_s) + HostSeconds(traced, &Pass::setup_s);
    metrics.push_back({"trace.overhead_pct", (with_spans - plain) / plain * 100.0, "%"});
    metrics.push_back({"trace.spans_per_pass",
                       static_cast<double>(tracer.spans().size()) /
                           static_cast<double>(traced.size()),
                       "count"});
    if (!options.trace_out.empty() && !WriteTrace(options.trace_out, provenance, tracer)) {
      errors.insert("could not write the trace to " + options.trace_out);
    }
  }

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
