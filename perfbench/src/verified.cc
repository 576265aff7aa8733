/// \file verified.cc
/// verified_fk and verified_selective: full-data joins whose outputs are
/// checked tuple for tuple.
///
/// Both run all seven methods at two memory sizes on fresh machines, with
/// real payloads moving through the pipeline. verified_fk draws S as foreign
/// keys into R, so every S tuple matches exactly one R tuple (the match-heavy
/// probe path). verified_selective draws S keys uniformly over a domain
/// kSelectiveDomain times |R|, so about 3% of S tuples match (the miss-heavy
/// probe path). Every join's tuple count and checksum must equal
/// join::ReferenceJoin's. As on paper_grid, the seed perturbs |R|, |S| and D
/// by up to +-2%, so simulated times vary with the seed as key draws do.

#include <cstdio>
#include <utility>

#include "join/advisor.h"
#include "join/flat_table.h"
#include "join/reference_join.h"
#include "relation/generator.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using tertio::ByteCount;
using tertio::kMB;

constexpr ByteCount kRBytes = 2 * kMB;
constexpr ByteCount kSBytes = 16 * kMB;
constexpr ByteCount kDiskBytes = 8 * kMB;
/// M as a fraction of |R|: hash joins iterate and NB joins rescan at the
/// first, most of R fits at the second.
constexpr double kMemoryFractions[] = {0.25, 0.75};
/// verified_selective's S key domain, in multiples of |R|'s key count.
constexpr std::uint64_t kSelectiveDomain = 30;
/// Repetitions of the direct FlatJoinTable build/probe measurement.
constexpr int kTableRepeats = 5;

class Verified final : public Workload {
 public:
  Verified(std::uint64_t seed, bool selective) : seed_(seed), selective_(selective) {
    tertio::Rng rng(seed);
    workload_.r_bytes = Perturbed(kRBytes, &rng);
    workload_.s_bytes = Perturbed(kSBytes, &rng);
    disk_bytes_ = Perturbed(kDiskBytes, &rng);
    workload_.seed = seed;
    workload_.phantom = false;
  }

  Status Prepare() override {
    // The reference join and the direct table measurements run on one
    // machine holding the same relations every pass generates.
    tertio::exec::Machine machine(
        tertio::exec::MachineConfig::PaperTestbed(disk_bytes_, workload_.r_bytes));
    Result<tertio::exec::PreparedWorkload> prepared = Generate(&machine);
    if (!prepared.ok()) return prepared.status();
    const tertio::rel::Relation& r = prepared->r;
    const tertio::rel::Relation& s = prepared->s;
    Result<tertio::join::JoinOutput> reference = tertio::join::ReferenceJoin(r, s, 0, 0);
    if (!reference.ok()) return reference.status();
    reference_tuples_ = reference->tuples();
    reference_checksum_ = reference->checksum();
    s_tuples_ = s.tuple_count;
    TERTIO_ASSIGN_OR_RETURN(Table3Result table3, RunTable3(nullptr, 0));
    table3_err_pct_ = table3.err_pct;
    if (!selective_ && reference_tuples_ != s_tuples_) {
      return Status::Internal("foreign-key reference join lost S tuples");
    }
    return MeasureTable(r, s);
  }

  Result<Pass> RunPass(Tracer* tracer) override {
    Pass pass;
    Digest digest;
    accuracy_ = Accuracy();
    responses_.clear();
    std::uint64_t op = 0;
    for (double fraction : kMemoryFractions) {
      auto memory =
          static_cast<ByteCount>(fraction * static_cast<double>(workload_.r_bytes.value()));
      auto config = tertio::exec::MachineConfig::PaperTestbed(disk_bytes_, memory);
      std::vector<std::pair<JoinMethodId, double>> simulated;
      tertio::cost::CostParams params;
      for (JoinMethodId method : tertio::kAllJoinMethods) {
        JoinRun run = RunJoin(tracer, op, config, workload_, method,
                              [this](tertio::exec::Machine* m) { return Generate(m); });
        params = run.params;
        if (!run.feasible) {
          pass.errors.push_back(std::string(tertio::JoinMethodName(method)) +
                                " refused the verified geometry");
        }
        if (!pass.AddJoinRun(run, &digest)) {
          ++op;
          continue;
        }
        const tertio::join::JoinStats& stats = *run.stats;
        if (!stats.output_valid || stats.output_tuples != reference_tuples_ ||
            stats.output_checksum != reference_checksum_) {
          pass.errors.push_back(std::string(tertio::JoinMethodName(method)) +
                                " output differs from the reference join");
        }
        double response = stats.response_seconds.value();
        responses_.push_back(response);
        simulated.emplace_back(method, response);
        AddEstimate(tracer, op, method, run.params, response, &accuracy_);
        ++op;
      }
      Result<tertio::join::AdvisorReport> advice = Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "join.advise", op++);
        advice = tertio::join::AdviseJoinMethod(params);
      }
      if (!advice.ok()) return advice.status();
      accuracy_.AddGeometry(simulated, advice->best().method);
    }
    pass.digest = digest.value();
    return pass;
  }

  std::vector<Metric> SimulatedMetrics() const override {
    return JoinSetMetrics(responses_, accuracy_, table3_err_pct_);
  }

  double TableBuildNsPerTuple() const override { return build_ns_per_tuple_; }
  double TableProbeNsPerTuple() const override { return probe_ns_per_tuple_; }

  std::vector<std::string> Notes() const override {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s: %zu joins, reference %llu tuples of %llu S tuples, resp tail = p%.1f",
                  selective_ ? "verified_selective" : "verified_fk", responses_.size(),
                  static_cast<unsigned long long>(reference_tuples_),
                  static_cast<unsigned long long>(s_tuples_),
                  100.0 * TailQuantile(responses_.size()));
    return {line};
  }

 private:
  Result<tertio::exec::PreparedWorkload> Generate(tertio::exec::Machine* machine) const {
    if (!selective_) return tertio::exec::PrepareWorkload(machine, workload_);
    ByteCount block = machine->block_bytes();
    std::uint64_t per_block =
        tertio::rel::TuplesPerBlock(tertio::rel::Schema::KeyPayload(workload_.record_bytes), block);
    tertio::rel::GeneratorConfig r_config;
    r_config.name = "R";
    r_config.record_bytes = workload_.record_bytes;
    r_config.compressibility = workload_.compressibility;
    r_config.seed = seed_;
    r_config.keys = tertio::rel::KeySequence::kSequentialUnique;
    r_config.tuple_count = tertio::BytesToBlocks(workload_.r_bytes, block).value() * per_block;
    tertio::rel::GeneratorConfig s_config = r_config;
    s_config.name = "S";
    s_config.seed = seed_ + 1;
    s_config.keys = tertio::rel::KeySequence::kForeignKeyUniform;
    s_config.key_domain = kSelectiveDomain * r_config.tuple_count;
    s_config.tuple_count = tertio::BytesToBlocks(workload_.s_bytes, block).value() * per_block;
    tertio::exec::PreparedWorkload prepared;
    TERTIO_ASSIGN_OR_RETURN(prepared.r, tertio::rel::GenerateOnTape(r_config, &machine->tape_r()));
    TERTIO_ASSIGN_OR_RETURN(prepared.s, tertio::rel::GenerateOnTape(s_config, &machine->tape_s()));
    machine->MountTapes();
    return prepared;
  }

  /// Times FlatJoinTable::AddBlocks over R's blocks and Probe over S's.
  Status MeasureTable(const tertio::rel::Relation& r, const tertio::rel::Relation& s) {
    auto read = [](const tertio::rel::Relation& rel) -> Result<std::vector<tertio::BlockPayload>> {
      std::vector<tertio::BlockPayload> blocks;
      for (tertio::BlockCount i = 0; i < rel.blocks; ++i) {
        TERTIO_ASSIGN_OR_RETURN(tertio::BlockPayload payload,
                                rel.volume->ReadBlock(rel.start_block + i));
        blocks.push_back(std::move(payload));
      }
      return blocks;
    };
    TERTIO_ASSIGN_OR_RETURN(std::vector<tertio::BlockPayload> r_blocks, read(r));
    TERTIO_ASSIGN_OR_RETURN(std::vector<tertio::BlockPayload> s_blocks, read(s));
    std::vector<double> build;
    std::vector<double> probe;
    for (int i = 0; i < kTableRepeats; ++i) {
      tertio::join::FlatJoinTable table(&r.schema, 0, /*build_is_r=*/true);
      Clock::time_point start = Clock::now();
      TERTIO_RETURN_IF_ERROR(table.AddBlocks(r_blocks));
      build.push_back(SecondsSince(start) * 1e9 / static_cast<double>(r.tuple_count));
      tertio::join::JoinOutput out;
      start = Clock::now();
      TERTIO_RETURN_IF_ERROR(table.Probe(s_blocks, &s.schema, 0, &out));
      probe.push_back(SecondsSince(start) * 1e9 / static_cast<double>(s.tuple_count));
      if (out.tuples() != reference_tuples_ || out.checksum() != reference_checksum_) {
        return Status::Internal("direct table probe differs from the reference join");
      }
    }
    build_ns_per_tuple_ = Median(build);
    probe_ns_per_tuple_ = Median(probe);
    return Status::OK();
  }

  std::uint64_t seed_;
  bool selective_;
  tertio::exec::WorkloadConfig workload_;
  ByteCount disk_bytes_ = 0;
  std::uint64_t reference_tuples_ = 0;
  std::uint64_t reference_checksum_ = 0;
  std::uint64_t s_tuples_ = 0;
  double build_ns_per_tuple_ = 0.0;
  double probe_ns_per_tuple_ = 0.0;
  Accuracy accuracy_;
  std::vector<double> responses_;
  double table3_err_pct_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeVerified(std::uint64_t seed, bool selective) {
  return std::make_unique<Verified>(seed, selective);
}

}  // namespace perfbench
