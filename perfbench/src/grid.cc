/// \file grid.cc
/// paper_grid: the paper's Experiment-3 sweep (Figures 8, 10 and 11) plus the
/// Table 3 CTT-GH rows, timing-only.
///
/// Every (compressibility, M/|R|, method) point runs on a fresh paper-testbed
/// machine at kScale times the Experiment-3 sizes. The seed perturbs |R|,
/// |S| and D by up to +-2% around the paper's geometry, so the accuracy
/// metrics are sampled near the published configuration rather than on it.

#include <algorithm>
#include <cstdio>
#include <utility>

#include "join/advisor.h"
#include "tape/tape_model.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using tertio::ByteCount;
using tertio::kMB;

/// Multiple of the Experiment-3 sizes (|S| = 1000 MB, |R| = 18 MB, D = 50 MB).
constexpr std::uint64_t kScale = 1;
/// Figure 8 (base), Figure 10 (slow tape) and Figure 11 (fast tape).
constexpr double kCompressibilities[] = {0.25, 0.0, 0.5};
constexpr double kMemoryFractions[] = {0.05, 0.1, 0.15, 0.2, 0.3, 0.4,
                                       0.5,  0.6, 0.7,  0.8, 0.9, 1.0};

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(std::uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    tertio::Rng rng(seed_);
    r_bytes_ = Perturbed(kScale * 18 * kMB, &rng);
    s_bytes_ = Perturbed(kScale * 1000 * kMB, &rng);
    d_bytes_ = Perturbed(kScale * 50 * kMB, &rng);
    return Status::OK();
  }

  Result<Pass> RunPass(Tracer* tracer) override {
    Pass pass;
    Digest digest;
    accuracy_ = Accuracy();
    responses_.clear();
    infeasible_ = 0;
    std::uint64_t op = 0;
    auto drive = tertio::tape::TapeDriveModel::DLT4000();
    auto account = [&](const JoinRun& run) {
      if (!run.feasible) ++infeasible_;
      if (!pass.AddJoinRun(run, &digest)) return false;
      responses_.push_back(run.stats->response_seconds.value());
      return true;
    };

    for (double compressibility : kCompressibilities) {
      // Section 9's optimum: no join can beat the bare transfer of S.
      double optimum = drive.TransferSeconds(s_bytes_, compressibility).value();
      for (double fraction : kMemoryFractions) {
        tertio::exec::WorkloadConfig workload;
        workload.r_bytes = r_bytes_;
        workload.s_bytes = s_bytes_;
        workload.compressibility = compressibility;
        workload.seed = seed_;
        workload.phantom = true;
        auto memory =
            static_cast<ByteCount>(fraction * static_cast<double>(r_bytes_.value()));
        auto config = tertio::exec::MachineConfig::PaperTestbed(d_bytes_, memory);
        std::vector<std::pair<JoinMethodId, double>> simulated;
        tertio::cost::CostParams params;
        for (JoinMethodId method : tertio::kAllJoinMethods) {
          JoinRun run = RunJoin(tracer, op, config, workload, method);
          params = run.params;
          if (account(run)) {
            double response = run.stats->response_seconds.value();
            simulated.emplace_back(method, response);
            if (response < optimum) {
              pass.errors.push_back("response below the bare S transfer time");
            }
            AddEstimate(tracer, op, method, run.params, response, &accuracy_);
          }
          ++op;
        }
        Result<tertio::join::AdvisorReport> advice = Status::Internal("unset");
        {
          Tracer::Scope span(tracer, "join.advise", op++);
          advice = tertio::join::AdviseJoinMethod(params);
        }
        if (!advice.ok()) {
          pass.errors.push_back("advisor found no method: " + advice.status().ToString());
          continue;
        }
        accuracy_.AddGeometry(simulated, advice->best().method);
      }
    }

    Result<Table3Result> table3 = RunTable3(tracer, op);
    if (!table3.ok()) return table3.status();
    table3_err_pct_ = table3->err_pct;
    for (const JoinRun& run : table3->runs) {
      account(run);
      AddEstimate(tracer, op++, JoinMethodId::kCttGh, run.params,
                  run.stats->response_seconds.value(), &accuracy_);
    }
    if (accuracy_.advisor_misses() != 0) {
      pass.errors.push_back("advisor chose a method the simulator refused");
    }
    pass.digest = digest.value();
    return pass;
  }

  std::vector<Metric> SimulatedMetrics() const override {
    return JoinSetMetrics(responses_, accuracy_, table3_err_pct_);
  }

  std::vector<std::string> Notes() const override {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "paper_grid: %zu accepted joins (%llu infeasible points skipped), "
                  "resp tail = p%.1f, |R| %.1f MB |S| %.1f MB D %.1f MB",
                  responses_.size(), static_cast<unsigned long long>(infeasible_),
                  100.0 * TailQuantile(responses_.size()),
                  static_cast<double>(r_bytes_.value()) / 1e6,
                  static_cast<double>(s_bytes_.value()) / 1e6,
                  static_cast<double>(d_bytes_.value()) / 1e6);
    return {line};
  }

 private:

  std::uint64_t seed_;
  ByteCount r_bytes_ = 0;
  ByteCount s_bytes_ = 0;
  ByteCount d_bytes_ = 0;
  Accuracy accuracy_;
  std::vector<double> responses_;
  std::uint64_t infeasible_ = 0;
  double table3_err_pct_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakePaperGrid(std::uint64_t seed) {
  return std::make_unique<PaperGrid>(seed);
}

}  // namespace perfbench
