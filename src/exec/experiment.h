#pragma once

/// \file experiment.h
/// End-to-end experiment driving: generate the workload, run a method,
/// collect stats — the loop behind every table and figure reproduction.

#include <cstdint>
#include <string>

#include "cost/cost_model.h"
#include "exec/machine.h"
#include "join/join_method.h"
#include "relation/generator.h"
#include "util/status.h"

namespace tertio::exec {

/// The synthetic workload of one experiment.
struct WorkloadConfig {
  ByteCount r_bytes = 0;
  ByteCount s_bytes = 0;
  /// Data compressibility (drives the effective tape rate; paper base: 25%).
  double compressibility = 0.25;
  ByteCount record_bytes = 100;
  std::uint64_t seed = 42;
  /// Timing-only (paper-scale) vs full-data (verifiable) runs.
  bool phantom = true;
};

/// The generated relations plus the machine they live on.
struct PreparedWorkload {
  rel::Relation r;
  rel::Relation s;
};

/// Generates R and S onto the machine's tapes (uncosted) and mounts them.
Result<PreparedWorkload> PrepareWorkload(Machine* machine, const WorkloadConfig& workload);

/// One full run: prepare the workload on a fresh machine and execute the
/// method. \returns the join statistics.
Result<join::JoinStats> RunJoinExperiment(const MachineConfig& machine_config,
                                          const WorkloadConfig& workload, JoinMethodId method);

/// Cost-model parameters matching a machine + workload (for analytical
/// cross-checks and the advisor).
cost::CostParams CostParamsFor(const Machine& machine, const WorkloadConfig& workload);

}  // namespace tertio::exec
