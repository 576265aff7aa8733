#include "exec/experiment.h"

namespace tertio::exec {

Result<PreparedWorkload> PrepareWorkload(Machine* machine, const WorkloadConfig& workload) {
  if (machine == nullptr) return Status::InvalidArgument("workload requires a machine");
  if (workload.r_bytes == 0 || workload.s_bytes == 0) {
    return Status::InvalidArgument("workload relations must be non-empty");
  }
  ByteCount bb = machine->block_bytes();
  rel::GeneratorConfig r_config;
  r_config.name = "R";
  r_config.record_bytes = workload.record_bytes;
  r_config.compressibility = workload.compressibility;
  r_config.seed = workload.seed;
  r_config.phantom = workload.phantom;
  r_config.keys = rel::KeySequence::kSequentialUnique;
  // Tuple counts sized so the relation occupies the requested bytes.
  std::uint64_t tuples_per_block =
      rel::TuplesPerBlock(rel::Schema::KeyPayload(workload.record_bytes), bb);
  r_config.tuple_count = BytesToBlocks(workload.r_bytes, bb).value() * tuples_per_block;

  rel::GeneratorConfig s_config = r_config;
  s_config.name = "S";
  s_config.seed = workload.seed + 1;
  s_config.keys = rel::KeySequence::kForeignKeyUniform;
  s_config.key_domain = r_config.tuple_count;
  s_config.tuple_count = BytesToBlocks(workload.s_bytes, bb).value() * tuples_per_block;

  PreparedWorkload prepared;
  TERTIO_ASSIGN_OR_RETURN(prepared.r, rel::GenerateOnTape(r_config, &machine->tape_r()));
  TERTIO_ASSIGN_OR_RETURN(prepared.s, rel::GenerateOnTape(s_config, &machine->tape_s()));
  machine->MountTapes();
  return prepared;
}

Result<join::JoinStats> RunJoinExperiment(const MachineConfig& machine_config,
                                          const WorkloadConfig& workload, JoinMethodId method) {
  Machine machine(machine_config);
  TERTIO_ASSIGN_OR_RETURN(PreparedWorkload prepared, PrepareWorkload(&machine, workload));
  join::JoinSpec spec;
  spec.r = &prepared.r;
  spec.s = &prepared.s;
  std::unique_ptr<join::JoinMethod> executor = join::CreateJoinMethod(method);
  TERTIO_CHECK(executor != nullptr, "unknown join method");
  return executor->Execute(spec, machine.context());
}

cost::CostParams CostParamsFor(const Machine& machine, const WorkloadConfig& workload) {
  cost::CostParams params;
  ByteCount bb = machine.config().block_bytes;
  params.block_bytes = bb;
  params.r_blocks = BytesToBlocks(workload.r_bytes, bb);
  params.s_blocks = BytesToBlocks(workload.s_bytes, bb);
  params.memory_blocks = BytesToBlocks(machine.config().memory_bytes, bb);
  params.disk_blocks = BytesToBlocks(machine.config().disk_space_bytes, bb);
  params.tape_rate_bps = machine.EffectiveTapeRate(workload.compressibility);
  params.disk_rate_bps = machine.AggregateDiskRate();
  params.disk_positioning_seconds = machine.config().disk_model.positioning_seconds;
  return params;
}

}  // namespace tertio::exec
