#include "exec/machine.h"

namespace tertio::exec {

Machine::Machine(const MachineConfig& config) : site_(std::make_unique<Site>(config)) {
  tape_r_ = std::make_unique<tape::TapeVolume>("tape-R", config.block_bytes);
  tape_s_ = std::make_unique<tape::TapeVolume>("tape-S", config.block_bytes);
  // One session leasing everything: drives 0/1, all of M, all of D that
  // the extent cache (if any) leaves to sessions. Its budget and allocator
  // then behave exactly like the seed Machine's own.
  SessionResources all;
  all.name = "main";
  all.memory_blocks = site_->memory_blocks();
  all.disk_blocks = site_->session_disk_blocks();
  Result<std::unique_ptr<QuerySession>> session = QuerySession::Open(site_.get(), all);
  TERTIO_CHECK(session.ok(), "whole-site session lease cannot fail on a fresh site");
  session_ = std::move(*session);
  if (site_->auditor() != nullptr) BindAuditor(site_->auditor());
}

sim::Auditor* Machine::EnableAudit() {
  sim::Auditor* auditor = site_->EnableAudit();
  // The session opened before audit was enabled; bind its layers too.
  session_->memory().BindAuditor(auditor);
  session_->disks().allocator().BindAuditor(auditor);
  BindAuditor(auditor);
  return auditor;
}

void Machine::BindAuditor(sim::Auditor* auditor) {
  tape_r_->BindAuditor(auditor);
  tape_s_->BindAuditor(auditor);
}

}  // namespace tertio::exec
