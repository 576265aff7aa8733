#pragma once

/// \file machine.h
/// Single-query facade over the Site/QuerySession split (site.h,
/// query_session.h): one simulated system per Section 3.1 — two tape
/// drives, n disks, M blocks of memory, optional library — with the whole
/// site leased to one session.
///
/// A Machine owns a Site plus one QuerySession that leases every drive,
/// block of memory and block of disk, and hands executors that session's
/// JoinContext. One Machine = one experiment run; create a fresh Machine
/// (cheap) for independent timings. Multi-query workloads use Site +
/// QueryScheduler directly.

#include <memory>

#include "exec/query_session.h"
#include "exec/site.h"
#include "join/join_spec.h"
#include "util/units.h"

namespace tertio::exec {

/// Configuration of one machine: a site configuration whose whole site is
/// leased to one session (two drives, all of M, all session-usable D).
/// Build one with SiteConfig::PaperTestbed; SiteConfig::Validate rejects the
/// configurations the Machine constructor would abort on.
using MachineConfig = SiteConfig;

/// One simulated system.
class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  const MachineConfig& config() const { return site_->config(); }
  Site& site() { return *site_; }
  QuerySession& session() { return *session_; }
  sim::Simulation& sim() { return site_->sim(); }
  disk::StripedDiskGroup& disks() { return session_->disks(); }
  mem::MemoryBudget& memory() { return session_->memory(); }
  tape::TapeDrive& drive_r() { return *session_->drive_r(); }
  tape::TapeDrive& drive_s() { return *session_->drive_s(); }
  tape::TapeVolume& tape_r() { return *tape_r_; }
  tape::TapeVolume& tape_s() { return *tape_s_; }
  tape::TapeLibrary* library() { return site_->library(); }

  ByteCount block_bytes() const { return site_->block_bytes(); }
  BlockCount memory_blocks() const { return session_->memory().total_blocks(); }
  BlockCount disk_blocks() const { return session_->disks().allocator().capacity_blocks(); }

  /// Mounts the R/S volumes uncosted ("the tapes have been inserted and
  /// loaded into the tape drives before the join operation begins").
  void MountTapes() { session_->ForceMount(tape_r_.get(), tape_s_.get()); }

  /// The context handed to join executors.
  join::JoinContext context() { return session_->context(); }

  /// Effective tape rate (bytes/s) for data of the given compressibility.
  BytesPerSecond EffectiveTapeRate(double compressibility) const {
    return site_->EffectiveTapeRate(compressibility);
  }

  /// Aggregate disk rate X_D (bytes/s).
  BytesPerSecond AggregateDiskRate() const { return site_->AggregateDiskRate(); }

  /// Whether this machine injects faults.
  bool faults_enabled() const { return site_->faults_enabled(); }

  /// Machine-wide fault/recovery counters (zero with faults disabled).
  sim::FaultStats TotalFaultStats() const { return site_->TotalFaultStats(); }

  /// Enables SimSan (sim/auditor.h) on this machine: the simulation's
  /// auditor observes every device timeline, the memory budgets, the disk
  /// allocators and both scratch tapes. Idempotent; automatic in
  /// TERTIO_SIMSAN builds. \returns the auditor.
  sim::Auditor* EnableAudit();

  /// The machine's auditor, or nullptr when auditing is not enabled.
  sim::Auditor* auditor() const { return site_->auditor(); }

 private:
  void BindAuditor(sim::Auditor* auditor);

  std::unique_ptr<Site> site_;
  std::unique_ptr<tape::TapeVolume> tape_r_;
  std::unique_ptr<tape::TapeVolume> tape_s_;
  /// The one session leasing the whole site. Declared after the volumes it
  /// mounts, before anything that might use it.
  std::unique_ptr<QuerySession> session_;
};

}  // namespace tertio::exec
