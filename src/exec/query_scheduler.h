#pragma once

/// \file query_scheduler.h
/// Multi-query join service over one Site.
///
/// The scheduler accepts a stream of JoinRequests, admission-checks each
/// against the site's memory/disk/drive budgets, and executes admitted
/// queries against per-query sessions. Requests are indexed by the cartridge
/// their outer (S) relation lives on; under the kSharedScan policy, when a
/// leader's sequential S pass retires, the queued joins on that cartridge
/// that had arrived by the leader's dispatch ride its pass — their S reads
/// are multicast from the one physical pass (tape/tape_drive.h shared-pass
/// window) instead of re-reading the tape. This is the service-level
/// counterpart of the Postgres/Paradise batching the paper cites in
/// Section 2.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "cost/method_id.h"
#include "exec/query_session.h"
#include "exec/site.h"
#include "join/join_spec.h"

namespace tertio::exec {

/// How the service orders and executes its queue.
enum class ServicePolicy : std::uint8_t {
  /// Strict arrival order, every query pays its own tape passes.
  kFifo,
  /// Arrival order, except that queued joins on a retired leader's S
  /// cartridge ride its pass first (scan sharing).
  kSharedScan,
  /// Elevator (SCAN) over library slots: among arrived queries, dispatch the
  /// one whose S cartridge is nearest the robot's sweep position in the
  /// current sweep direction, reversing at the ends — fewer long arm trips
  /// than arrival order when queries scatter across cartridges. An aging
  /// bound (SchedulerOptions::elevator_aging_seconds) force-promotes any
  /// query the sweep has bypassed too long, so no cartridge starves.
  kElevator,
};

/// Dispatch-loop knobs (policy-independent).
struct SchedulerOptions {
  /// Maximum QuerySessions in flight at once. 1 (the default) serves one
  /// query at a time; higher values overlap admitted queries in virtual
  /// time whenever the site's free drives, memory and session disk space
  /// cover another request. Every cap runs the same dispatch loop.
  int max_in_flight = 1;
  /// kElevator only: once a queued, already-arrived query has been bypassed
  /// by the sweep for longer than this, it is dispatched next regardless of
  /// slot distance.
  SimSeconds elevator_aging_seconds = 3600.0;
};

/// One join submitted to the service.
struct JoinRequest {
  /// Assigned by Submit() when left 0.
  std::uint64_t id = 0;
  /// Virtual time the query arrived; it can never start earlier.
  SimSeconds arrival = 0.0;
  join::JoinSpec spec;
  JoinMethodId method = JoinMethodId::kCdtGh;
  /// Memory partition M_q the query's session leases.
  BlockCount memory_blocks = 0;
  /// Disk carve D_q the query's session leases.
  BlockCount disk_blocks = 0;
};

/// The service-level record of one finished (or failed) query.
struct QueryOutcome {
  std::uint64_t id = 0;
  Status status;
  join::JoinStats stats;
  SimSeconds arrival = 0.0;
  /// Virtual time the join itself was anchored (>= arrival).
  SimSeconds start = 0.0;
  /// Virtual time the join completed.
  SimSeconds completion = 0.0;
  /// True when this query's S scan rode another query's pass.
  bool scan_shared = false;
  /// True when this query's S scan was served from the disk extent cache.
  bool cached = false;

  /// Queue wait + execution, the latency the client observes.
  SimSeconds response_seconds() const { return completion - arrival; }
};

/// Aggregates over one service run.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Queries whose S scan was multicast from another query's pass.
  std::uint64_t scan_shared_queries = 0;
  /// Queries whose S scan was served from the disk extent cache.
  std::uint64_t cached_queries = 0;
  BlockCount tape_blocks_read = 0;
  BlockCount tape_blocks_shared = 0;
  /// Blocks served from the extent cache in place of tape reads.
  BlockCount tape_blocks_cached = 0;
  /// Extent-cache counters at the end of the run (zero without a cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
  /// Robot operations (mount/dismount trips, including faulted re-tries)
  /// over the whole run — the arm traffic the elevator policy minimizes.
  std::uint64_t robot_exchanges = 0;
  /// Most sessions simultaneously in flight in virtual time.
  std::uint64_t peak_in_flight = 0;
  /// Horizon when the queue drained.
  SimSeconds makespan = 0.0;
};

/// Admission control + per-cartridge queues + one event-driven dispatch
/// loop, with kSharedScan riders served from a retired leader's pass.
class QueryScheduler {
 public:
  QueryScheduler(Site* site, ServicePolicy policy, SchedulerOptions options = {});

  ServicePolicy policy() const { return policy_; }
  const SchedulerOptions& options() const { return options_; }

  /// Admission control: the site must have a library holding both
  /// relations' cartridges, and the request's M_q/D_q/drive demands must
  /// fit the site outright (a demand no schedule could ever satisfy is
  /// rejected now, not queued forever). \returns the request id.
  Result<std::uint64_t> Submit(JoinRequest request);

  /// Queries queued against the cartridge in `slot` (S side).
  std::size_t pending_on(int slot) const;
  std::size_t pending() const { return queue_.size(); }

  /// Called after each query completes, while the service is still
  /// running — a closed-loop client submits its next query from here.
  void set_on_complete(std::function<void(const QueryOutcome&)> fn) {
    on_complete_ = std::move(fn);
  }

  /// Drains the queue (including queries submitted from on_complete) with an
  /// event-driven dispatch loop. With in-flight capacity and resources to
  /// spare, the policy's next candidate is dispatched on its own session,
  /// its join anchored exactly at its own mount completion; otherwise the
  /// earliest completion retires first (virtual-time order, so closed-loop
  /// clients observe completions in order). max_in_flight=1 is the same
  /// loop with room for one session. Per-query failures land in their
  /// outcomes; Run itself fails only on service-level invariants.
  Status Run();

  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }
  ServiceStats service_stats() const;

 private:
  /// One dispatched-but-not-retired query: its already-simulated outcome
  /// plus the session whose leases it still holds in virtual time.
  struct InFlight {
    QueryOutcome outcome;
    std::unique_ptr<QuerySession> session;
    /// Dispatch order, the retirement tie-break at equal completions.
    std::uint64_t seq = 0;
    /// Dispatch time and S relation: a retiring kSharedScan leader arms its
    /// rider window from them.
    SimSeconds dispatch = 0.0;
    const rel::Relation* s = nullptr;
    /// True when the query rode another query's pass (riders lead nothing).
    bool rider = false;
  };

  /// A queued request riding a retired leader's S pass: multicast from the
  /// shared-pass window armed on `drive`.
  struct Rider {
    std::uint64_t id = 0;
    SimSeconds arrival = 0.0;
    tape::TapeDrive* drive = nullptr;
  };

  /// Removes request `id` from `queue_` and returns it.
  JoinRequest Take(std::uint64_t id);
  void Unindex(const JoinRequest& request);
  /// True when `id` is already on the pending queue.
  bool IsQueued(std::uint64_t id) const;
  /// Opens `request`'s session at virtual time `at`, mounts its cartridges
  /// and executes its join anchored exactly at the later of `at` and its own
  /// mount completion (JoinContext::exact_anchor), then records it in flight
  /// until retirement. A `rider` skips the extent-cache probe: its S reads
  /// come from the armed shared-pass window. A failure completes the query
  /// at `at` and releases its session at once.
  void Dispatch(JoinRequest request, SimSeconds at, bool rider);
  /// The id of the request the policy would dispatch next (0 = empty queue).
  /// Riders of a live window go first, in (arrival, id) order.
  std::uint64_t PickCandidate();
  /// kElevator: the eligible request nearest the sweep position in the sweep
  /// direction, unless one has aged past the bound (then the oldest).
  std::uint64_t PickElevator();
  /// True when the site can open another 2-drive session for `request` right
  /// now: enough free drives/memory/session disk, and neither of the
  /// request's cartridges is mounted in a drive another session holds.
  bool ResourcesFit(const JoinRequest& request);
  /// Index of the free-or-leased drive holding the cartridge in `slot`, or
  /// -1 when unmounted.
  int DriveIndexHolding(int slot) const;
  /// Positional [R, S] drive preferences routing the session onto drives
  /// already holding its cartridges.
  std::vector<int> PreferredDrivesFor(const JoinRequest& request) const;
  /// Retires the earliest-completing in-flight query: closes its session,
  /// arms its rider window (a successful kSharedScan leader), records the
  /// outcome, fires on_complete, advances the retirement clock.
  void RetireEarliest();
  /// Declares the pass a kSharedScan leader swept over `s` a shared-pass
  /// window on the drive still holding its cartridge, and makes riders of
  /// the requests queued on that cartridge that had arrived by `dispatch`.
  void ArmRiderWindow(const rel::Relation& s, SimSeconds dispatch);

  Site* site_;
  ServicePolicy policy_;
  SchedulerOptions options_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  /// Admitted, not yet executed.
  std::vector<JoinRequest> queue_;
  /// S-cartridge slot -> queued request ids, arrival order.
  std::map<int, std::deque<std::uint64_t>> cartridge_queues_;
  std::vector<QueryOutcome> outcomes_;
  /// Dispatched, not yet retired (their completions are already simulated).
  std::vector<InFlight> in_flight_;
  /// Riders of every live shared-pass window, (arrival, id) order.
  std::vector<Rider> riders_;
  /// Virtual dispatch cursor: max of all dispatch times and retired
  /// completions so far. The next dispatch happens at max(clock_, arrival).
  SimSeconds clock_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t peak_in_flight_ = 0;
  std::uint64_t robot_exchanges_ = 0;
  /// kElevator sweep state: last dispatched slot and sweep direction.
  int sweep_pos_ = 0;
  int sweep_dir_ = 1;
  SimSeconds makespan_ = 0.0;
  std::function<void(const QueryOutcome&)> on_complete_;
};

}  // namespace tertio::exec
