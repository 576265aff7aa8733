#include "exec/query_scheduler.h"

#include <algorithm>
#include <limits>

#include "join/join_method.h"
#include "util/string_util.h"

namespace tertio::exec {

QueryScheduler::QueryScheduler(Site* site, ServicePolicy policy, SchedulerOptions options)
    : site_(site), policy_(policy), options_(options) {
  TERTIO_CHECK(site != nullptr, "scheduler requires a site");
  TERTIO_CHECK(options_.max_in_flight >= 1, "max_in_flight must be at least 1");
}

Result<std::uint64_t> QueryScheduler::Submit(JoinRequest request) {
  ++submitted_;
  auto reject = [&](Status status) -> Result<std::uint64_t> {
    ++rejected_;
    return status;
  };
  if (request.spec.r == nullptr || request.spec.s == nullptr) {
    return reject(Status::InvalidArgument("join request requires both relations"));
  }
  tape::TapeLibrary* library = site_->library();
  if (library == nullptr) {
    return reject(Status::FailedPrecondition(
        "the query service needs a site with a tape library (relations are "
        "addressed by cartridge)"));
  }
  Result<int> r_slot = library->SlotOf(request.spec.r->volume);
  Result<int> s_slot = library->SlotOf(request.spec.s->volume);
  if (!r_slot.ok() || !s_slot.ok()) {
    return reject(Status::FailedPrecondition(
        "a requested relation is not resident on a library cartridge"));
  }
  // Demands no schedule could ever satisfy are rejected now rather than
  // queued forever; transient shortages are what the queue is for.
  if (request.memory_blocks == 0 || request.memory_blocks > site_->memory_blocks()) {
    return reject(Status::ResourceExhausted(
        StrFormat("memory demand of %llu blocks exceeds the site's %llu",
                  static_cast<unsigned long long>(request.memory_blocks.value()),
                  static_cast<unsigned long long>(site_->memory_blocks().value()))));
  }
  if (request.disk_blocks > site_->session_disk_blocks()) {
    return reject(Status::ResourceExhausted(
        StrFormat("disk demand of %llu blocks exceeds the site's %llu available to sessions",
                  static_cast<unsigned long long>(request.disk_blocks.value()),
                  static_cast<unsigned long long>(site_->session_disk_blocks().value()))));
  }
  // Explicit ids must be unique among pending requests: a duplicate would
  // put the same id twice into the cartridge index, and Take()/Unindex()
  // would later pair the wrong request with the wrong index entry.
  if (request.id == 0) {
    if (next_id_ == std::numeric_limits<std::uint64_t>::max() && IsQueued(next_id_)) {
      return reject(Status::ResourceExhausted("request id space exhausted"));
    }
    request.id = next_id_;
  } else if (IsQueued(request.id)) {
    return reject(Status::InvalidArgument(
        StrFormat("request id %llu is already queued",
                  static_cast<unsigned long long>(request.id))));
  }
  // Advance the auto-id cursor past every id seen, saturating instead of
  // wrapping back to ids that may still be queued.
  if (request.id >= next_id_) {
    next_id_ = request.id == std::numeric_limits<std::uint64_t>::max() ? request.id
                                                                       : request.id + 1;
  }
  std::uint64_t id = request.id;
  cartridge_queues_[*s_slot].push_back(id);
  queue_.push_back(std::move(request));
  return id;
}

std::size_t QueryScheduler::pending_on(int slot) const {
  auto it = cartridge_queues_.find(slot);
  return it == cartridge_queues_.end() ? 0 : it->second.size();
}

void QueryScheduler::Unindex(const JoinRequest& request) {
  Result<int> slot = site_->library()->SlotOf(request.spec.s->volume);
  if (!slot.ok()) return;
  auto it = cartridge_queues_.find(*slot);
  if (it == cartridge_queues_.end()) return;
  auto pos = std::find(it->second.begin(), it->second.end(), request.id);
  if (pos != it->second.end()) it->second.erase(pos);
  if (it->second.empty()) cartridge_queues_.erase(it);
}

bool QueryScheduler::IsQueued(std::uint64_t id) const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [id](const JoinRequest& r) { return r.id == id; });
}

JoinRequest QueryScheduler::Take(std::uint64_t id) {
  auto pos = std::find_if(queue_.begin(), queue_.end(),
                          [id](const JoinRequest& r) { return r.id == id; });
  TERTIO_CHECK(pos != queue_.end(), "taking a request that is not queued");
  JoinRequest request = std::move(*pos);
  queue_.erase(pos);
  Unindex(request);
  return request;
}

int QueryScheduler::DriveIndexHolding(int slot) const {
  tape::TapeDrive* holder = site_->library()->MountedIn(slot);
  if (holder == nullptr) return -1;
  for (int i = 0; i < site_->drive_count(); ++i) {
    if (site_->drive(i) == holder) return i;
  }
  return -1;
}

std::vector<int> QueryScheduler::PreferredDrivesFor(const JoinRequest& request) const {
  Result<int> r_slot = site_->library()->SlotOf(request.spec.r->volume);
  Result<int> s_slot = site_->library()->SlotOf(request.spec.s->volume);
  int want_r = r_slot.ok() ? DriveIndexHolding(*r_slot) : -1;
  int want_s = s_slot.ok() ? DriveIndexHolding(*s_slot) : -1;
  if (want_r < 0 && want_s < 0) return {};
  return {want_r, want_s};
}

void QueryScheduler::Dispatch(JoinRequest request, SimSeconds at, bool rider) {
  InFlight& record = in_flight_.emplace_back();
  record.seq = next_seq_++;
  record.dispatch = at;
  record.s = request.spec.s;
  record.rider = rider;
  peak_in_flight_ = std::max<std::uint64_t>(peak_in_flight_, in_flight_.size());
  clock_ = at;
  QueryOutcome& out = record.outcome;
  out.id = request.id;
  out.arrival = request.arrival;
  // A failure below completes the query at its dispatch time (the global
  // horizon may be another in-flight session's future, not this query's).
  out.start = at;
  out.completion = at;

  SessionResources res;
  res.name = StrFormat("q%llu", static_cast<unsigned long long>(request.id));
  res.memory_blocks = request.memory_blocks;
  res.disk_blocks = request.disk_blocks;
  // Route the session onto drives already holding its cartridges: a rider
  // lands on the drive carrying its window, and a query whose cartridge
  // another session left mounted stays executable.
  res.preferred_drives = PreferredDrivesFor(request);
  Result<std::unique_ptr<QuerySession>> session = QuerySession::Open(site_, res);
  if (!session.ok()) {
    out.status = session.status();
    return;
  }

  tape::TapeLibrary* library = site_->library();
  Result<int> r_slot = library->SlotOf(request.spec.r->volume);
  Result<int> s_slot = library->SlotOf(request.spec.s->volume);
  // Admission checked residency; a cartridge cannot leave the library.
  TERTIO_CHECK(r_slot.ok() && s_slot.ok(), "admitted relation left the library");
  Result<sim::Interval> mounted_r = (*session)->MountR(*r_slot, at);
  Result<sim::Interval> mounted_s = mounted_r.ok() ? (*session)->MountS(*s_slot, at) : mounted_r;
  if (!mounted_s.ok()) {
    out.status = mounted_s.status();
    return;
  }
  // The join anchors exactly when this query's mounts are done — not at the
  // global horizon, which may include other sessions' work and trailing
  // asynchronous writes.
  SimSeconds start = std::max(at, std::max(mounted_r->end, mounted_s->end));

  // A rider's S reads are multicast from its window; anyone else probes the
  // extent cache, arming the S drive's cache window on a hit so the S
  // passes read the disk copy.
  disk::ExtentCache* cache = site_->extent_cache();
  bool cache_hit = false;
  if (cache != nullptr && !rider) {
    cache_hit = (*session)->EnableCachedSRead(*request.spec.s, start);
  }

  join::JoinContext ctx = (*session)->context(start);
  ctx.exact_anchor = true;
  std::unique_ptr<join::JoinMethod> executor = join::CreateJoinMethod(request.method);
  TERTIO_CHECK(executor != nullptr, "unknown join method");
  Result<join::JoinStats> stats = executor->Execute(request.spec, ctx);
  if (!stats.ok()) {
    out.status = stats.status();
    return;
  }
  out.start = start;
  out.stats = std::move(*stats);
  out.completion = out.start + out.stats.response_seconds;
  out.scan_shared = out.stats.tape_blocks_shared > 0;
  out.cached = out.stats.tape_blocks_cached > 0;

  if (cache != nullptr && !cache_hit && !out.scan_shared) {
    // The join just paid a physical pass over S; admit the extent so the
    // next query on it reads disk. Admission failure (e.g. a faulted fill
    // write) only costs the copy — the query itself already succeeded.
    const rel::Relation& s = *request.spec.s;
    (void)cache->Admit(s.volume, s.start_block, s.blocks,  // failure only skips the copy
                       site_->EffectiveTapeRate(s.compressibility), out.completion);
  }
  // The session stays open (drives, M_q, D_q held) until the query retires
  // in virtual-completion order.
  record.session = std::move(*session);
}

bool QueryScheduler::ResourcesFit(const JoinRequest& request) {
  if (site_->free_drives() < 2) return false;
  // A cartridge mounted in a drive another session holds pins the query: it
  // can only run once that session retires (Mount refuses to steal it).
  for (const rel::Relation* relation : {request.spec.r, request.spec.s}) {
    Result<int> slot = site_->library()->SlotOf(relation->volume);
    if (!slot.ok()) return false;
    int holder = DriveIndexHolding(*slot);
    if (holder >= 0 && site_->drive_leased(holder)) return false;
  }
  if (site_->memory().reserved_blocks() + request.memory_blocks > site_->memory_blocks()) {
    return false;
  }
  if (site_->disks().allocator().free_blocks() < request.disk_blocks) return false;
  return true;
}

std::uint64_t QueryScheduler::PickElevator() {
  if (queue_.empty()) return 0;
  SimSeconds min_arrival = queue_.front().arrival;
  for (const JoinRequest& r : queue_) min_arrival = std::min(min_arrival, r.arrival);
  // The eligibility reference: nothing dispatches before the earliest
  // arrival, and the sweep only reorders queries that have arrived by then.
  SimSeconds ref = std::max(clock_, min_arrival);

  // Aging bound: a query the sweep has bypassed for longer than the limit
  // goes next, oldest first — the elevator's starvation valve.
  const JoinRequest* aged = nullptr;
  for (const JoinRequest& r : queue_) {
    if (r.arrival > ref || ref - r.arrival <= options_.elevator_aging_seconds) continue;
    if (aged == nullptr || r.arrival < aged->arrival ||
        (r.arrival == aged->arrival && r.id < aged->id)) {
      aged = &r;
    }
  }
  if (aged != nullptr) return aged->id;

  auto slot_of = [&](const JoinRequest& r) {
    Result<int> slot = site_->library()->SlotOf(r.spec.s->volume);
    return slot.ok() ? *slot : 0;
  };
  // SCAN: nearest eligible S slot in the sweep direction; deterministic
  // tie-break by (slot, arrival, id) so outcomes are independent of
  // submission interleaving.
  const JoinRequest* best = nullptr;
  int best_slot = 0;
  auto scan = [&](int dir) {
    for (const JoinRequest& r : queue_) {
      if (r.arrival > ref) continue;
      int slot = slot_of(r);
      if (dir > 0 ? slot < sweep_pos_ : slot > sweep_pos_) continue;
      int dist = slot > sweep_pos_ ? slot - sweep_pos_ : sweep_pos_ - slot;
      int best_dist = best_slot > sweep_pos_ ? best_slot - sweep_pos_ : sweep_pos_ - best_slot;
      if (best == nullptr || dist < best_dist ||
          (dist == best_dist &&
           (r.arrival < best->arrival || (r.arrival == best->arrival && r.id < best->id)))) {
        best = &r;
        best_slot = slot;
      }
    }
  };
  scan(sweep_dir_);
  if (best == nullptr) {
    // End of the sweep: reverse. Every eligible slot lies behind us now.
    sweep_dir_ = -sweep_dir_;
    scan(sweep_dir_);
  }
  TERTIO_CHECK(best != nullptr, "elevator found no eligible request on either side");
  sweep_pos_ = best_slot;
  return best->id;
}

std::uint64_t QueryScheduler::PickCandidate() {
  if (queue_.empty()) return 0;
  // Riders go first while their window lives; an unload by another session
  // (TapeDrive::Unload) kills a window, and its riders queue normally.
  std::erase_if(riders_, [](const Rider& r) { return !r.drive->shared_pass_active(); });
  if (!riders_.empty()) return riders_.front().id;
  if (policy_ == ServicePolicy::kElevator) return PickElevator();
  auto best = std::min_element(queue_.begin(), queue_.end(),
                               [](const JoinRequest& a, const JoinRequest& b) {
                                 if (a.arrival != b.arrival) return a.arrival < b.arrival;
                                 return a.id < b.id;
                               });
  return best->id;
}

void QueryScheduler::RetireEarliest() {
  TERTIO_CHECK(!in_flight_.empty(), "retiring with nothing in flight");
  std::size_t pick = 0;
  for (std::size_t i = 1; i < in_flight_.size(); ++i) {
    const QueryOutcome& a = in_flight_[i].outcome;
    const QueryOutcome& b = in_flight_[pick].outcome;
    if (a.completion < b.completion ||
        (a.completion == b.completion && in_flight_[i].seq < in_flight_[pick].seq)) {
      pick = i;
    }
  }
  InFlight record = std::move(in_flight_[pick]);
  in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(pick));
  // Close the session first: resources return before the completion
  // callback observes the outcome.
  record.session.reset();
  // A leader that failed never swept S, so there is nothing to ride; the
  // queries on its cartridge wait their regular turn.
  if (policy_ == ServicePolicy::kSharedScan && !record.rider && record.outcome.status.ok()) {
    ArmRiderWindow(*record.s, record.dispatch);
  }
  clock_ = std::max(clock_, record.outcome.completion);
  outcomes_.push_back(std::move(record.outcome));
  if (on_complete_) on_complete_(outcomes_.back());
}

void QueryScheduler::ArmRiderWindow(const rel::Relation& s, SimSeconds dispatch) {
  Result<int> slot = site_->library()->SlotOf(s.volume);
  if (!slot.ok()) return;
  auto queued = cartridge_queues_.find(*slot);
  tape::TapeDrive* holder = site_->library()->MountedIn(*slot);
  if (queued == cartridge_queues_.end() || holder == nullptr) return;
  std::size_t before = riders_.size();
  for (std::uint64_t id : queued->second) {
    auto pos = std::find_if(queue_.begin(), queue_.end(),
                            [id](const JoinRequest& r) { return r.id == id; });
    if (pos != queue_.end() && pos->arrival <= dispatch) {
      riders_.push_back({id, pos->arrival, holder});
    }
  }
  if (riders_.size() == before) return;
  // The leader's pass swept its S relation's blocks; declaring them a
  // shared window on the drive still holding the cartridge multicasts the
  // riders' S reads instead of re-reading them. The window is drive state:
  // it survives the riders' session churn while the cartridge stays
  // mounted.
  holder->SetSharedPassWindow(s.start_block, s.blocks);
  // The cartridge index holds ids in submission order, which a closed-loop
  // client's Submit() interleaving can permute; riders dispatch in
  // (arrival, id) order so outcomes never depend on it.
  std::sort(riders_.begin(), riders_.end(), [](const Rider& a, const Rider& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  });
}

Status QueryScheduler::Run() {
  std::uint64_t robot_ops_before = 0;
  if (site_->library() != nullptr) {
    robot_ops_before = site_->library()->robot()->stats().op_count;
  }
  // Event-driven dispatch: each iteration either dispatches the policy's
  // next candidate (when capacity and site resources allow) or retires the
  // earliest in-flight completion. Retirement precedes any dispatch at or
  // after that completion, so closed-loop submissions from on_complete are
  // visible to every later dispatch decision, and outcomes_ is ordered by
  // virtual completion time.
  while (!queue_.empty() || !in_flight_.empty()) {
    // A full service retires before it picks: nothing could start, and the
    // retirement's closed-loop submissions may change the pick.
    bool full = static_cast<int>(in_flight_.size()) >= options_.max_in_flight;
    std::uint64_t candidate_id = full ? 0 : PickCandidate();
    if (candidate_id == 0) {
      // Full or nothing queued: retire in-flight work (closed-loop clients
      // may submit more from the completions) until the service is idle.
      if (in_flight_.empty()) break;
      RetireEarliest();
      continue;
    }
    auto pos = std::find_if(queue_.begin(), queue_.end(),
                            [candidate_id](const JoinRequest& r) {
                              return r.id == candidate_id;
                            });
    TERTIO_CHECK(pos != queue_.end(), "candidate left the queue");
    const JoinRequest* candidate = &*pos;
    SimSeconds dispatch = std::max(clock_, candidate->arrival);
    // Retire everything completing by the dispatch time first — those
    // sessions' resources are free again at `dispatch`, and their
    // closed-loop submissions may change the candidate.
    if (!in_flight_.empty()) {
      SimSeconds earliest = in_flight_.front().outcome.completion;
      for (const InFlight& record : in_flight_) {
        earliest = std::min(earliest, record.outcome.completion);
      }
      if (earliest <= dispatch) {
        RetireEarliest();
        continue;
      }
    }
    if (!ResourcesFit(*candidate) && !in_flight_.empty()) {
      RetireEarliest();
      continue;
    }
    // Either the candidate fits, or its demand exceeds even an idle site:
    // it is dispatched anyway and fails into its outcome.
    auto rider = std::find_if(riders_.begin(), riders_.end(),
                              [candidate_id](const Rider& r) { return r.id == candidate_id; });
    tape::TapeDrive* window = rider != riders_.end() ? rider->drive : nullptr;
    if (window != nullptr) riders_.erase(rider);
    Dispatch(Take(candidate_id), dispatch, window != nullptr);
    // The window closes once its last rider has dispatched.
    if (window != nullptr &&
        std::none_of(riders_.begin(), riders_.end(),
                     [window](const Rider& r) { return r.drive == window; })) {
      window->ClearSharedPassWindow();
    }
  }
  makespan_ = site_->sim().Horizon();
  if (site_->library() != nullptr) {
    robot_exchanges_ += site_->library()->robot()->stats().op_count - robot_ops_before;
  }
  return Status::OK();
}

ServiceStats QueryScheduler::service_stats() const {
  ServiceStats stats;
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.makespan = makespan_;
  stats.robot_exchanges = robot_exchanges_;
  stats.peak_in_flight = peak_in_flight_;
  for (const QueryOutcome& out : outcomes_) {
    if (out.status.ok()) {
      ++stats.completed;
    } else {
      ++stats.failed;
    }
    if (out.scan_shared) ++stats.scan_shared_queries;
    if (out.cached) ++stats.cached_queries;
    stats.tape_blocks_read += out.stats.tape_blocks_read;
    stats.tape_blocks_shared += out.stats.tape_blocks_shared;
    stats.tape_blocks_cached += out.stats.tape_blocks_cached;
  }
  if (disk::ExtentCache* cache = site_->extent_cache(); cache != nullptr) {
    stats.cache_hits = cache->stats().hits;
    stats.cache_misses = cache->stats().misses;
    stats.cache_fills = cache->stats().fills;
    stats.cache_evictions = cache->stats().evictions;
  }
  return stats;
}

}  // namespace tertio::exec
