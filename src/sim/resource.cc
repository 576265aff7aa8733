#include "sim/resource.h"

#include "sim/auditor.h"

namespace tertio::sim {

Interval Resource::Schedule(SimSeconds ready, SimSeconds duration, ByteCount bytes,
                            const char* tag) {
  TERTIO_CHECK(ready >= 0.0, "operation ready time must be non-negative");
  TERTIO_CHECK(duration >= 0.0, "operation duration must be non-negative");
  SimSeconds start = ready > available_ ? ready : available_;
  Interval interval{start, start + duration};
  available_ = interval.end;
  stats_.op_count += 1;
  stats_.bytes_transferred += bytes;
  stats_.busy_seconds += duration;
  if (interval.end > stats_.horizon) stats_.horizon = interval.end;
  if (horizon_cell_ != nullptr && interval.end > horizon_cell_->max_end) {
    horizon_cell_->max_end = interval.end;
  }
  if (trace_enabled_) trace_.push_back(OpRecord{interval, bytes, tag});
  if (auditor_ != nullptr) auditor_->OnSchedule(name_, ready, interval, bytes);
  return interval;
}

double Resource::Utilization(SimSeconds until) const {
  SimSeconds span = until < 0.0 ? stats_.horizon : until;
  if (span <= 0.0) return 0.0;
  double u = stats_.busy_seconds / span;
  return u > 1.0 ? 1.0 : u;
}

void Resource::Reset() {
  available_ = 0.0;
  stats_ = ResourceStats{};
  trace_.clear();
  // The cell's cached maximum may rest on this resource's discarded
  // timeline; only the owner of all bound resources can recompute it.
  if (horizon_cell_ != nullptr) horizon_cell_->stale = true;
  if (auditor_ != nullptr) auditor_->OnResourceReset(name_);
}

}  // namespace tertio::sim
