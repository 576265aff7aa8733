#include "disk/striped_group.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace tertio::disk {

DiskGroupConfig DiskGroupConfig::Uniform(int n, DiskModel model, BlockCount total_capacity_blocks,
                                         ByteCount block_bytes, BlockCount stripe_unit) {
  DiskGroupConfig config;
  TERTIO_CHECK(n > 0, "disk group requires at least one disk");
  BlockCount per_disk = (total_capacity_blocks + static_cast<BlockCount>(n) - 1) /
                        static_cast<BlockCount>(n);
  for (int i = 0; i < n; ++i) {
    config.disks.push_back(model);
    config.per_disk_capacity.push_back(per_disk);
  }
  config.block_bytes = block_bytes;
  config.stripe_unit = stripe_unit;
  return config;
}

StripedDiskGroup::StripedDiskGroup(const DiskGroupConfig& config, sim::Simulation* sim)
    : allocator_(config.per_disk_capacity, config.stripe_unit),
      block_bytes_(config.block_bytes) {
  TERTIO_CHECK(sim != nullptr, "disk group requires a simulation");
  TERTIO_CHECK(config.disks.size() == config.per_disk_capacity.size(),
               "disk models and capacities must align");
  for (size_t i = 0; i < config.disks.size(); ++i) {
    // Allocator sizing: each spindle's capacity must be expressible in
    // bytes before the volume materializes its block store.
    Result<ByteCount> sized =
        CheckedBlocksToBytes(config.per_disk_capacity[i], config.block_bytes);
    TERTIO_CHECK(sized.ok(), sized.status().ToString());
    std::string name = StrFormat("disk%zu", i);
    sim::Resource* resource = sim->CreateResource(name);
    owned_.push_back(std::make_unique<DiskVolume>(name, config.disks[i], resource,
                                                  config.per_disk_capacity[i],
                                                  config.block_bytes));
    disks_.push_back(owned_.back().get());
  }
}

StripedDiskGroup::StripedDiskGroup(std::vector<DiskVolume*> spindles, const ExtentList& region,
                                   BlockCount stripe_unit, ByteCount block_bytes)
    : disks_(std::move(spindles)),
      allocator_(static_cast<int>(disks_.size()), region, stripe_unit),
      block_bytes_(block_bytes) {
  for (const auto* d : disks_) TERTIO_CHECK(d != nullptr, "session view requires live spindles");
}

BytesPerSecond StripedDiskGroup::aggregate_rate_bps() const {
  BytesPerSecond total = 0.0;
  for (const auto& d : disks_) total += d->model().transfer_rate_bps;
  return total;
}

Result<sim::Interval> StripedDiskGroup::ReadExtents(const ExtentList& extents, SimSeconds ready,
                                                    std::vector<BlockPayload>* out) {
  sim::Interval hull = sim::Interval::At(ready);
  bool first = true;
  for (const Extent& extent : extents) {
    if (extent.disk < 0 || extent.disk >= disk_count()) {
      return Status::InvalidArgument(StrFormat("extent names unknown disk %d", extent.disk));
    }
    TERTIO_ASSIGN_OR_RETURN(
        sim::Interval interval,
        disks_[static_cast<size_t>(extent.disk)]->Read(extent.start, extent.count, ready, out));
    hull = first ? interval : sim::Interval::Hull(hull, interval);
    first = false;
  }
  return hull;
}

Result<sim::Interval> StripedDiskGroup::WriteExtents(const ExtentList& extents, SimSeconds ready,
                                                     const std::vector<BlockPayload>* payloads) {
  if (payloads != nullptr && payloads->size() != TotalBlocks(extents)) {
    return Status::InvalidArgument(
        StrFormat("payload count %zu does not match extent blocks %llu", payloads->size(),
                  static_cast<unsigned long long>(TotalBlocks(extents).value())));
  }
  sim::Interval hull = sim::Interval::At(ready);
  bool first = true;
  size_t offset = 0;
  for (const Extent& extent : extents) {
    if (extent.disk < 0 || extent.disk >= disk_count()) {
      return Status::InvalidArgument(StrFormat("extent names unknown disk %d", extent.disk));
    }
    const BlockPayload* slice = payloads != nullptr ? payloads->data() + offset : nullptr;
    TERTIO_ASSIGN_OR_RETURN(
        sim::Interval interval,
        disks_[static_cast<size_t>(extent.disk)]->Write(extent.start, extent.count, ready, slice));
    offset += extent.count.value();
    hull = first ? interval : sim::Interval::Hull(hull, interval);
    first = false;
  }
  return hull;
}

Result<sim::StageId> StripedDiskGroup::IssueRead(sim::Pipeline& pipe, std::string_view phase,
                                                 std::span<const sim::StageId> deps,
                                                 const ExtentList& extents,
                                                 std::vector<BlockPayload>* out,
                                                 int retry_limit) {
  BlockCount blocks = TotalBlocks(extents);
  // A mid-extent-list failure may already have delivered the earlier
  // extents' payloads; drop them at the top of every attempt so a retry
  // produces the list exactly once.
  const std::size_t restore = out != nullptr ? out->size() : 0;
  return pipe.StageWithRetry(
      phase, "disks", deps, blocks, blocks * block_bytes_,
      [&](SimSeconds ready) {
        if (out != nullptr) out->resize(restore);
        return ReadExtents(extents, ready, out);
      },
      retry_limit);
}

Result<sim::StageId> StripedDiskGroup::IssueWrite(sim::Pipeline& pipe, std::string_view phase,
                                                  std::span<const sim::StageId> deps,
                                                  const ExtentList& extents,
                                                  const std::vector<BlockPayload>* payloads) {
  BlockCount blocks = TotalBlocks(extents);
  return pipe.Stage(phase, "disks", deps, blocks, blocks * block_bytes_,
                    [&](SimSeconds ready) { return WriteExtents(extents, ready, payloads); });
}

Result<sim::Interval> ExtentReadSource::Read(BlockCount offset, BlockCount count,
                                             SimSeconds ready,
                                             std::vector<BlockPayload>* out) {
  TERTIO_ASSIGN_OR_RETURN(const ExtentList* slice, cursor_.Slice(offset, count));
  return group_->ReadExtents(*slice, ready, out);
}

Result<sim::Interval> ExtentWriteSink::Write(BlockCount offset, BlockCount count,
                                             SimSeconds ready,
                                             std::vector<BlockPayload>* payloads) {
  TERTIO_ASSIGN_OR_RETURN(const ExtentList* slice, cursor_.Slice(offset, count));
  return group_->WriteExtents(*slice, ready, payloads);
}

DiskStats StripedDiskGroup::TotalStats() const {
  DiskStats total;
  for (const auto& d : disks_) {
    total.blocks_read += d->stats().blocks_read;
    total.blocks_written += d->stats().blocks_written;
    total.requests += d->stats().requests;
    total.positioned_requests += d->stats().positioned_requests;
  }
  return total;
}

sim::FaultStats StripedDiskGroup::TotalFaultStats() const {
  sim::FaultStats total;
  for (const auto& d : disks_) {
    if (d->fault_injector() != nullptr) total.Add(d->fault_injector()->stats());
  }
  return total;
}

}  // namespace tertio::disk
