#include "tape/tape_volume.h"

#include "sim/auditor.h"
#include "util/string_util.h"

namespace tertio::tape {

Status TapeVolume::Append(BlockPayload payload, double compressibility) {
  if (compressibility < 0.0 || compressibility >= 1.0) {
    return Status::InvalidArgument("compressibility must be in [0, 1)");
  }
  if (capacity_blocks_ != 0 && compressibility_.size() >= capacity_blocks_) {
    return Status::ResourceExhausted(
        StrFormat("tape %s is full (%llu blocks)", name_.c_str(),
                  static_cast<unsigned long long>(capacity_blocks_.value())));
  }
  if (payload != nullptr) {
    payloads_.resize(compressibility_.size());
    payloads_.push_back(std::move(payload));
  }
  compressibility_.push_back(static_cast<float>(compressibility));
  if (auditor_ != nullptr) {
    auditor_->OnTapeOccupancy(name_, compressibility_.size(), capacity_blocks_);
  }
  return Status::OK();
}

Status TapeVolume::AppendPhantom(BlockCount count, double compressibility) {
  if (compressibility < 0.0 || compressibility >= 1.0) {
    return Status::InvalidArgument("compressibility must be in [0, 1)");
  }
  if (capacity_blocks_ != 0 && compressibility_.size() + count > capacity_blocks_) {
    return Status::ResourceExhausted(
        StrFormat("tape %s cannot hold %llu more blocks", name_.c_str(),
                  static_cast<unsigned long long>(count.value())));
  }
  compressibility_.insert(compressibility_.end(), count.value(),
                          static_cast<float>(compressibility));
  if (auditor_ != nullptr) {
    auditor_->OnTapeOccupancy(name_, compressibility_.size(), capacity_blocks_);
  }
  return Status::OK();
}

Result<BlockPayload> TapeVolume::ReadBlock(BlockIndex index) const {
  TERTIO_RETURN_IF_ERROR(CheckRange(index, 1));
  if (index >= payloads_.size()) return BlockPayload();
  return payloads_[index.value()];
}

Result<double> TapeVolume::Compressibility(BlockIndex index) const {
  TERTIO_RETURN_IF_ERROR(CheckRange(index, 1));
  return static_cast<double>(compressibility_[index.value()]);
}

Result<double> TapeVolume::MeanCompressibility(BlockIndex start, BlockCount count) const {
  TERTIO_RETURN_IF_ERROR(CheckRange(start, count));
  if (count == 0) return 0.0;
  double sum = 0.0;
  const float* block = compressibility_.data() + start.value();
  for (std::uint64_t i = 0; i < count.value(); ++i) sum += block[i];
  return sum / static_cast<double>(count.value());
}

Status TapeVolume::Truncate(BlockCount new_size) {
  if (new_size > compressibility_.size()) {
    return Status::InvalidArgument(
        StrFormat("cannot truncate tape %s to %llu blocks: only %zu recorded", name_.c_str(),
                  static_cast<unsigned long long>(new_size.value()), compressibility_.size()));
  }
  compressibility_.resize(new_size.value());
  if (payloads_.size() > compressibility_.size()) payloads_.resize(compressibility_.size());
  return Status::OK();
}

Status TapeVolume::CheckRange(BlockIndex start, BlockCount count) const {
  if (start + count > compressibility_.size()) {
    return Status::InvalidArgument(
        StrFormat("range [%llu, %llu) out of bounds on tape %s (%zu blocks)",
                  static_cast<unsigned long long>(start.value()),
                  static_cast<unsigned long long>((start + count).value()), name_.c_str(),
                  compressibility_.size()));
  }
  return Status::OK();
}

}  // namespace tertio::tape
