#include "relation/block.h"

#include <cstring>

#include "util/string_util.h"

namespace tertio::rel {

BlockBuilder::BlockBuilder(const Schema* schema, ByteCount block_bytes)
    : schema_(schema), block_bytes_(block_bytes), capacity_(TuplesPerBlock(*schema, block_bytes)) {
  TERTIO_CHECK(schema != nullptr, "block builder requires a schema");
  buffer_.reserve(block_bytes.value());
  buffer_.resize(kBlockHeaderBytes.value(), 0);
}

Status BlockBuilder::Append(std::span<const uint8_t> record) {
  if (record.size() != schema_->record_bytes()) {
    return Status::InvalidArgument(
        StrFormat("record of %zu bytes does not match schema record size %llu", record.size(),
                  static_cast<unsigned long long>(schema_->record_bytes().value())));
  }
  if (full()) {
    return Status::ResourceExhausted("block is full; call Finish() first");
  }
  buffer_.insert(buffer_.end(), record.begin(), record.end());
  ++count_;
  return Status::OK();
}

BlockPayload BlockBuilder::Finish() {
  uint32_t magic = kBlockMagic;
  auto count32 = static_cast<uint32_t>(count_);
  std::memcpy(buffer_.data(), &magic, sizeof(magic));
  std::memcpy(buffer_.data() + sizeof(magic), &count32, sizeof(count32));
  buffer_.resize(block_bytes_.value(), 0);
  BlockPayload payload = MakePayload(std::move(buffer_));
  buffer_ = {};
  buffer_.reserve(block_bytes_.value());
  buffer_.resize(kBlockHeaderBytes.value(), 0);
  count_ = 0;
  return payload;
}

Result<BlockReader> BlockReader::Open(const BlockPayload& payload, const Schema* schema) {
  TERTIO_CHECK(schema != nullptr, "block reader requires a schema");
  if (payload == nullptr) {
    return Status::InvalidArgument("cannot decode a phantom block (timing-only data)");
  }
  if (payload->size() < kBlockHeaderBytes) {
    return Status::InvalidArgument("block payload shorter than header");
  }
  uint32_t magic = 0;
  uint32_t count = 0;
  std::memcpy(&magic, payload->data(), sizeof(magic));
  std::memcpy(&count, payload->data() + sizeof(magic), sizeof(count));
  if (magic != kBlockMagic) {
    return Status::InvalidArgument("block payload has wrong magic (not a tertio block)");
  }
  if (kBlockHeaderBytes + count * schema->record_bytes() > payload->size()) {
    return Status::InvalidArgument("block record count exceeds payload size");
  }
  return BlockReader(payload, payload->data() + kBlockHeaderBytes.value(),
                     schema->record_bytes().value(), count);
}

}  // namespace tertio::rel
