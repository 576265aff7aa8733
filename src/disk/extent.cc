#include "disk/extent.h"

#include <algorithm>
#include <string>

namespace tertio::disk {

Result<const ExtentList*> ExtentCursor::Slice(BlockCount offset, BlockCount count) {
  const ExtentList& extents = *extents_;
  slice_.clear();
  if (count == 0) return &slice_;
  if (offset < index_start_) {  // a backward offset rescans from the head
    index_ = 0;
    index_start_ = 0;
  }
  // Skip the extents that end at or before `offset`.
  while (index_ < extents.size() && index_start_ + extents[index_].count <= offset) {
    index_start_ += extents[index_].count;
    ++index_;
  }
  BlockCount pos = index_start_;
  for (std::size_t i = index_; i < extents.size() && count != 0; ++i) {
    const Extent& e = extents[i];
    BlockCount ext_end = pos + e.count;
    if (ext_end > offset) {  // false only for an empty extent inside the range
      BlockCount skip = offset > pos ? offset - pos : 0;
      BlockCount take = std::min<BlockCount>(e.count - skip, count);
      slice_.push_back(Extent{e.disk, e.start + skip, take});
      count -= take;
      offset += take;
    }
    pos = ext_end;
  }
  if (count != 0) {
    return Status::InvalidArgument("extent slice out of range: " + std::to_string(count.value()) +
                                   " blocks past the end of a " +
                                   std::to_string(TotalBlocks(extents).value()) + "-block sequence");
  }
  return &slice_;
}

Result<ExtentList> SliceExtents(const ExtentList& extents, BlockCount offset, BlockCount count) {
  ExtentCursor cursor(&extents);
  TERTIO_ASSIGN_OR_RETURN(const ExtentList* slice, cursor.Slice(offset, count));
  return *slice;
}

}  // namespace tertio::disk
