#pragma once

/// \file reference_extent_slice.h
/// Test oracle for disk::ExtentCursor: the per-call extent slicer, which
/// rescans the list from its head and returns a freshly allocated list on
/// every call. Production slices through ExtentCursor (disk/extent.h); the
/// differential tests hold both to the same slices and error text.

#include <algorithm>
#include <string>

#include "disk/extent.h"

namespace tertio::disk {

inline Result<ExtentList> ReferenceSliceExtents(const ExtentList& extents, BlockCount offset,
                                                BlockCount count) {
  ExtentList out;
  BlockCount pos = 0;
  for (const Extent& e : extents) {
    if (count == 0) break;
    BlockCount ext_end = pos + e.count;
    if (ext_end <= offset) {
      pos = ext_end;
      continue;
    }
    BlockCount skip = offset > pos ? offset - pos : 0;
    BlockCount take = std::min<BlockCount>(e.count - skip, count);
    out.push_back(Extent{e.disk, e.start + skip, take});
    count -= take;
    offset += take;
    pos = ext_end;
  }
  if (count != 0) {
    return Status::InvalidArgument("extent slice out of range: " + std::to_string(count.value()) +
                                   " blocks past the end of a " +
                                   std::to_string(TotalBlocks(extents).value()) + "-block sequence");
  }
  return out;
}

}  // namespace tertio::disk
