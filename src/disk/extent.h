#pragma once

/// \file extent.h
/// A contiguous run of blocks on one disk of a striped group, and the
/// slicing of an extent list by logical block range.
///
/// Every chunk of a disk-side Transfer addresses blocks [offset,
/// offset+count) of an allocation's logical sequence. ExtentCursor maps such
/// a range to its extents without allocating: it remembers the extent the
/// previous slice started in (its index and logical start) and refills one
/// reused buffer, so a forward chunk sequence slices in amortised O(1) per
/// chunk. A retry re-slices the same offset from the remembered extent; a
/// backward offset (a checkpoint resume, a ring wrap) rescans from the head.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"
#include "util/units.h"

namespace tertio::disk {

/// Contiguous blocks [start, start+count) on disk `disk`.
struct Extent {
  int disk = 0;
  BlockIndex start = 0;
  BlockCount count = 0;

  bool operator==(const Extent&) const = default;
};

/// An allocation: ordered list of extents, possibly spanning several disks.
using ExtentList = std::vector<Extent>;

/// Total blocks covered by `extents`.
inline BlockCount TotalBlocks(const ExtentList& extents) {
  BlockCount total = 0;
  for (const Extent& e : extents) total += e.count;
  return total;
}

/// Allocation-free slicer over one extent list (see the file comment). The
/// list must outlive the cursor; appending to it keeps the cursor valid,
/// any other mutation needs a fresh cursor.
class ExtentCursor {
 public:
  explicit ExtentCursor(const ExtentList* extents) : extents_(extents) {}

  /// The sub-range of the list covering blocks [offset, offset + count) of
  /// its logical sequence, or InvalidArgument when the range extends past
  /// the sequence. The returned list is the cursor's buffer: valid until the
  /// next Slice() call.
  Result<const ExtentList*> Slice(BlockCount offset, BlockCount count);

 private:
  const ExtentList* extents_;
  /// First extent the previous slice touched, and its logical start block.
  std::size_t index_ = 0;
  BlockCount index_start_ = 0;
  ExtentList slice_;
};

/// One-shot ExtentCursor::Slice() into a fresh list — for callers slicing
/// a list once.
Result<ExtentList> SliceExtents(const ExtentList& extents, BlockCount offset, BlockCount count);

}  // namespace tertio::disk
