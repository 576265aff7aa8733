#pragma once

/// \file units.h
/// Strong size and time units used throughout tertio.
///
/// The paper's system model (Section 3) expresses relation sizes, memory and
/// disk space in *blocks*, and device performance in sustained transfer
/// rates. tertio follows that convention: the block is the unit of space and
/// of I/O granularity, and virtual time is measured in seconds.
///
/// The paper's entire cost model is dimensional analysis — `|R|`, `M`, `D`
/// and the Table 2 scratch bounds are block counts, device behavior is
/// bytes/second, response time is seconds — so the units are *strong types*,
/// not typedefs: each dimension is a distinct wrapper around its raw
/// representation, and only dimension-legal operators exist.
///
///   * `Blocks`  (aliases `BlockCount`) — a count of fixed-size blocks.
///   * `BlockIdx` (aliases `BlockIndex`) — a *position* in block space. An
///     index is an affine point, not a vector: `BlockIdx + Blocks` moves it,
///     `BlockIdx - BlockIdx` measures a distance (in `Blocks`), but
///     `BlockIdx + BlockIdx` does not compile.
///   * `Bytes` (aliases `ByteCount`) — a number of bytes.
///   * `SimSeconds` — virtual time (timestamps and durations).
///   * `BytesPerSecond` — a sustained device transfer rate.
///
/// Legal cross-dimension arithmetic is spelled by name or by physics:
/// `BytesToBlocks(bytes, block_bytes)`, `BlocksToBytes(blocks, block_bytes)`
/// (overflow-safe; checked variants return Result), and
/// `Bytes / BytesPerSecond -> SimSeconds` — the transfer-time formula of
/// Section 3.2. Illegal mixes (`Blocks + Bytes`, `SimSeconds * SimSeconds`,
/// passing `Bytes` to a `Blocks` parameter) fail to compile; the negative
/// harness under tests/units_compile_fail/ proves it.
///
/// Design rules (see DESIGN.md "Unit discipline"):
///   * Construction *from* the raw representation is implicit: a literal has
///     no dimension yet, the receiving parameter or field declares it
///     (`BlockCount chunk = 8`). Cross-dimension values cannot take this
///     path because no strong type converts *out* implicitly.
///   * `.value()` is the only escape hatch back to the raw value; the
///     `units` pack of tertio_lint audits unwraps at dimension-bearing call
///     sites.
///   * Scaling an integer quantity by a floating-point factor does not
///     compile (it would silently truncate the factor); unwrap explicitly.
///   * All wrappers are zero-overhead: same size as the raw type, trivially
///     copyable, every operator constexpr and inlined (static_asserts
///     below; the release bench smoke is the runtime check).
///
/// The paper reports sizes in decimal megabytes ("a 10,000 MB relation");
/// helpers below use decimal MB/GB to match the paper's tables, plus binary
/// KiB/MiB/GiB for buffer arithmetic.

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <type_traits>

#include "util/status.h"

namespace tertio {

namespace unit_internal {

/// A strong arithmetic wrapper: one dimension, one raw representation.
/// Same-dimension addition/subtraction/comparison, dimensionless scaling,
/// and the dimensionless ratio of two like quantities. Nothing else.
template <typename Tag, typename RepT>
class Quantity {
 public:
  using Rep = RepT;

  constexpr Quantity() = default;
  /// Implicit by design: a raw literal or counter has no dimension yet; the
  /// receiving parameter, field, or operand declares it. Dimension safety is
  /// not weakened because no strong type converts *out* implicitly.
  constexpr Quantity(Rep v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  /// The raw value — the only way out of the dimension system.
  [[nodiscard]] constexpr Rep value() const { return v_; }

  // Same-dimension arithmetic.
  friend constexpr Quantity operator+(Quantity a, Quantity b) { return Quantity(a.v_ + b.v_); }
  friend constexpr Quantity operator-(Quantity a, Quantity b) { return Quantity(a.v_ - b.v_); }
  constexpr Quantity& operator+=(Quantity o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ -= o.v_;
    return *this;
  }
  constexpr Quantity operator-() const
    requires(std::is_signed_v<Rep>)
  {
    return Quantity(-v_);
  }

  // Dimensionless scaling. For integer quantities the factor must itself be
  // integral: `blocks * 0.5` would truncate the factor to 0 before the
  // multiply, so it does not compile — unwrap explicitly instead.
  template <typename S>
    requires(std::is_arithmetic_v<S> && (std::is_integral_v<S> || std::is_floating_point_v<Rep>))
  friend constexpr Quantity operator*(Quantity a, S s) {
    return Quantity(a.v_ * static_cast<Rep>(s));
  }
  template <typename S>
    requires(std::is_arithmetic_v<S> && (std::is_integral_v<S> || std::is_floating_point_v<Rep>))
  friend constexpr Quantity operator*(S s, Quantity a) {
    return Quantity(static_cast<Rep>(s) * a.v_);
  }
  template <typename S>
    requires(std::is_arithmetic_v<S> && (std::is_integral_v<S> || std::is_floating_point_v<Rep>))
  friend constexpr Quantity operator/(Quantity a, S s) {
    return Quantity(a.v_ / static_cast<Rep>(s));
  }
  template <typename S>
    requires(std::is_arithmetic_v<S> && (std::is_integral_v<S> || std::is_floating_point_v<Rep>))
  constexpr Quantity& operator*=(S s) {
    v_ *= static_cast<Rep>(s);
    return *this;
  }
  template <typename S>
    requires(std::is_arithmetic_v<S> && (std::is_integral_v<S> || std::is_floating_point_v<Rep>))
  constexpr Quantity& operator/=(S s) {
    v_ /= static_cast<Rep>(s);
    return *this;
  }

  /// The ratio of two like quantities is dimensionless (integer division for
  /// integer reps — chunk counts, fan-out — exactly as the raw code did).
  friend constexpr Rep operator/(Quantity a, Quantity b) { return a.v_ / b.v_; }
  /// Remainder within a dimension keeps the dimension (tail blocks, bytes).
  friend constexpr Quantity operator%(Quantity a, Quantity b)
    requires(std::is_integral_v<Rep>)
  {
    return Quantity(a.v_ % b.v_);
  }

  // Counters.
  constexpr Quantity& operator++()
    requires(std::is_integral_v<Rep>)
  {
    ++v_;
    return *this;
  }
  constexpr Quantity operator++(int)
    requires(std::is_integral_v<Rep>)
  {
    Quantity old = *this;
    ++v_;
    return old;
  }
  constexpr Quantity& operator--()
    requires(std::is_integral_v<Rep>)
  {
    --v_;
    return *this;
  }
  constexpr Quantity operator--(int)
    requires(std::is_integral_v<Rep>)
  {
    Quantity old = *this;
    --v_;
    return old;
  }

  friend constexpr bool operator==(Quantity, Quantity) = default;
  friend constexpr auto operator<=>(Quantity, Quantity) = default;

  /// Floating reps print at max_digits10, so the text round-trips to the
  /// same value (test failure messages and trace CSVs show ulp-level
  /// differences); the stream's precision is restored afterwards.
  friend std::ostream& operator<<(std::ostream& os, Quantity q) {
    if constexpr (std::is_floating_point_v<Rep>) {
      const std::streamsize precision = os.precision(std::numeric_limits<Rep>::max_digits10);
      os << q.v_;
      os.precision(precision);
      return os;
    } else {
      return os << q.v_;
    }
  }

 private:
  Rep v_;
};

struct BlocksTag;
struct BytesTag;
struct SecondsTag;
struct RateTag;

}  // namespace unit_internal

/// Count of fixed-size blocks (the paper's `|R|`, `|S|`, `M`, `D`, ...).
using Blocks = unit_internal::Quantity<unit_internal::BlocksTag, std::uint64_t>;

/// Number of bytes.
using Bytes = unit_internal::Quantity<unit_internal::BytesTag, std::uint64_t>;

/// Virtual time in seconds. All simulation timestamps and durations use this.
using SimSeconds = unit_internal::Quantity<unit_internal::SecondsTag, double>;

/// A sustained transfer rate (the paper's X_T, X_D), bytes per second.
using BytesPerSecond = unit_internal::Quantity<unit_internal::RateTag, double>;

/// Position of a block within a volume, extent, or logical sequence — an
/// affine point in block space, distinct from the `Blocks` vector:
/// `idx + Blocks` and `idx - Blocks` move the point, `idx - idx` measures a
/// distance, `idx % Blocks` / `idx / Blocks` decompose it against a stride,
/// but two positions cannot be added.
class BlockIdx {
 public:
  using Rep = std::uint64_t;

  constexpr BlockIdx() = default;
  constexpr BlockIdx(Rep v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] constexpr Rep value() const { return v_; }

  friend constexpr BlockIdx operator+(BlockIdx i, Blocks n) { return BlockIdx(i.v_ + n.value()); }
  friend constexpr BlockIdx operator+(Blocks n, BlockIdx i) { return BlockIdx(n.value() + i.v_); }
  friend constexpr BlockIdx operator-(BlockIdx i, Blocks n) { return BlockIdx(i.v_ - n.value()); }
  /// Distance between two positions.
  friend constexpr Blocks operator-(BlockIdx a, BlockIdx b) { return Blocks(a.v_ - b.v_); }
  /// Offset of the position within a `stride`-block unit (striping math).
  friend constexpr Blocks operator%(BlockIdx i, Blocks stride) {
    return Blocks(i.v_ % stride.value());
  }
  /// Which `stride`-block unit the position falls in (dimensionless ordinal).
  friend constexpr Rep operator/(BlockIdx i, Blocks stride) { return i.v_ / stride.value(); }

  constexpr BlockIdx& operator+=(Blocks n) {
    v_ += n.value();
    return *this;
  }
  constexpr BlockIdx& operator-=(Blocks n) {
    v_ -= n.value();
    return *this;
  }
  constexpr BlockIdx& operator++() {
    ++v_;
    return *this;
  }
  constexpr BlockIdx operator++(int) {
    BlockIdx old = *this;
    ++v_;
    return old;
  }
  constexpr BlockIdx& operator--() {
    --v_;
    return *this;
  }
  constexpr BlockIdx operator--(int) {
    BlockIdx old = *this;
    --v_;
    return old;
  }

  friend constexpr bool operator==(BlockIdx, BlockIdx) = default;
  friend constexpr auto operator<=>(BlockIdx, BlockIdx) = default;

  friend std::ostream& operator<<(std::ostream& os, BlockIdx i) { return os << i.v_; }

 private:
  Rep v_;
};

/// Seed-era names, kept as aliases: every signature spelled in terms of
/// BlockCount / BlockIndex / ByteCount is a strong-typed signature.
using BlockCount = Blocks;
using BlockIndex = BlockIdx;
using ByteCount = Bytes;

// Zero overhead, enforced: same size as the raw representation, trivially
// copyable (passes in registers, memcpy-safe), standard layout.
static_assert(sizeof(Blocks) == sizeof(std::uint64_t));
static_assert(sizeof(Bytes) == sizeof(std::uint64_t));
static_assert(sizeof(BlockIdx) == sizeof(std::uint64_t));
static_assert(sizeof(SimSeconds) == sizeof(double));
static_assert(sizeof(BytesPerSecond) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Blocks> && std::is_trivially_copyable_v<Bytes> &&
              std::is_trivially_copyable_v<BlockIdx> && std::is_trivially_copyable_v<SimSeconds> &&
              std::is_trivially_copyable_v<BytesPerSecond>);
static_assert(std::is_standard_layout_v<Blocks> && std::is_standard_layout_v<SimSeconds>);

/// Transfer time of `bytes` at a sustained `rate` — Section 3.2's only
/// byte/time bridge. (Defined as a free operator so the formula reads like
/// the paper: `bytes / X_T`.)
constexpr SimSeconds operator/(Bytes bytes, BytesPerSecond rate) {
  return SimSeconds(static_cast<double>(bytes.value()) / rate.value());
}

/// A position compared against a count is the array idiom (`idx < size`):
/// the count is measured from the origin. Comparison only — positions and
/// counts still do not mix in arithmetic or conversion.
constexpr std::strong_ordering operator<=>(BlockIdx i, Blocks n) {
  return i.value() <=> n.value();
}
constexpr bool operator==(BlockIdx i, Blocks n) { return i.value() == n.value(); }

/// Raw integers are dimensionless literals that adopt the dimension of the
/// strong operand (`idx < vec.size()`, `count != 0`). These exact-match
/// overloads keep such comparisons unambiguous between the position and
/// count interpretations (both of which a raw value can implicitly become).
template <typename S>
  requires std::is_integral_v<S>
constexpr std::strong_ordering operator<=>(BlockIdx i, S n) {
  return i.value() <=> static_cast<BlockIdx::Rep>(n);
}
template <typename S>
  requires std::is_integral_v<S>
constexpr bool operator==(BlockIdx i, S n) {
  return i.value() == static_cast<BlockIdx::Rep>(n);
}
template <typename S>
  requires std::is_integral_v<S>
constexpr std::strong_ordering operator<=>(Blocks a, S n) {
  return a.value() <=> static_cast<Blocks::Rep>(n);
}
template <typename S>
  requires std::is_integral_v<S>
constexpr bool operator==(Blocks a, S n) {
  return a.value() == static_cast<Blocks::Rep>(n);
}

/// The position `n` blocks past the origin (e.g. the end position of a
/// volume of `n` blocks) — the one sanctioned count→position conversion.
constexpr BlockIdx ToIndex(Blocks n) { return BlockIdx(n.value()); }

inline constexpr Bytes kKB{1000};
inline constexpr Bytes kMB{1000 * 1000};
inline constexpr Bytes kGB{std::uint64_t{1000} * 1000 * 1000};
inline constexpr Bytes kKiB{1024};
inline constexpr Bytes kMiB{1024 * 1024};
inline constexpr Bytes kGiB{std::uint64_t{1024} * 1024 * 1024};

/// Default block size. The paper does not fix a block size; it reasons in
/// blocks and notes that ≥30-block disk requests amortize positioning. 8 KiB
/// matches mid-90s page practice and — importantly for reproducing Table 3 —
/// makes the hash methods' per-bucket write buffers fine-grained enough that
/// M = 16 MB can partition a 2.5 GB relation (the paper's own boundary,
/// M >= sqrt(|R|) in blocks).
inline constexpr Bytes kDefaultBlockBytes = 8 * kKiB;

/// \returns the number of whole blocks needed to hold `bytes` (exact ceiling
/// division — wrap-proof for every `bytes`, unlike the textbook
/// `(a + b - 1) / b`). Aborts on a zero block size.
constexpr Blocks BytesToBlocks(Bytes bytes, Bytes block_bytes) {
  if (block_bytes.value() == 0) {
    internal::DieCheckFailure(__FILE__, __LINE__, "block_bytes != 0",
                              "BytesToBlocks: zero block size");
  }
  std::uint64_t q = bytes.value() / block_bytes.value();
  return Blocks(q + (bytes.value() % block_bytes.value() != 0 ? 1 : 0));
}

/// \returns `blocks` blocks' worth of bytes. Overflow-safe: a product that
/// would wrap the 64-bit byte count aborts (in a constant evaluation it
/// fails to compile) instead of silently producing a tiny byte count. Sizing
/// paths that want to *handle* the overflow use CheckedBlocksToBytes.
constexpr Bytes BlocksToBytes(Blocks blocks, Bytes block_bytes) {
  std::uint64_t out = 0;
  if (__builtin_mul_overflow(blocks.value(), block_bytes.value(), &out)) {
    internal::DieCheckFailure(__FILE__, __LINE__, "blocks * block_bytes overflows",
                              "BlocksToBytes: 64-bit byte count overflow");
  }
  return Bytes(out);
}

/// `count` blocks of `block_bytes` each — the paper's §3.2 size conversion
/// written as a product. Same overflow discipline as BlocksToBytes.
constexpr Bytes operator*(Blocks count, Bytes block_bytes) {
  return BlocksToBytes(count, block_bytes);
}
constexpr Bytes operator*(Bytes block_bytes, Blocks count) {
  return BlocksToBytes(count, block_bytes);
}

// A floating-point factor must not reach the Blocks*Bytes product: the
// implicit raw-to-quantity constructor would truncate it to an integral
// count of the *other* dimension first (0.9 * kMB == Blocks{0} * kMB == 0).
// Deleting the exact-match overloads turns that silent zero into a compile
// error; scale explicitly via .value() double math instead.
template <typename S>
  requires std::is_floating_point_v<S>
constexpr Bytes operator*(S, Bytes) = delete;
template <typename S>
  requires std::is_floating_point_v<S>
constexpr Bytes operator*(Bytes, S) = delete;
template <typename S>
  requires std::is_floating_point_v<S>
constexpr Bytes operator*(S, Blocks) = delete;
template <typename S>
  requires std::is_floating_point_v<S>
constexpr Bytes operator*(Blocks, S) = delete;

/// Overflow-checked BlocksToBytes: kInvalidArgument instead of aborting when
/// the byte count does not fit in 64 bits. Validation paths (SiteConfig,
/// allocator sizing) use this so a TB-class misconfiguration is a Status,
/// not a wrapped allocation.
inline Result<Bytes> CheckedBlocksToBytes(Blocks blocks, Bytes block_bytes) {
  std::uint64_t out = 0;
  if (__builtin_mul_overflow(blocks.value(), block_bytes.value(), &out)) {
    return Status::InvalidArgument("BlocksToBytes overflows 64-bit bytes: " +
                                   std::to_string(blocks.value()) + " blocks * " +
                                   std::to_string(block_bytes.value()) + " bytes/block");
  }
  return Bytes(out);
}

/// Checked BytesToBlocks: kInvalidArgument on a zero block size. (The
/// ceiling division itself cannot overflow.)
inline Result<Blocks> CheckedBytesToBlocks(Bytes bytes, Bytes block_bytes) {
  if (block_bytes.value() == 0) {
    return Status::InvalidArgument("BytesToBlocks: zero block size");
  }
  std::uint64_t q = bytes.value() / block_bytes.value();
  return Blocks(q + (bytes.value() % block_bytes.value() != 0 ? 1 : 0));
}

}  // namespace tertio

// Strong units hash like their raw values (extent maps, span keys).
template <>
struct std::hash<tertio::Blocks> {
  std::size_t operator()(tertio::Blocks b) const noexcept {
    return std::hash<std::uint64_t>{}(b.value());
  }
};
template <>
struct std::hash<tertio::Bytes> {
  std::size_t operator()(tertio::Bytes b) const noexcept {
    return std::hash<std::uint64_t>{}(b.value());
  }
};
template <>
struct std::hash<tertio::BlockIdx> {
  std::size_t operator()(tertio::BlockIdx i) const noexcept {
    return std::hash<std::uint64_t>{}(i.value());
  }
};
