#include "query/sinks.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "hash/hasher.h"
#include "join/join_output.h"

namespace tertio::query {
namespace {

/// 64-bit digest of one group-key vector. Each element mixes its variant
/// alternative and content through splitmix64 (hash::HashKey), so keys that
/// differ only in type ((int64)1 vs 1.0) digest apart.
std::uint64_t HashKeyVector(const std::vector<Value>& key) {
  std::uint64_t digest = hash::HashKey(static_cast<std::int64_t>(key.size()));
  for (const Value& value : key) {
    std::uint64_t element = hash::HashKey(static_cast<std::int64_t>(value.index()));
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      element ^= hash::HashKey(*i);
    } else if (const auto* d = std::get_if<double>(&value)) {
      std::int64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(*d));
      std::memcpy(&bits, d, sizeof(bits));
      element ^= hash::HashKey(bits);
    } else {
      // The join layer's byte digest (already fully avalanched).
      const auto& s = std::get<std::string>(value);
      element ^= join::HashBytes(
          std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
    }
    digest = hash::HashKey(static_cast<std::int64_t>(digest ^ element));
  }
  return digest;
}

}  // namespace

FilterSink::FilterSink(ExprPtr predicate, RowSink* next)
    : predicate_(std::move(predicate)), next_(next) {
  TERTIO_CHECK(predicate_ != nullptr, "filter requires a predicate");
  TERTIO_CHECK(next != nullptr, "filter requires a downstream sink");
}

Status FilterSink::Consume(const Row& row) {
  ++rows_in_;
  TERTIO_ASSIGN_OR_RETURN(Value verdict, predicate_->Eval(row));
  const auto* flag = std::get_if<std::int64_t>(&verdict);
  if (flag == nullptr) {
    return Status::InvalidArgument("filter predicate must produce an integer");
  }
  if (*flag == 0) return Status::OK();
  ++rows_out_;
  return next_->Consume(row);
}

ProjectSink::ProjectSink(std::vector<ExprPtr> exprs, RowSink* next)
    : exprs_(std::move(exprs)), next_(next) {
  TERTIO_CHECK(!exprs_.empty(), "projection requires at least one expression");
  TERTIO_CHECK(next != nullptr, "projection requires a downstream sink");
}

Status ProjectSink::Consume(const Row& row) {
  Row out;
  out.values.reserve(exprs_.size());
  for (const ExprPtr& expr : exprs_) {
    TERTIO_ASSIGN_OR_RETURN(Value value, expr->Eval(row));
    out.values.push_back(std::move(value));
  }
  return next_->Consume(out);
}

AggregateSink::AggregateSink(std::vector<ExprPtr> group_by, std::vector<AggSpec> aggregates,
                             RowSink* next)
    : group_by_(std::move(group_by)), aggregates_(std::move(aggregates)), next_(next) {
  TERTIO_CHECK(next != nullptr, "aggregation requires a downstream sink");
  TERTIO_CHECK(!aggregates_.empty(), "aggregation requires at least one aggregate");
  for (const AggSpec& spec : aggregates_) {
    TERTIO_CHECK(spec.kind == AggKind::kCount || spec.input != nullptr,
                 "non-count aggregates require an input expression");
  }
}

Status AggregateSink::Consume(const Row& row) {
  std::vector<Value> key;
  key.reserve(group_by_.size());
  for (const ExprPtr& expr : group_by_) {
    TERTIO_ASSIGN_OR_RETURN(Value value, expr->Eval(row));
    key.push_back(std::move(value));
  }
  std::vector<Group>& chain = groups_[HashKeyVector(key)];
  Group* group = nullptr;
  for (Group& candidate : chain) {
    if (candidate.key == key) {
      group = &candidate;
      break;
    }
  }
  if (group == nullptr) {
    chain.push_back(Group{std::move(key), GroupState{}});
    group = &chain.back();
    ++group_count_;
  }
  GroupState& state = group->state;
  if (!state.initialized) {
    state.counts.assign(aggregates_.size(), 0);
    state.sums.assign(aggregates_.size(), 0.0);
    state.mins.assign(aggregates_.size(), Value{std::int64_t{0}});
    state.maxs.assign(aggregates_.size(), Value{std::int64_t{0}});
    state.initialized = true;
  }
  for (std::size_t i = 0; i < aggregates_.size(); ++i) {
    const AggSpec& spec = aggregates_[i];
    if (spec.kind == AggKind::kCount) {
      state.counts[i] += 1;
      continue;
    }
    TERTIO_ASSIGN_OR_RETURN(Value value, spec.input->Eval(row));
    switch (spec.kind) {
      case AggKind::kSum:
      case AggKind::kAvg: {
        TERTIO_ASSIGN_OR_RETURN(double d, ValueAsDouble(value));
        state.sums[i] += d;
        state.counts[i] += 1;
        break;
      }
      case AggKind::kMin:
        if (state.counts[i] == 0 || ValueLess(value, state.mins[i])) state.mins[i] = value;
        state.counts[i] += 1;
        break;
      case AggKind::kMax:
        if (state.counts[i] == 0 || ValueLess(state.maxs[i], value)) state.maxs[i] = value;
        state.counts[i] += 1;
        break;
      case AggKind::kCount:
        break;
    }
  }
  return Status::OK();
}

Status AggregateSink::Finish() {
  // Hash order is arbitrary; sort so the output order matches the ordered
  // map this hash table replaced (lexicographic on the key vector).
  std::vector<const Group*> ordered;
  ordered.reserve(group_count_);
  for (const auto& [digest, chain] : groups_) {
    for (const Group& group : chain) ordered.push_back(&group);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Group* a, const Group* b) { return a->key < b->key; });
  for (const Group* group : ordered) {
    const GroupState& state = group->state;
    Row out;
    out.values = group->key;
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      switch (aggregates_[i].kind) {
        case AggKind::kCount:
          out.values.emplace_back(state.counts[i]);
          break;
        case AggKind::kSum:
          out.values.emplace_back(state.sums[i]);
          break;
        case AggKind::kAvg:
          out.values.emplace_back(state.counts[i] > 0
                                      ? state.sums[i] / static_cast<double>(state.counts[i])
                                      : 0.0);
          break;
        case AggKind::kMin:
          out.values.push_back(state.mins[i]);
          break;
        case AggKind::kMax:
          out.values.push_back(state.maxs[i]);
          break;
      }
    }
    TERTIO_RETURN_IF_ERROR(next_->Consume(out));
  }
  return next_->Finish();
}

}  // namespace tertio::query
