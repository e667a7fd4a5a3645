#include "ocl/event_pool.hpp"

#include "common/error.hpp"

namespace clflow::ocl {

namespace {

/// Memo set index from cheap label features (length plus boundary
/// bytes). Kernel labels differ in their "_node<N>" suffix, so the last
/// byte alone separates most of a deployment's label set.
std::size_t LabelMemoSet(std::string_view label) {
  std::size_t h = label.size();
  if (!label.empty()) {
    h = h * 31 + static_cast<unsigned char>(label.front());
    h = h * 31 + static_cast<unsigned char>(label.back());
  }
  return h % EventPool::kLabelMemoSets;
}

}  // namespace

// Flattened so the slot write in RecordInterned is inlined here: the
// memoized path is the one every caller without an interned label takes.
[[gnu::flatten]] EventPool::EventId EventPool::Record(
    std::string_view label, CommandKind kind, int queue, SimTime queued,
    SimTime start, SimTime end, SimTime stall, std::int64_t bytes,
    std::uint64_t trace_id, std::uint64_t span_id,
    std::uint64_t parent_span_id) {
  std::string_view* way = &label_memo_[2 * LabelMemoSet(label)];
  if (way[0] != label) {
    // Promote the hit (or the fresh intern) to the set's MRU way; the
    // previous MRU slides to the LRU way, evicting its occupant.
    const std::string_view hit =
        way[1] == label ? way[1] : Intern(label);
    way[1] = way[0];
    way[0] = hit;
  }
  return RecordInterned(way[0], kind, queue, queued, start, end, stall,
                        bytes, trace_id, span_id, parent_span_id);
}

EventPool::EventId EventPool::RecordInterned(
    std::string_view interned, CommandKind kind, int queue, SimTime queued,
    SimTime start, SimTime end, SimTime stall, std::int64_t bytes,
    std::uint64_t trace_id, std::uint64_t span_id,
    std::uint64_t parent_span_id) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    labels_[slot] = interned;
    kinds_[slot] = kind;
    queues_[slot] = queue;
    queued_[slot] = queued;
    starts_[slot] = start;
    ends_[slot] = end;
    stalls_[slot] = stall;
    bytes_[slot] = bytes;
    trace_ids_[slot] = trace_id;
    span_ids_[slot] = span_id;
    parent_span_ids_[slot] = parent_span_id;
  } else {
    slot = static_cast<std::uint32_t>(kinds_.size());
    labels_.push_back(interned);
    kinds_.push_back(kind);
    queues_.push_back(queue);
    queued_.push_back(queued);
    starts_.push_back(start);
    ends_.push_back(end);
    stalls_.push_back(stall);
    bytes_.push_back(bytes);
    trace_ids_.push_back(trace_id);
    span_ids_.push_back(span_id);
    parent_span_ids_.push_back(parent_span_id);
    ids_.push_back(0);
  }
  const EventId id = ++next_id_;
  ids_[slot] = id;
  order_.push_back(slot);
  return id;
}

void EventPool::Clear() {
  free_.insert(free_.end(), order_.begin(), order_.end());
  order_.clear();
}

EventPool::View EventPool::operator[](std::size_t i) const {
  CLFLOW_CHECK(i < order_.size());
  const std::uint32_t slot = order_[i];
  return View{labels_[slot],    kinds_[slot],
              queues_[slot],    queued_[slot],
              starts_[slot],    ends_[slot],
              stalls_[slot],    bytes_[slot],
              trace_ids_[slot], span_ids_[slot],
              parent_span_ids_[slot], ids_[slot]};
}

std::optional<EventPool::View> EventPool::Find(EventId id) const {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (ids_[order_[i]] == id) return (*this)[i];
  }
  return std::nullopt;
}

}  // namespace clflow::ocl
