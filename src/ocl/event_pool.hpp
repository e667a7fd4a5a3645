// SoA event pool for the discrete-event runtime.
//
// The runtime records one event per completed command slice, mirroring
// OpenCL event profiling info. Storing them as a vector of AoS structs made the hot enqueue path pay a
// heap-allocated std::string per event (the label) plus reallocation
// copies of every prior event's string as the vector grew; a steady-state
// serving loop (ClearEvents per request) re-paid those allocations every
// batch. The EventPool keeps events as structure-of-arrays columns
// indexed by slot:
//
//   * labels are interned (common::StringInterner) -- the label set of a
//     deployment is tiny and constant (one per kernel plus
//     "write"/"read"), so steady state allocates nothing;
//   * Clear()/AbortBatch recycle slots through a free list, so column
//     capacity -- like the interner pool -- is retained across batches;
//   * every recorded event gets a stable, monotonically increasing
//     EventId that is never reused, even as slots are: ids remain valid
//     correlation keys across ClearEvents/AbortBatch/failover replays.
//
// The pool is the only event representation: readers (trace export, SLO
// summaries, the profiler) iterate Views, lightweight per-event proxies
// assembled from the columns.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "common/sim_time.hpp"

namespace clflow::ocl {

enum class CommandKind { kWriteBuffer, kReadBuffer, kKernel };

class EventPool {
 public:
  using EventId = std::uint64_t;

  /// Label-memo geometry (see label_memo_ below): kLabelMemoSets sets of
  /// two ways, so a pair of labels hashing to one set never thrashes.
  static constexpr std::size_t kLabelMemoSets = 16;

  /// Non-owning view of one live event. The label view stays valid for
  /// the pool's lifetime (interned), not just the event's.
  struct View {
    std::string_view label;
    CommandKind kind = CommandKind::kKernel;
    int queue = 0;
    SimTime queued, start, end;
    /// Time this command spent blocked waiting for channel data (kernels
    /// only): start minus the moment it was otherwise ready to run.
    SimTime stall;
    /// Payload size for transfer commands; 0 for kernels.
    std::int64_t bytes = 0;
    /// Request-scoped causal identity, stamped by the runtime at record
    /// time: which Deployment::Run this command served (0 outside any
    /// request), this command's own span id (monotonic enqueue order on
    /// the single host thread, hence deterministic), and the request span
    /// it descends from. ExportChromeTrace turns these into flow arrows.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
    EventId id = 0;

    [[nodiscard]] SimTime duration() const { return end - start; }
  };

  /// Records one event into a fresh or recycled slot; returns its id.
  /// Ids start at 1 and never repeat for the lifetime of the pool.
  EventId Record(std::string_view label, CommandKind kind, int queue,
                 SimTime queued, SimTime start, SimTime end, SimTime stall,
                 std::int64_t bytes, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent_span_id);

  /// The pool's interned copy of `label`, valid for the pool's lifetime.
  /// A caller that records one label on every batch (a launch-table row)
  /// interns it once and records it with RecordInterned.
  [[nodiscard]] std::string_view Intern(std::string_view label) {
    return labels_pool_.Intern(label).view;
  }

  /// Record() of a label returned by Intern(): skips the label memo.
  EventId RecordInterned(std::string_view interned, CommandKind kind,
                         int queue, SimTime queued, SimTime start,
                         SimTime end, SimTime stall, std::int64_t bytes,
                         std::uint64_t trace_id, std::uint64_t span_id,
                         std::uint64_t parent_span_id);

  /// Returns every live slot to the free list. Column capacity and the
  /// label pool are retained; ids keep increasing.
  void Clear();

  /// Live events, in record order.
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }
  /// Total events ever recorded (== the last id handed out).
  [[nodiscard]] std::uint64_t total_recorded() const { return next_id_; }
  /// Slots currently allocated / parked on the free list.
  [[nodiscard]] std::size_t slots() const { return kinds_.size(); }
  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }
  /// Distinct label strings interned so far.
  [[nodiscard]] std::size_t distinct_labels() const {
    return labels_pool_.size();
  }

  /// i-th live event in record order (0 <= i < size()).
  [[nodiscard]] View operator[](std::size_t i) const;

  /// Looks up a live event by id; nullopt if it was cleared (or never
  /// existed). Linear in size().
  [[nodiscard]] std::optional<View> Find(EventId id) const;

  // Range over live Views in record order.
  class Iterator {
   public:
    Iterator(const EventPool* pool, std::size_t i) : pool_(pool), i_(i) {}
    [[nodiscard]] View operator*() const { return (*pool_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    [[nodiscard]] bool operator!=(const Iterator& o) const {
      return i_ != o.i_;
    }

   private:
    const EventPool* pool_;
    std::size_t i_;
  };
  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, size()}; }

 private:
  // SoA columns, indexed by slot.
  std::vector<std::string_view> labels_;
  std::vector<CommandKind> kinds_;
  std::vector<int> queues_;
  std::vector<SimTime> queued_, starts_, ends_, stalls_;
  std::vector<std::int64_t> bytes_;
  std::vector<std::uint64_t> trace_ids_, span_ids_, parent_span_ids_;
  std::vector<EventId> ids_;

  std::vector<std::uint32_t> order_;  ///< live slots, record order
  std::vector<std::uint32_t> free_;   ///< recycled slots
  common::StringInterner labels_pool_{8 * 1024};
  /// Two-way set-associative memo over recent labels. A deployment
  /// records the same handful of kernel/transfer names every batch, so
  /// most Record calls resolve the interned view with one or two content
  /// compares instead of a hash pass plus a map probe. Hits are verified
  /// byte-for-byte (never by caller pointer), so reused caller buffers
  /// stay correct. Layout: set s occupies slots 2s (MRU) and 2s+1 (LRU).
  std::array<std::string_view, 2 * kLabelMemoSets> label_memo_{};
  EventId next_id_ = 0;
};

}  // namespace clflow::ocl
