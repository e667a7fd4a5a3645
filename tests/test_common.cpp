// Tests for the common substrate: tables, parallel-for, errors, arenas,
// the FNV digest builder.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"

namespace clflow {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"A", "LongHeader"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  const std::string s = t.ToString();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("| A      |"), std::string::npos);
  EXPECT_NE(s.find("| longer |"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"A", "B"});
  EXPECT_THROW(t.AddRow({"only-one"}), Error);
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.0, 0), "3");
  EXPECT_EQ(Table::Speedup(4.567), "4.57x");
  EXPECT_EQ(Table::Pct(0.37), "37%");
  EXPECT_EQ(Table::Pct(0.375, 1), "37.5%");
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  constexpr int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, 8, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  std::vector<int> order;
  ParallelFor(0, 5, 1, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  ParallelFor(5, 5, 4, [&](std::int64_t) { ++calls; });
  ParallelFor(7, 3, 4, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(ParallelFor(0, 100, 4,
                           [](std::int64_t i) {
                             if (i == 57) throw Error("boom");
                           }),
               Error);
}

TEST(ParallelChunks, ChunksPartitionTheRange) {
  std::atomic<std::int64_t> total{0};
  ParallelChunks(0, 1003, 7, [&](std::int64_t lo, std::int64_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 1003);
}

TEST(ParallelStats, InlineExecutionHasNoImbalance) {
  ParallelStats stats;
  ParallelFor(
      0, 100, 1, [](std::int64_t) {}, &stats);
  EXPECT_EQ(stats.workers, 1);
  EXPECT_DOUBLE_EQ(stats.imbalance_wait_us, 0.0);
  EXPECT_DOUBLE_EQ(stats.wall_us, stats.busy_us);
}

TEST(ParallelStats, SkewedChunksShowImbalanceWait) {
  // Static chunking puts all the work in the first chunk: the other
  // workers finish instantly and wait for the straggler.
  ParallelStats stats;
  ParallelChunks(
      0, 4, 4,
      [](std::int64_t lo, std::int64_t) {
        if (lo == 0) {
          volatile double sink = 0;
          for (int i = 0; i < 2000000; ++i) sink = sink + i;
        }
      },
      &stats);
  EXPECT_EQ(stats.workers, 4);
  EXPECT_GT(stats.wall_us, 0.0);
  EXPECT_GT(stats.imbalance_wait_us, 0.0);
  // Each call overwrites rather than accumulates; += merges manually.
  ParallelStats merged = stats;
  merged += stats;
  EXPECT_DOUBLE_EQ(merged.wall_us, 2 * stats.wall_us);
  ParallelFor(
      0, 2, 2, [](std::int64_t) {}, &stats);
  EXPECT_EQ(stats.workers, 2);
}

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1); }

TEST(Arena, BumpAllocatesAlignedWithinOneBlock) {
  common::Arena arena(1024);
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  // 3 bytes, then padding to the next 8-byte boundary, then 8 bytes.
  EXPECT_EQ(arena.bytes_used(), 11u);
  EXPECT_EQ(arena.num_allocations(), 2u);
  EXPECT_EQ(arena.num_blocks(), 1u);
}

TEST(Arena, OversizedRequestGetsDedicatedBlock) {
  common::Arena arena(64);
  void* big = arena.Allocate(1000, 8);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 1000u);
  // The big block is current; a small follow-up that does not fit its
  // remainder opens another block rather than scribbling out of bounds.
  for (int i = 0; i < 100; ++i) (void)arena.Allocate(64, 8);
  EXPECT_GE(arena.num_blocks(), 2u);
}

TEST(ArenaScope, MakeArenaSharedUsesScopedArenaAndOutlivesIt) {
  std::shared_ptr<int> survivor;
  auto arena = std::make_shared<common::Arena>();
  {
    common::ArenaScope scope(arena);
    ASSERT_NE(common::ArenaScope::Current(), nullptr);
    survivor = common::MakeArenaShared<int>(42);
    EXPECT_GT(arena->bytes_used(), 0u);
  }
  // Scope gone, arena reference dropped below: the allocate_shared
  // control block's allocator copy must keep the storage alive.
  std::weak_ptr<common::Arena> watch = arena;
  arena.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(*survivor, 42);
  survivor.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(ArenaScope, NestsAndFallsBackToHeapOutside) {
  EXPECT_EQ(common::ArenaScope::Current(), nullptr);
  auto outer = std::make_shared<common::Arena>();
  auto inner = std::make_shared<common::Arena>();
  {
    common::ArenaScope a(outer);
    EXPECT_EQ(common::ArenaScope::Current()->get(), outer.get());
    {
      common::ArenaScope b(inner);
      EXPECT_EQ(common::ArenaScope::Current()->get(), inner.get());
    }
    EXPECT_EQ(common::ArenaScope::Current()->get(), outer.get());
  }
  EXPECT_EQ(common::ArenaScope::Current(), nullptr);
  // Outside any scope MakeArenaShared is plain make_shared.
  auto p = common::MakeArenaShared<int>(7);
  EXPECT_EQ(*p, 7);
  EXPECT_EQ(outer->bytes_used(), 0u);
}

TEST(StringInterner, DeduplicatesAndPrecomputesHash) {
  common::StringInterner pool;
  const std::string a = "k_conv_c32f64k3s1p1_b1_a1_node4";
  const std::string b = a;  // distinct buffer, equal bytes
  const auto ia = pool.Intern(a);
  const auto ib = pool.Intern(b);
  EXPECT_EQ(ia.view.data(), ib.view.data());  // one stable copy
  EXPECT_NE(ia.view.data(), a.data());        // owned by the pool
  EXPECT_EQ(ia.hash, common::FnvHash(a));
  EXPECT_EQ(ib.hash, ia.hash);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.payload_bytes(), a.size());

  const auto ic = pool.Intern("something else");
  EXPECT_NE(ic.view.data(), ia.view.data());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringInterner, ViewsStableAcrossGrowth) {
  common::StringInterner pool(64);  // tiny blocks force arena growth
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 200; ++i) {
    originals.push_back("label_with_some_length_" + std::to_string(i));
  }
  views.reserve(originals.size());
  for (const auto& s : originals) views.push_back(pool.Intern(s).view);
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
    // Re-interning never moves the copy.
    EXPECT_EQ(pool.Intern(originals[i]).view.data(), views[i].data());
  }
  EXPECT_EQ(pool.size(), originals.size());
}

// Pinned outputs: every committed digest (compile-cache keys, histogram,
// series and loadgen digests, ranked DSE digests) depends on these bytes.
TEST(Fnv, BuilderOutputIsPinned) {
  common::Fnv s;
  s.Bytes("clflow", 6);
  EXPECT_EQ(s.h, 0xA9BBB024899E7E3CULL);
  EXPECT_EQ(common::FnvHash("clflow"), 0xA9BBB024899E7E3CULL);

  // U64 mixes little-endian bytes regardless of host order.
  common::Fnv u;
  u.U64(0x0123456789ABCDEFULL);
  EXPECT_EQ(u.h, 0xE1B1F298CFB61863ULL);
}

TEST(Check, ThrowsWithLocation) {
  try {
    CLFLOW_CHECK_MSG(false, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    EXPECT_NE(what.find("context message"), std::string::npos);
  }
}

}  // namespace
}  // namespace clflow
