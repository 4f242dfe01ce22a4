// Tests for the TestMemory fuzzing policy and the PerThreadSlots container.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "locks/lock_stats.hpp"
#include "locks/per_thread.hpp"
#include "platform/lock_registry.hpp"
#include "platform/test_memory.hpp"
#include "platform/thread_id.hpp"
#include "snzi/csnzi.hpp"

namespace oll {
namespace {

TEST(TestMemoryPolicy, AtomicSemanticsPreserved) {
  TestMemory::Atomic<int> x{5};
  FuzzYield::set_seed(12345);  // perturbation on
  EXPECT_EQ(x.load(std::memory_order_seq_cst), 5);
  x.store(7, std::memory_order_seq_cst);
  EXPECT_EQ(x.exchange(9, std::memory_order_seq_cst), 7);
  int expected = 9;
  EXPECT_TRUE(x.compare_exchange_strong(expected, 11, std::memory_order_seq_cst));
  expected = 999;
  EXPECT_FALSE(x.compare_exchange_strong(expected, 0, std::memory_order_seq_cst));
  EXPECT_EQ(expected, 11);
  TestMemory::Atomic<std::uint64_t> y{10};
  EXPECT_EQ(y.fetch_add(5, std::memory_order_seq_cst), 10u);
  EXPECT_EQ(y.fetch_sub(3, std::memory_order_seq_cst), 15u);
  EXPECT_EQ(y.fetch_or(0xF0, std::memory_order_seq_cst), 12u);
  EXPECT_EQ(y.fetch_and(0x0F, std::memory_order_seq_cst), 0xFCu);
  FuzzYield::set_seed(0);  // off again
}

TEST(TestMemoryPolicy, DisabledByDefault) {
  // With seed 0 (the default), maybe_yield must be a no-op — this test just
  // exercises the path; behavior is "no crash, no hang".
  TestMemory::Atomic<int> x{0};
  for (int i = 0; i < 1000; ++i) {
    x.fetch_add(1, std::memory_order_seq_cst);
  }
  EXPECT_EQ(x.load(std::memory_order_seq_cst), 1000);
}

TEST(TestMemoryPolicy, SeedIsPerThread) {
  // Enabling fuzzing on one thread must not affect another.
  std::atomic<bool> done{false};
  std::thread fuzzed([&] {
    FuzzYield::set_seed(42);
    TestMemory::Atomic<int> x{0};
    for (int i = 0; i < 100; ++i) x.fetch_add(1, std::memory_order_seq_cst);
    EXPECT_EQ(x.load(std::memory_order_seq_cst), 100);
    FuzzYield::set_seed(0);
    done.store(true);
  });
  fuzzed.join();
  EXPECT_TRUE(done.load());
}

TEST(PerThreadSlots, LocalIsStablePerThread) {
  PerThreadSlots<int> slots(64);
  int& a = slots.local();
  a = 17;
  EXPECT_EQ(slots.local(), 17);
  EXPECT_EQ(&slots.local(), &a);
}

TEST(PerThreadSlots, DistinctThreadsDistinctSlots) {
  PerThreadSlots<std::uint32_t> slots(64);
  std::vector<std::uint32_t*> addrs(6);
  std::atomic<int> arrived{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      addrs[t] = &slots.local();
      arrived.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
    });
  }
  while (arrived.load() != 6) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  std::set<std::uint32_t*> unique(addrs.begin(), addrs.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(PerThreadSlots, SlotAccessByIndex) {
  PerThreadSlots<int> slots(8);
  for (std::uint32_t i = 0; i < 8; ++i) slots.slot(i) = static_cast<int>(i);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(slots.slot(i), static_cast<int>(i));
  }
  EXPECT_EQ(slots.size(), 8u);
}

TEST(PerThreadSlots, RespectsIndexOverride) {
  PerThreadSlots<int> slots(16);
  {
    ScopedThreadIndex idx(3);
    slots.local() = 99;
  }
  EXPECT_EQ(slots.slot(3), 99);
}

TEST(PerThreadSlots, SlotsAreCacheLineSeparated) {
  // Slots are separate allocations: each starts a false-sharing range of
  // its own, and no two overlap.
  PerThreadSlots<char> slots(4);
  std::vector<std::uintptr_t> starts;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&slots.slot(i));
    EXPECT_EQ(a % kFalseSharingRange, 0u) << "slot " << i;
    starts.push_back(a);
  }
  for (std::size_t i = 0; i < starts.size(); ++i) {
    for (std::size_t j = i + 1; j < starts.size(); ++j) {
      const std::uintptr_t lo = std::min(starts[i], starts[j]);
      const std::uintptr_t hi = std::max(starts[i], starts[j]);
      EXPECT_GE(hi - lo, kFalseSharingRange) << "slots " << i << ", " << j;
    }
  }
}

TEST(PerThreadSlots, UntouchedSlotIsAbsent) {
  PerThreadSlots<int> slots(8);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(slots.find(i), nullptr);
  EXPECT_EQ(slots.find(8), nullptr);  // out of range is absent, not fatal
  int& s3 = slots.slot(3);
  EXPECT_EQ(slots.find(3), &s3);
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i != 3) {
      EXPECT_EQ(slots.find(i), nullptr) << "slot " << i;
    }
  }
  int visited = 0;
  slots.for_each([&](std::uint32_t i, int&) {
    EXPECT_EQ(i, 3u);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

TEST(PerThreadSlots, UntouchedContainerAllocatesNothing) {
  const std::uint64_t before = test::heap_allocations();
  {
    PerThreadSlots<int> slots(512);
    EXPECT_EQ(slots.find(0), nullptr);
    slots.for_each([](std::uint32_t, int&) { ADD_FAILURE(); });
  }
  EXPECT_EQ(test::heap_allocations(), before);
}

TEST(PerThreadSlots, RacingLocalAndSlotPublishOneSlot) {
  // The owner's first local() and another thread's slot(i) for the same
  // index race to publish; both must end up with the same, single slot.
  // Index 1 has its pointer in the container; index 5 is in the table, so
  // fresh containers each round also race the table publication.
  for (const std::uint32_t idx : {1u, 5u}) {
    for (int round = 0; round < 200; ++round) {
      PerThreadSlots<std::uint64_t> slots(16);
      std::atomic<int> ready{0};
      std::uint64_t* by_owner = nullptr;
      std::uint64_t* by_other = nullptr;
      std::thread owner([&] {
        ScopedThreadIndex pin(idx);
        ready.fetch_add(1);
        while (ready.load() != 2) std::this_thread::yield();
        by_owner = &slots.local();
      });
      std::thread other([&] {
        ready.fetch_add(1);
        while (ready.load() != 2) std::this_thread::yield();
        by_other = &slots.slot(idx);
      });
      owner.join();
      other.join();
      ASSERT_EQ(by_owner, by_other) << "index " << idx << " round " << round;
      int present = 0;
      slots.for_each([&](std::uint32_t, std::uint64_t&) { ++present; });
      ASSERT_EQ(present, 1) << "index " << idx << " round " << round;
    }
  }
}

TEST(PerThreadSlots, RecycledIndexKeepsSlot) {
  PerThreadSlots<int> slots(16);
  int* first = nullptr;
  std::thread([&] {
    ScopedThreadIndex idx(7);
    first = &slots.local();
    *first = 42;
  }).join();
  std::thread([&] {
    ScopedThreadIndex idx(7);  // a new owner of the same dense index
    EXPECT_EQ(&slots.local(), first);
    EXPECT_EQ(slots.local(), 42);  // the container does not reset slots
  }).join();
}

TEST(PerThreadSlots, CSnziDropsStickyStateOfRecycledIndex) {
  // The slot survives recycling, so the C-SNZI itself must reset the
  // inherited sticky window against the index epoch: the successor's first
  // arrival re-reads the root.
  CSnziOptions o;
  o.root_cas_fail_threshold = 0;  // always arrive through the tree
  o.sticky_arrivals = 8;
  o.sticky_decay_propagations = 8;
  CSnzi<RealMemory> c(o);
  auto pair = [&c] {
    ScopedThreadIndex idx(5);
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  };
  std::thread(pair).join();  // arms an 8-wide window for index 5
  const std::uint64_t reads_before = c.stats().root_reads;
  std::thread(pair).join();
  EXPECT_EQ(c.stats().root_reads, reads_before + 1);
}

TEST(PerThreadSlots, StatsReadsNeverMaterialiseSlots) {
  LockStats stats(64);
  std::uint64_t before = test::heap_allocations();
  EXPECT_EQ(stats.snapshot().reads(), 0u);
  stats.reset();
  EXPECT_EQ(test::heap_allocations(), before);
  {
    ScopedThreadIndex idx(9);
    stats.count_read_fast();  // materialises index 9 only
  }
  before = test::heap_allocations();
  EXPECT_EQ(stats.snapshot().read_fast, 1u);
  stats.reset();
  EXPECT_EQ(stats.snapshot().read_fast, 0u);
  EXPECT_EQ(test::heap_allocations(), before);
}

#if OLL_REGISTRY
TEST(PerThreadSlots, CensusReadsNeverMaterialiseSlots) {
  ContentionCensus census(64);
  registry_census_enable();
  const std::uint64_t before = test::heap_allocations();
  const CensusSnapshot snap = census.snapshot(0);
  census.for_each_waiting(
      [](std::uint32_t, std::uint32_t, std::uint64_t) { ADD_FAILURE(); });
  // Marks other than begin_wait find no slot and return.
  census.acquired(false);
  census.released();
  census.abandoned();
  EXPECT_EQ(test::heap_allocations(), before);
  EXPECT_EQ(snap.waiting_readers + snap.holding_readers, 0u);
  census.begin_wait(false);  // the first real mark materialises the slot
  EXPECT_GT(test::heap_allocations(), before);
  EXPECT_EQ(census.snapshot(0).waiting_readers, 1u);
  census.abandoned();
  registry_census_disable();
}
#endif

}  // namespace
}  // namespace oll
