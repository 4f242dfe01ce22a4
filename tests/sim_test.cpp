// Tests for the coherence-cost simulator: topology mapping, per-distance
// charging, causal clock propagation, cache-hit freebies, the emulated
// weak-CAS failure contract, epochs/reset, and counters.
#include <gtest/gtest.h>

#include <thread>

#include "harness/sim_sched.hpp"
#include "sim/atomic.hpp"
#include "sim/context.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace oll::sim {
namespace {

// Run `f` as simulated thread `tid` on `m` in a real thread, returning its
// final virtual clock.
template <typename F>
std::uint64_t as_sim_thread(Machine& m, std::uint32_t tid, F&& f) {
  std::uint64_t clock = 0;
  bench::SimSchedScope sim_sched(true);
  std::thread t([&] {
    ThreadGuard guard(m, tid);
    f(guard.context());
    clock = guard.context().clock();
  });
  t.join();
  return clock;
}

TEST(Topology, T5440Layout) {
  Topology t = t5440_topology();
  EXPECT_EQ(t.total_threads(), 256u);
  EXPECT_EQ(t.chip_of(0), 0u);
  EXPECT_EQ(t.chip_of(63), 0u);
  EXPECT_EQ(t.chip_of(64), 1u);
  EXPECT_EQ(t.chip_of(255), 3u);
  EXPECT_EQ(t.core_of(0), 0u);
  EXPECT_EQ(t.core_of(7), 0u);
  EXPECT_EQ(t.core_of(8), 1u);
  EXPECT_EQ(t.core_of(64), 8u);
}

TEST(SimAtomic, UntouchedLineChargesLocalClean) {
  Machine m;
  Atomic<int> x{0};
  const auto clock = as_sim_thread(m, 0, [&](ThreadContext&) {
    x.store(1, std::memory_order_seq_cst);
  });
  EXPECT_EQ(clock, m.costs().local_clean);
}

TEST(SimAtomic, OwnedRmwChargesLocal) {
  Machine m;
  Atomic<int> x{0};
  const auto clock = as_sim_thread(m, 0, [&](ThreadContext&) {
    x.store(1, std::memory_order_seq_cst);   // local_clean
    x.fetch_add(1, std::memory_order_seq_cst);  // owned: local_rmw
  });
  EXPECT_EQ(clock, m.costs().local_clean + m.costs().local_rmw);
}

TEST(SimAtomic, CachedLoadIsFree) {
  Machine m;
  Atomic<int> x{0};
  const auto clock = as_sim_thread(m, 0, [&](ThreadContext&) {
    x.store(1, std::memory_order_seq_cst);
    for (int i = 0; i < 100; ++i) (void)x.load(std::memory_order_seq_cst);  // all cache hits
  });
  EXPECT_EQ(clock, m.costs().local_clean);
  EXPECT_EQ(m.counters().l1_hits, 100u);
}

TEST(SimAtomic, SameCoreTransfer) {
  Machine m;
  Atomic<int> x{0};
  as_sim_thread(m, 0, [&](ThreadContext&) { x.store(1, std::memory_order_seq_cst); });
  // tid 1 is an SMT sibling of tid 0 (both core 0): cheap, no penalty.
  const auto clock = as_sim_thread(m, 1, [&](ThreadContext&) {
    x.exchange(2, std::memory_order_seq_cst);
  });
  // Causal sync to the writer's timestamp (local_clean) plus the transfer.
  EXPECT_EQ(clock, m.costs().local_clean + m.costs().samecore_transfer);
  EXPECT_EQ(m.counters().samecore_transfers, 1u);
}

TEST(SimAtomic, OnChipTransferPaysPenalty) {
  Machine m;
  Atomic<int> x{0};
  as_sim_thread(m, 0, [&](ThreadContext&) { x.store(1, std::memory_order_seq_cst); });
  // tid 8 = core 1, chip 0: shared-L2 transfer + migration penalty.
  const auto clock = as_sim_thread(m, 8, [&](ThreadContext&) {
    x.exchange(2, std::memory_order_seq_cst);
  });
  EXPECT_EQ(clock, m.costs().local_clean + m.costs().onchip_transfer +
                       m.costs().migration_penalty);
}

TEST(SimAtomic, OffChipTransferCostsMost) {
  Machine m;
  Atomic<int> x{0};
  as_sim_thread(m, 0, [&](ThreadContext&) { x.store(1, std::memory_order_seq_cst); });
  // tid 64 = chip 1.
  const auto clock = as_sim_thread(m, 64, [&](ThreadContext&) {
    x.exchange(2, std::memory_order_seq_cst);
  });
  EXPECT_EQ(clock, m.costs().local_clean + m.costs().offchip_transfer +
                       m.costs().migration_penalty);
  EXPECT_EQ(m.counters().offchip_transfers, 1u);
}

TEST(SimAtomic, ReaderClockSyncsPastWriterTimestamp) {
  // Causality: a thread that observes a write cannot have a clock earlier
  // than the writer's clock at the write.
  Machine m;
  Atomic<int> x{0};
  as_sim_thread(m, 0, [&](ThreadContext& ctx) {
    ctx.advance(100000);  // writer is far in the virtual future
    x.store(1, std::memory_order_seq_cst);
  });
  const auto clock = as_sim_thread(m, 64, [&](ThreadContext&) {
    (void)x.load(std::memory_order_seq_cst);
  });
  EXPECT_GE(clock, 100000u);
}

TEST(SimAtomic, WeakCasFailsOnceOnHotLine) {
  Machine m;
  Atomic<int> x{0};
  // Build a distinct-owner streak >= hot threshold.
  as_sim_thread(m, 0, [&](ThreadContext&) { x.store(1, std::memory_order_seq_cst); });
  as_sim_thread(m, 8, [&](ThreadContext&) { x.exchange(2, std::memory_order_seq_cst); });
  as_sim_thread(m, 16, [&](ThreadContext&) { x.exchange(3, std::memory_order_seq_cst); });
  as_sim_thread(m, 24, [&](ThreadContext&) {
    int expected = 3;
    // First weak CAS on the hot line: emulated failure, value untouched.
    EXPECT_FALSE(x.compare_exchange_weak(expected, 4, std::memory_order_seq_cst));
    EXPECT_EQ(expected, 3);
    EXPECT_EQ(x.load(std::memory_order_seq_cst), 3);
    // Immediate retry must pass (the pass token) and really succeed.
    EXPECT_TRUE(x.compare_exchange_weak(expected, 4, std::memory_order_seq_cst));
    EXPECT_EQ(x.load(std::memory_order_seq_cst), 4);
  });
  EXPECT_EQ(m.counters().emulated_cas_failures, 1u);
}

TEST(SimAtomic, StrongCasNeverFailsSpuriously) {
  Machine m;
  Atomic<int> x{0};
  as_sim_thread(m, 0, [&](ThreadContext&) { x.store(1, std::memory_order_seq_cst); });
  as_sim_thread(m, 8, [&](ThreadContext&) { x.exchange(2, std::memory_order_seq_cst); });
  as_sim_thread(m, 16, [&](ThreadContext&) { x.exchange(3, std::memory_order_seq_cst); });
  as_sim_thread(m, 24, [&](ThreadContext&) {
    int expected = 3;
    EXPECT_TRUE(x.compare_exchange_strong(expected, 4, std::memory_order_seq_cst));
  });
  EXPECT_EQ(m.counters().emulated_cas_failures, 0u);
}

TEST(SimAtomic, SameOwnerRepeatsResetStreak) {
  Machine m;
  Atomic<int> x{0};
  as_sim_thread(m, 0, [&](ThreadContext&) { x.store(1, std::memory_order_seq_cst); });
  as_sim_thread(m, 8, [&](ThreadContext&) {
    x.exchange(2, std::memory_order_seq_cst);  // migration, streak 1
    x.exchange(3, std::memory_order_seq_cst);  // owned: streak resets
    x.exchange(4, std::memory_order_seq_cst);
  });
  as_sim_thread(m, 16, [&](ThreadContext&) {
    int expected = 4;
    // Streak is 1 (only our migration): below the hot threshold, no failure.
    EXPECT_TRUE(x.compare_exchange_weak(expected, 5, std::memory_order_seq_cst));
  });
  EXPECT_EQ(m.counters().emulated_cas_failures, 0u);
}

TEST(SimAtomic, NoContextMeansNoCharging) {
  Atomic<int> x{0};  // no ThreadGuard anywhere
  x.store(5, std::memory_order_seq_cst);
  EXPECT_EQ(x.load(std::memory_order_seq_cst), 5);
  int expected = 5;
  EXPECT_TRUE(x.compare_exchange_weak(expected, 6, std::memory_order_seq_cst));
}

TEST(SimAtomic, ValueSemanticsMatchStdAtomic) {
  Machine m;
  Atomic<std::uint64_t> x{10};
  as_sim_thread(m, 0, [&](ThreadContext&) {
    EXPECT_EQ(x.fetch_add(5, std::memory_order_seq_cst), 10u);
    EXPECT_EQ(x.fetch_sub(3, std::memory_order_seq_cst), 15u);
    EXPECT_EQ(x.fetch_or(0xF0, std::memory_order_seq_cst), 12u);
    EXPECT_EQ(x.fetch_and(0x0F, std::memory_order_seq_cst), 0xFCu);
    EXPECT_EQ(x.exchange(99, std::memory_order_seq_cst), 0x0Cu);
    EXPECT_EQ(x.load(std::memory_order_seq_cst), 99u);
  });
}

TEST(SimAtomic, PerOrderCountersRecordRequestedOrders) {
  // The order histogram feeds the fence-reduction ablation: each op must be
  // booked under exactly the order the caller requested (CAS: its success
  // order), so relaxations show up as a seq_cst -> weaker shift.
  Machine m;
  Atomic<std::uint64_t> x{0};
  as_sim_thread(m, 0, [&](ThreadContext&) {
    x.store(1, std::memory_order_relaxed);
    (void)x.load(std::memory_order_acquire);
    x.store(2, std::memory_order_release);
    (void)x.fetch_add(1, std::memory_order_acq_rel);
    (void)x.exchange(7, std::memory_order_seq_cst);
    std::uint64_t expected = 7;
    (void)x.compare_exchange_strong(expected, 8, std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
  });
  const OpCounters c = m.counters();
  EXPECT_EQ(c.order_ops[static_cast<int>(std::memory_order_relaxed)], 1u);
  EXPECT_EQ(c.order_ops[static_cast<int>(std::memory_order_acquire)], 1u);
  EXPECT_EQ(c.order_ops[static_cast<int>(std::memory_order_release)], 1u);
  EXPECT_EQ(c.order_ops[static_cast<int>(std::memory_order_acq_rel)], 2u);
  EXPECT_EQ(c.seq_cst_ops(), 1u);
  EXPECT_EQ(c.loads + c.rmws,
            c.order_ops[0] + c.order_ops[2] + c.order_ops[3] + c.order_ops[4] +
                c.order_ops[5]);
}

TEST(Machine, MaxClockTracksSlowestThread) {
  Machine m;
  as_sim_thread(m, 0, [&](ThreadContext& ctx) { ctx.advance(50); });
  as_sim_thread(m, 1, [&](ThreadContext& ctx) { ctx.advance(500); });
  as_sim_thread(m, 2, [&](ThreadContext& ctx) { ctx.advance(5); });
  EXPECT_EQ(m.max_clock(), 500u);
}

TEST(Machine, ResetClearsClocksAndBumpsEpoch) {
  Machine m;
  const auto e0 = m.epoch();
  as_sim_thread(m, 0, [&](ThreadContext& ctx) { ctx.advance(50); });
  EXPECT_EQ(m.max_clock(), 50u);
  m.reset();
  EXPECT_EQ(m.max_clock(), 0u);
  EXPECT_GT(m.epoch(), e0);
}

TEST(Machine, EpochInvalidatesStaleLineCaches) {
  // A context that lives across Machine::reset() must not keep serving
  // cached line versions from the previous epoch.
  Machine m;
  Atomic<int> x{0};
  as_sim_thread(m, 0, [&](ThreadContext&) { x.store(1, std::memory_order_seq_cst); });
  as_sim_thread(m, 1, [&](ThreadContext& ctx) {
    (void)x.load(std::memory_order_seq_cst);  // pays the transfer, caches the line
    const auto c1 = ctx.clock();
    (void)x.load(std::memory_order_seq_cst);  // free hit
    EXPECT_EQ(ctx.clock(), c1);
    m.reset();       // new epoch while this context is still live
    (void)x.load(std::memory_order_seq_cst);  // stale entry: must pay the same-core transfer again
    EXPECT_EQ(ctx.clock(), c1 + m.costs().samecore_transfer);
  });
}

TEST(SimMemory, ChargeHelper) {
  Machine m;
  const auto clock = as_sim_thread(m, 0, [&](ThreadContext&) {
    SimMemory::charge(123);
  });
  EXPECT_EQ(clock, 123u);
  SimMemory::charge(5);  // no context on this thread: must be a no-op
}

}  // namespace
}  // namespace oll::sim
