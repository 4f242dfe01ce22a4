// BRAVO wrapper specifics that the generic conformance/stress sweeps cannot
// see: the bias fast path actually bypasses the underlying lock (LockStats
// bias counters), writer-side revocation and the timed re-enable policy,
// hash-collision fallback in the visible-readers table, and exclusion
// between a bias-path reader and a writer (which the underlying lock alone
// cannot provide).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "locks/bravo.hpp"
#include "locks/central_rwlock.hpp"
#include "locks/goll_lock.hpp"
#include "platform/spin.hpp"
#include "platform/thread_id.hpp"
#include "platform/visible_readers.hpp"
#include "lock_test_utils.hpp"

namespace oll {
namespace {

using test::ExclusionChecker;
using test::run_mixed_workload;

using BravoCentral = Bravo<CentralRwLock<>>;
using BravoGoll = Bravo<GollLock<>>;

// --- bias fast path and counters -------------------------------------------

TEST(Bravo, SingleThreadReadsTakeBiasPath) {
  BravoCentral lock;
  ASSERT_TRUE(lock.read_biased());
  for (int i = 0; i < 100; ++i) {
    lock.lock_shared();
    lock.unlock_shared();
  }
  const LockStatsSnapshot s = lock.stats();
  // Every read published in a private table slot; none touched the central
  // reader count.
  EXPECT_EQ(s.read_bias, 100u);
  EXPECT_EQ(s.read_fast, 0u);
  EXPECT_EQ(s.bias_revoke, 0u);
}

// The acceptance check for the wrapper's whole purpose: at 100% reads,
// BRAVO over the central lock performs almost no RMWs on the shared reader
// counter — the bias counter dominates the slow-path counter.
TEST(Bravo, ReadOnlyWorkloadMostlyAvoidsUnderlyingRmw) {
  BravoCentral lock;
  constexpr unsigned kThreads = 4;
  constexpr unsigned kIters = 2000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (unsigned i = 0; i < kIters; ++i) {
        lock.lock_shared();
        lock.unlock_shared();
      }
    });
  }
  for (auto& w : workers) w.join();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.read_bias + s.read_fast, kThreads * kIters);
  // No writer ever ran, so the only slow-path reads are table-slot hash
  // collisions; with 4 threads in 1024 slots the bias path must dominate.
  EXPECT_GT(s.read_bias, s.read_fast);
  EXPECT_GE(s.read_bias, (kThreads * kIters) * 9 / 10);
  EXPECT_EQ(s.bias_revoke, 0u);
}

// --- revocation and the inhibit window --------------------------------------

TEST(Bravo, WriterRevokesBiasAndInhibitKeepsItOff) {
  BravoOptions o;
  o.inhibit_multiplier = 1'000'000;  // effectively "never re-arm"
  Bravo<CentralRwLock<>> lock(o);
  lock.lock_shared();
  lock.unlock_shared();
  EXPECT_EQ(lock.stats().read_bias, 1u);

  lock.lock();
  lock.unlock();
  const LockStatsSnapshot after_write = lock.stats();
  EXPECT_EQ(after_write.bias_revoke, 1u);
  EXPECT_FALSE(lock.read_biased());

  // With the bias inhibited, reads fall through to the underlying lock and
  // further writes have nothing to revoke.
  for (int i = 0; i < 50; ++i) {
    lock.lock_shared();
    lock.unlock_shared();
  }
  lock.lock();
  lock.unlock();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.read_bias, 1u);
  EXPECT_EQ(s.read_fast, 50u);
  EXPECT_EQ(s.bias_revoke, 1u);
}

TEST(Bravo, SlowPathReaderRearmsBiasAfterWindowExpires) {
  BravoOptions o;
  o.inhibit_multiplier = 0;  // window expires immediately
  Bravo<CentralRwLock<>> lock(o);
  lock.lock();
  lock.unlock();
  EXPECT_FALSE(lock.read_biased());

  // This read goes to the underlying lock and re-arms the bias on its way.
  lock.lock_shared();
  lock.unlock_shared();
  EXPECT_TRUE(lock.read_biased());
  lock.lock_shared();
  lock.unlock_shared();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.read_fast, 1u);
  EXPECT_EQ(s.read_bias, 1u);
}

TEST(Bravo, StartUnbiasedOption) {
  BravoOptions o;
  o.start_biased = false;
  o.inhibit_multiplier = 1'000'000;
  Bravo<CentralRwLock<>> lock(o);
  EXPECT_FALSE(lock.read_biased());
  // inhibit_until_ starts at 0, so the very first slow-path read re-arms
  // regardless of the multiplier.
  lock.lock_shared();
  lock.unlock_shared();
  EXPECT_TRUE(lock.read_biased());
}

// --- exclusion across the bias path ------------------------------------------

// The underlying lock never sees a bias-path reader, so writer/reader
// exclusion rests entirely on the revocation scan.  A writer must block
// until the published reader drains.
TEST(Bravo, WriterWaitsForBiasPathReader) {
  BravoCentral lock;
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_released{false};
  std::atomic<bool> writer_done{false};
  std::atomic<bool> violation{false};

  std::thread reader([&] {
    lock.lock_shared();
    reader_in.store(true);
    // Hold long enough for the writer to start its revocation scan.
    for (int i = 0; i < 20000; ++i) {
      if (writer_done.load()) violation.store(true);
      std::this_thread::yield();
    }
    reader_released.store(true);
    lock.unlock_shared();
  });

  while (!reader_in.load()) std::this_thread::yield();
  std::thread writer([&] {
    lock.lock();
    if (!reader_released.load()) violation.store(true);
    writer_done.store(true);
    lock.unlock();
  });

  reader.join();
  writer.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_FALSE(violation.load());
  // The reader entered before the writer, so it must have used the bias
  // path and the writer must have revoked.
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.read_bias, 1u);
  EXPECT_EQ(s.bias_revoke, 1u);
}

TEST(Bravo, MixedWorkloadExclusionOverGoll) {
  BravoGoll lock;
  ExclusionChecker checker;
  const std::uint64_t writes =
      run_mixed_workload(lock, checker, 4, 800, /*read_pct=*/80);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(checker.unprotected_counter, writes);
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.reads() + writes, 4u * 800u);
}

// --- visible-readers table edge cases ---------------------------------------

// Pre-occupying the exact slot the calling thread would publish in forces
// the CAS to fail: the reader must degrade to the underlying lock (and its
// unlock must release the underlying lock, not someone else's slot).
TEST(Bravo, SlotCollisionFallsBackToUnderlyingLock) {
  BravoCentral lock;
  auto& slot =
      global_visible_readers<>().slot_for(this_thread_index(), &lock);
  int dummy;
  slot.store(&dummy, std::memory_order_seq_cst);

  lock.lock_shared();
  lock.unlock_shared();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.read_bias, 0u);
  EXPECT_EQ(s.read_fast, 1u);
  EXPECT_EQ(slot.load(std::memory_order_seq_cst), &dummy);

  slot.store(nullptr, std::memory_order_seq_cst);
  // With the slot free again the bias path works; bias stayed armed
  // throughout (a collision must not flip the flag).
  lock.lock_shared();
  lock.unlock_shared();
  EXPECT_EQ(lock.stats().read_bias, 1u);
}

TEST(Bravo, DistinctLocksUseDistinctSlots) {
  // Two locks read by the same thread at once: each publication must land
  // in its own slot, keyed by (thread, lock).
  BravoCentral a;
  BravoCentral b;
  a.lock_shared();
  b.lock_shared();
  EXPECT_EQ(a.stats().read_bias, 1u);
  EXPECT_EQ(b.stats().read_bias, 1u);
  b.unlock_shared();
  a.unlock_shared();
}

// --- try / timed paths -------------------------------------------------------

TEST(Bravo, TryLockSharedUsesBiasPath) {
  BravoCentral lock;
  ASSERT_TRUE(lock.try_lock_shared());
  EXPECT_EQ(lock.stats().read_bias, 1u);
  lock.unlock_shared();
}

TEST(Bravo, TryLockRevokesOnSuccess) {
  BravoCentral lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_EQ(lock.stats().bias_revoke, 1u);
  EXPECT_FALSE(lock.read_biased());
  lock.unlock();
}

TEST(Bravo, TimedLockRespectsDeadlineUnderReader) {
  using namespace std::chrono_literals;
  BravoOptions o;
  o.inhibit_multiplier = 1'000'000;
  Bravo<CentralRwLock<>> lock(o);
  // Push the lock off the bias path first so the held read below lives in
  // the underlying lock and try_lock can fail cleanly instead of spinning
  // in a revocation scan.
  lock.lock();
  lock.unlock();

  lock.lock_shared();
  std::thread writer([&] {
    EXPECT_FALSE(lock.try_lock_for(20ms));
  });
  writer.join();
  lock.unlock_shared();
  ASSERT_TRUE(lock.try_lock_for(100ms));
  lock.unlock();
}

// --- underlying slow-path counters ----------------------------------------

TEST(Bravo, StatsIncludeUnderlyingQueueing) {
  // A write hold revokes the bias, so a reader falls through to the
  // underlying GOLL and queues there, as does a writer behind a long hold.
  // The wrapper's stats() must show both as queued, not fast, and carry
  // the underlying lock's handoff and C-SNZI counters.
  BravoGoll lock;
  lock.lock();
  std::thread reader([&] {
    lock.lock_shared();
    lock.unlock_shared();
  });
  spin_until([&] { return lock.underlying().stats().read_queued == 1; });
  EXPECT_EQ(lock.stats().read_queued, 1u);
  std::thread writer([&] {
    lock.lock();
    lock.unlock();
  });
  spin_until([&] { return lock.underlying().stats().write_queued == 1; });
  EXPECT_EQ(lock.stats().write_queued, 1u);
  lock.unlock();
  reader.join();
  writer.join();
  const LockStatsSnapshot s = lock.stats();
  const LockStatsSnapshot u = lock.underlying().stats();
  EXPECT_EQ(s.read_bias, 0u);
  EXPECT_EQ(s.read_fast, 0u);
  EXPECT_EQ(s.read_queued, 1u);
  EXPECT_EQ(s.reads(), 1u);
  EXPECT_EQ(s.write_fast, 1u);
  EXPECT_EQ(s.write_queued, 1u);
  EXPECT_EQ(s.writes(), 2u);  // each acquisition counted once
  EXPECT_EQ(s.meta_handoffs, u.meta_handoffs);
  EXPECT_EQ(s.wake_cohort_hits, u.wake_cohort_hits);
  EXPECT_EQ(s.wake_cross_domain, u.wake_cross_domain);
  EXPECT_EQ(s.csnzi.root_reads, u.csnzi.root_reads);
  EXPECT_GT(s.csnzi.root_reads, 0u);  // the reader's failed arrival
}

}  // namespace
}  // namespace oll
