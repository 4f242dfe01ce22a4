// GOLL-specific behavior (paper §3.2): lock state as a function of the
// C-SNZI, handoff discipline, the §3.2.1 write-upgrade / downgrade
// extension, try-lock fast paths, the fairness-policy knob, and the
// writers' spin-for-release (DESIGN.md §10).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "locks/goll_lock.hpp"
#include "platform/spin.hpp"

namespace oll {
namespace {

TEST(Goll, StateReflectsCSnzi) {
  GollLock<> lock;
  // Free: open, no surplus.
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
  // Read-acquired: open with surplus.
  lock.lock_shared();
  EXPECT_TRUE(lock.state().open);
  EXPECT_TRUE(lock.state().nonzero);
  lock.unlock_shared();
  // Write-acquired: closed with no surplus.
  lock.lock();
  EXPECT_FALSE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
  lock.unlock();
  EXPECT_TRUE(lock.state().open);
}

TEST(Goll, TryLockSemantics) {
  GollLock<> lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());            // already write-held
  EXPECT_FALSE(lock.try_lock_shared());     // closed to readers
  lock.unlock();
  EXPECT_TRUE(lock.try_lock_shared());
  EXPECT_FALSE(lock.try_lock());            // read-held: CloseIfEmpty fails
  lock.unlock_shared();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Goll, UpgradeSucceedsWhenSoleReader) {
  GollLock<> lock;
  lock.lock_shared();
  ASSERT_TRUE(lock.try_upgrade());
  // Now write-held: readers must be shut out.
  EXPECT_FALSE(lock.try_lock_shared());
  lock.unlock();
  EXPECT_TRUE(lock.state().open);
}

TEST(Goll, UpgradeFailsWithSecondReader) {
  GollLock<> lock;
  lock.lock_shared();
  std::atomic<bool> other_in{false};
  std::atomic<bool> release_other{false};
  std::thread other([&] {
    lock.lock_shared();
    other_in.store(true);
    spin_until([&] { return release_other.load(); });
    lock.unlock_shared();
  });
  spin_until([&] { return other_in.load(); });
  EXPECT_FALSE(lock.try_upgrade());
  // Failed upgrade: we still hold the lock for reading.
  EXPECT_TRUE(lock.state().nonzero);
  release_other.store(true);
  other.join();
  lock.unlock_shared();
  EXPECT_FALSE(lock.state().nonzero);
  EXPECT_TRUE(lock.state().open);
}

TEST(Goll, UpgradeRoundTripStress) {
  GollLock<> lock;
  std::atomic<std::uint64_t> upgrades{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        lock.lock_shared();
        if (lock.try_upgrade()) {
          upgrades.fetch_add(1);
          lock.unlock();
        } else {
          failures.fetch_add(1);
          lock.unlock_shared();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(upgrades.load() + failures.load(), 4u * 500u);
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
}

TEST(Goll, DowngradeKeepsHoldAndAdmitsReaders) {
  GollLock<> lock;
  lock.lock();
  lock.downgrade();
  // Now read-held: another reader (on its own thread — the per-thread
  // ticket makes GOLL non-recursive) can join, a writer cannot.
  std::thread extra([&] {
    ASSERT_TRUE(lock.try_lock_shared());
    lock.unlock_shared();
  });
  extra.join();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock_shared();  // our downgraded hold
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Goll, DowngradeWakesQueuedReaders) {
  GollLock<> lock;
  lock.lock();
  std::atomic<int> readers_through{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      lock.lock_shared();  // queues behind the writer
      readers_through.fetch_add(1);
      lock.unlock_shared();
    });
  }
  // Let the readers reach the queue (closed C-SNZI forces them to enqueue).
  for (int i = 0; i < 2000; ++i) std::this_thread::yield();
  lock.downgrade();
  spin_until([&] { return readers_through.load() == 3; });
  for (auto& th : readers) th.join();
  lock.unlock_shared();
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
}

TEST(Goll, WriterHandsOffToReaderGroup) {
  GollLock<> lock;
  lock.lock();
  constexpr int kReaders = 4;
  std::atomic<int> in{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      lock.lock_shared();
      int now = in.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      // Hold the lock until a second reader is inside too (bounded), so the
      // check does not depend on the group being scheduled together.  A
      // group handoff lets the second reader in while we hold; readers
      // granted one at a time could not, and the assertion below fails.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (peak.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      in.fetch_sub(1);
      lock.unlock_shared();
    });
  }
  // Release only once every reader is queued behind the writer, so the
  // whole group takes part in the handoff.
  spin_until([&] { return lock.stats().read_queued == kReaders; });
  lock.unlock();  // hands over to the whole group at once
  for (auto& th : readers) th.join();
  // All queued readers were granted as one group, so at some point more
  // than one was inside simultaneously.
  EXPECT_GE(peak.load(), 2);
}

TEST(Goll, FifoPolicyKnobConstructs) {
  GollOptions o;
  o.readers_coalesce_over_writers = false;
  GollLock<> lock(o);
  lock.lock_shared();
  lock.unlock_shared();
  lock.lock();
  lock.unlock();
}

TEST(Goll, ReaderAfterWriterQueueCycle) {
  // Force the full queue path repeatedly: writer holds, readers queue,
  // writer releases to the group, last reader hands back to next writer.
  GollLock<> lock;
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        lock.lock();
        lock.unlock();
        ops.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        lock.lock_shared();
        lock.unlock_shared();
        ops.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ops.load(), 2u * 400u + 4u * 400u);
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
}

// --- spin-for-release (DESIGN.md §10) ----------------------------------------
// A writer that misses CloseIfEmpty behind another writer spins on the
// C-SNZI root for the release before it queues — unless someone is queued
// already or readers are inside.  These tests synchronise on stats(), which
// counts a queued write before the waiter enqueues.

// One round of a short write hold: the calling thread write-holds `lock`
// while a contender runs `acquire` (which must acquire and release), and
// releases `hold` after the contender announced itself, or as soon as the
// contender queued.  Returns the round's stats delta (the holder's own
// write excluded).
template <typename Acquire>
LockStatsSnapshot short_hold_round(GollLock<>& lock, Acquire acquire,
                                   std::chrono::microseconds hold) {
  lock.lock();
  const LockStatsSnapshot before = lock.stats();
  std::atomic<bool> started{false};
  std::thread contender([&] {
    started.store(true);
    acquire();
  });
  spin_until([&] { return started.load(); });
  const auto until = std::chrono::steady_clock::now() + hold;
  while (std::chrono::steady_clock::now() < until &&
         lock.stats().write_queued == before.write_queued) {
  }
  lock.unlock();
  contender.join();
  LockStatsSnapshot d = lock.stats();
  d -= before;
  return d;
}

// Rounds until the contender got through a short hold without queueing.
// A round may legitimately queue if the host deschedules the holder past
// the contender's spin budget, so a few are allowed; on a quiet host the
// first round succeeds.  Without the spin, every round in which the
// contender's CloseIfEmpty lost to the holder queues.
template <typename Acquire>
bool acquires_without_queueing(GollLock<>& lock, Acquire acquire) {
  for (int round = 0; round < 200; ++round) {
    const LockStatsSnapshot d =
        short_hold_round(lock, acquire, std::chrono::microseconds(20));
    EXPECT_EQ(d.writes(), 1u);
    if (d.write_queued == 0) {
      EXPECT_EQ(d.write_fast, 1u);
      EXPECT_EQ(d.meta_handoffs, 0u);
      return true;
    }
  }
  return false;
}

TEST(GollSpinForRelease, WriterBehindShortWriteDoesNotQueue) {
  GollLock<> lock;
  EXPECT_TRUE(acquires_without_queueing(lock, [&] {
    lock.lock();
    lock.unlock();
  }));
}

TEST(GollSpinForRelease, TimedWriterBehindShortWriteDoesNotQueue) {
  GollLock<> lock;
  EXPECT_TRUE(acquires_without_queueing(lock, [&] {
    ASSERT_TRUE(lock.try_lock_for(std::chrono::seconds(10)));
    lock.unlock();
  }));
  EXPECT_EQ(lock.stats().write_timeouts, 0u);
}

TEST(GollSpinForRelease, WriterBehindLongWriteQueuesAndIsHandedTheLock) {
  GollLock<> lock;
  lock.lock();
  std::atomic<bool> acquired{false};
  std::thread writer([&] {
    lock.lock();
    acquired.store(true);
    lock.unlock();
  });
  // The hold outlasts any spin budget: the writer must give up and queue.
  spin_until([&] { return lock.stats().write_queued == 1; });
  EXPECT_FALSE(acquired.load());
  lock.unlock();
  writer.join();
  EXPECT_TRUE(acquired.load());
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.write_fast, 1u);  // the holder's own write
  EXPECT_EQ(s.write_queued, 1u);
  EXPECT_TRUE(lock.state().open);
}

TEST(GollSpinForRelease, TimedWriterBehindLongWriteTimesOutAndAbandons) {
  GollLock<> lock;
  lock.lock();
  // The writer spins out its budget, queues, and abandons at the deadline.
  // On an oversubscribed host the spin's yields can outlast the deadline,
  // and the writer times out before it queues; then try again.
  bool abandoned = false;
  for (int round = 0; round < 10 && !abandoned; ++round) {
    const LockStatsSnapshot before = lock.stats();
    bool ok = true;
    std::thread writer(
        [&] { ok = lock.try_lock_for(std::chrono::milliseconds(300)); });
    writer.join();
    EXPECT_FALSE(ok);
    LockStatsSnapshot d = lock.stats();
    d -= before;
    EXPECT_EQ(d.write_timeouts, 1u);
    EXPECT_EQ(d.write_abandons, d.write_queued);
    abandoned = d.write_abandons == 1;
  }
  EXPECT_TRUE(abandoned);
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(GollSpinForRelease, LaterWriterQueuesBehindQueuedWriter) {
  GollLock<> lock;
  lock.lock();
  std::atomic<int> order{0};
  int first = -1;
  int second = -1;
  std::thread w1([&] {
    lock.lock();
    first = order.fetch_add(1);
    lock.unlock();
  });
  spin_until([&] { return lock.stats().write_queued == 1; });
  std::thread w2([&] {
    lock.lock();
    second = order.fetch_add(1);
    lock.unlock();
  });
  // A writer is queued, so the later one must queue too, not spin to
  // overtake it when the holder releases.
  spin_until([&] { return lock.stats().write_queued == 2; });
  lock.unlock();
  w1.join();
  w2.join();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(lock.stats().write_queued, 2u);
}

TEST(GollSpinForRelease, LaterWriterQueuesBehindQueuedReaderGroup) {
  GollLock<> lock;
  lock.lock();
  constexpr int kReaders = 3;
  std::atomic<int> order{0};
  std::vector<int> reader_turn(kReaders, -1);
  int writer_turn = -1;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      lock.lock_shared();
      reader_turn[r] = order.fetch_add(1);
      lock.unlock_shared();
    });
  }
  spin_until([&] { return lock.stats().read_queued == kReaders; });
  std::thread writer([&] {
    lock.lock();
    writer_turn = order.fetch_add(1);
    lock.unlock();
  });
  spin_until([&] { return lock.stats().write_queued == 1; });
  lock.unlock();  // hands over to the reader group first
  for (auto& th : readers) th.join();
  writer.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_LT(reader_turn[r], kReaders);
  EXPECT_EQ(writer_turn, kReaders);
}

TEST(GollSpinForRelease, TatasMetalockWriterQueuesAtOnce) {
  // metalock=tatas is the seed protocol: no eliding release, no spin.  A
  // writer that loses CloseIfEmpty to a holder queues within a 5 us hold,
  // shorter than the spin budget's yields alone would take.
  GollOptions o;
  o.metalock.kind = MetalockKind::kTatas;
  GollLock<> lock(o);
  bool queued = false;
  for (int round = 0; round < 200 && !queued; ++round) {
    const LockStatsSnapshot d = short_hold_round(
        lock,
        [&] {
          lock.lock();
          lock.unlock();
        },
        std::chrono::microseconds(5));
    EXPECT_EQ(d.writes(), 1u);
    queued = d.write_queued == 1;
  }
  EXPECT_TRUE(queued);
}

}  // namespace
}  // namespace oll
