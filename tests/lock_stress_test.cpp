// Heavier randomized stress: every lock, swept over thread counts and
// read/write mixes (property-style TEST_P sweep), checking the exclusion
// oracle and the protected-counter invariant; plus the same sweep over the
// simulated-memory builds, which exercises the locks under the emulated
// CAS-failure model (weak CAS failing spuriously must never break them).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/factory.hpp"
#include "harness/driver.hpp"
#include "harness/sim_sched.hpp"
#include "locks/goll_lock.hpp"
#include "locks/mcs_rwlock.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "sim/context.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "lock_test_utils.hpp"

namespace oll {
namespace {

using test::ExclusionChecker;
using test::run_mixed_workload;

// MCS-RW lost wakeup: a writer that finds the queue empty registers in
// next_writer_ and then checks reader_count_, while the last reader out
// decrements reader_count_ and then takes next_writer_.  With
// release/acquire orders both could miss each other (the writer's store
// waiting in its store buffer past its load, which x86 allows), and the
// writer spun forever.  Readers and writers with empty critical sections
// hit that window within a few thousand operations on a multi-core host,
// so this runs them for a fixed time and fails on a stall.  A stalled
// thread cannot be joined, so the stall ends the process.
void mcs_rw_liveness(int readers, int writers, std::chrono::milliseconds run) {
  McsRwLock<> lock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < readers + writers; ++i) {
    const bool writer = i >= readers;
    threads.emplace_back([&, writer] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (writer) {
          lock.lock();
          lock.unlock();
        } else {
          lock.lock_shared();
          lock.unlock_shared();
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
      finished.fetch_add(1);
    });
  }
  using Clock = std::chrono::steady_clock;
  const auto end = Clock::now() + run;
  auto last_progress = Clock::now();
  std::uint64_t last_ops = 0;
  while (finished.load() != readers + writers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (Clock::now() >= end) stop.store(true, std::memory_order_relaxed);
    const std::uint64_t now_ops = ops.load(std::memory_order_relaxed);
    if (now_ops != last_ops) {
      last_ops = now_ops;
      last_progress = Clock::now();
    } else if (Clock::now() - last_progress > std::chrono::seconds(10)) {
      std::fprintf(stderr,
                   "MCS-RW stalled for 10 s after %llu ops (%d readers, %d "
                   "writers): lost writer wakeup\n",
                   static_cast<unsigned long long>(now_ops), readers,
                   writers);
      std::_Exit(1);
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(ops.load(), 0u);
}

TEST(McsRwLiveness, LastReaderAndEmptyQueueWriterNeverMissEachOther) {
  mcs_rw_liveness(1, 1, std::chrono::milliseconds(1000));
  mcs_rw_liveness(2, 1, std::chrono::milliseconds(1000));
}

using StressParam = std::tuple<LockKind, unsigned /*threads*/,
                               unsigned /*read_pct*/>;

class LockStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(LockStress, ExclusionHolds) {
  const auto [kind, threads, read_pct] = GetParam();
  LockFactoryOptions o;
  o.max_threads = 64;
  auto lock = make_rwlock(kind, o);
  ExclusionChecker checker;
  const unsigned iters = 3000 / threads + 100;
  const std::uint64_t writes =
      run_mixed_workload(*lock, checker, threads, iters, read_pct);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(checker.unprotected_counter, writes);
}

std::string stress_name(const ::testing::TestParamInfo<StressParam>& info) {
  const auto [kind, threads, read_pct] = info.param;
  std::string n = lock_kind_name(kind);
  for (char& c : n) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n + "_t" + std::to_string(threads) + "_r" + std::to_string(read_pct);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LockStress,
    ::testing::Combine(
        ::testing::Values(LockKind::kGoll, LockKind::kFoll, LockKind::kRoll,
                          LockKind::kKsuh, LockKind::kSolarisLike,
                          LockKind::kMcsRw, LockKind::kBigReader,
                          LockKind::kCentral, LockKind::kBravoGoll,
                          LockKind::kBravoFoll, LockKind::kBravoRoll,
                          LockKind::kBravoCentral),
        ::testing::Values(2u, 4u, 8u),
        ::testing::Values(0u, 50u, 90u, 100u)),
    stress_name);

// --- GOLL metalock-variant stress -------------------------------------------
//
// The scalable writer path (cohort MCS metalock, metalock-eliding release,
// tree wake) has its trickiest interleavings between a releasing writer and
// a racing enqueuer, and between a tree-wake granter and its forwarding
// children.  Hammer those under every metalock kind on a synthetic
// two-domain topology with pinned thread indices, so both cohort domains
// are populated; TSan runs of this binary check the protocol's memory
// ordering, not just the exclusion oracle.

using GollMetalockParam = std::tuple<MetalockKind, unsigned /*read_pct*/>;

class GollMetalockStress : public ::testing::TestWithParam<GollMetalockParam> {
};

TEST_P(GollMetalockStress, ExclusionAcrossDomains) {
  const auto [kind, read_pct] = GetParam();
  // 8 cpus, SMT off, 4 per LLC: workers 0-3 in domain 0, 4-7 in domain 1.
  const Topology topo = Topology::synthetic(8, 1, 4, 4);
  GollOptions g;
  g.max_threads = 16;
  g.metalock.kind = kind;
  g.metalock.cohort_budget = 2;  // small budget: frequent cross-domain passes
  g.metalock.topology = &topo;
  GollLock<> lock(g);
  ExclusionChecker checker;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> writes{0};
  for (unsigned t = 0; t < 8; ++t) {
    workers.emplace_back([&, t, rp = read_pct] {
      ScopedThreadIndex idx(t);
      Xoshiro256ss rng(0xabcd + t);
      std::uint64_t local = 0;
      for (unsigned i = 0; i < 1200; ++i) {
        if (rng.bernoulli(rp, 100)) {
          lock.lock_shared();
          checker.reader_enter();
          checker.reader_exit();
          lock.unlock_shared();
        } else {
          lock.lock();
          checker.writer_enter();
          ++checker.unprotected_counter;
          checker.writer_exit();
          lock.unlock();
          ++local;
        }
      }
      writes.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(checker.unprotected_counter, writes.load());
}

std::string goll_metalock_name(
    const ::testing::TestParamInfo<GollMetalockParam>& info) {
  const auto [kind, read_pct] = info.param;
  return std::string(metalock_kind_name(kind)) + "_r" +
         std::to_string(read_pct);
}

INSTANTIATE_TEST_SUITE_P(
    MetalockSweep, GollMetalockStress,
    ::testing::Combine(::testing::Values(MetalockKind::kTatas,
                                         MetalockKind::kMcs,
                                         MetalockKind::kCohort),
                       // 0: eliding release + metalock hammer; 50: mixed
                       // (tree wake of reader groups behind writers); 95:
                       // reader-dominated spin-for-reopen.
                       ::testing::Values(0u, 50u, 95u)),
    goll_metalock_name);

// --- simulated-memory stress -------------------------------------------------
//
// The same exclusion property must hold when the locks run on sim::Atomic
// with contention emulation active: spurious weak-CAS failures, directory
// updates and virtual-clock charging must be invisible to correctness.

using SimParam = std::tuple<LockKind, unsigned /*read_pct*/>;

class SimLockStress : public ::testing::TestWithParam<SimParam> {};

TEST_P(SimLockStress, ExclusionHoldsOnSimulatedMemory) {
  const auto [kind, read_pct] = GetParam();
  bench::WorkloadConfig cfg;
  cfg.threads = 8;
  cfg.read_pct = read_pct;
  cfg.acquires_per_thread = 300;
  bench::RunResult r = bench::run_workload(kind, cfg, bench::Mode::kSim);
  // The driver itself asserts nothing about exclusion, but a broken lock
  // under the sim wedges or crashes; what we can check cheaply: every
  // acquisition completed and virtual time advanced.
  EXPECT_EQ(r.total_acquires, 8u * 300u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.counters.rmws, 0u);
}

TEST_P(SimLockStress, SimExclusionOracle) {
  const auto [kind, read_pct] = GetParam();
  LockFactoryOptions o;
  o.max_threads = 64;
  auto lock = make_rwlock<sim::SimMemory>(kind, o);
  ASSERT_NE(lock, nullptr);
  sim::Machine machine;
  ExclusionChecker checker;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> writes{0};
  // One CPU, round-robin, as the harness runs every sim workload.
  bench::SimSchedScope sim_sched(true);
  for (unsigned t = 0; t < 6; ++t) {
    workers.emplace_back([&, t, rp = read_pct] {
      ScopedThreadIndex idx(t);
      sim::ThreadGuard guard(machine, t);
      Xoshiro256ss rng(0x1234 + t);
      std::uint64_t local = 0;
      for (unsigned i = 0; i < 400; ++i) {
        if (rng.bernoulli(rp, 100)) {
          lock->lock_shared();
          checker.reader_enter();
          checker.reader_exit();
          lock->unlock_shared();
        } else {
          lock->lock();
          checker.writer_enter();
          ++checker.unprotected_counter;
          checker.writer_exit();
          lock->unlock();
          ++local;
        }
      }
      writes.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(checker.unprotected_counter, writes.load());
}

std::string sim_name(const ::testing::TestParamInfo<SimParam>& info) {
  const auto [kind, read_pct] = info.param;
  std::string n = lock_kind_name(kind);
  for (char& c : n) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n + "_r" + std::to_string(read_pct);
}

INSTANTIATE_TEST_SUITE_P(
    SimSweep, SimLockStress,
    ::testing::Combine(
        ::testing::Values(LockKind::kGoll, LockKind::kFoll, LockKind::kRoll,
                          LockKind::kKsuh, LockKind::kSolarisLike,
                          LockKind::kMcsRw, LockKind::kCentral,
                          LockKind::kBravoGoll, LockKind::kBravoCentral),
        ::testing::Values(0u, 80u, 100u)),
    sim_name);

}  // namespace
}  // namespace oll
