// Concurrent stress and property tests for SNZI / C-SNZI: the query
// invariant against a ground-truth counter, close/open semantics under
// concurrency, and the exactly-one-loser property locks depend on (exactly
// one thread observes the surplus reach zero on a closed C-SNZI).
// Parameterized across arrival policies and tree shapes (TEST_P sweeps).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fake_topology.hpp"
#include "platform/memory.hpp"
#include "platform/rng.hpp"
#include "platform/spin.hpp"
#include "snzi/csnzi.hpp"

namespace oll {
namespace {

using Param = std::tuple<ArrivalPolicy, std::uint32_t /*leaves*/,
                         std::uint32_t /*levels*/>;

CSnziOptions make_opts(const Param& p) {
  CSnziOptions o;
  o.policy = std::get<0>(p);
  o.leaves = std::get<1>(p);
  o.levels = std::get<2>(p);
  o.fanout = 4;
  o.root_cas_fail_threshold = 1;
  // Shared leaves keep the adaptive cases mixing root and tree arrivals on
  // every host (on private leaves kAdaptive would reduce to kAlwaysRoot).
  o.topology = &test::shared_leaf_topology();
  return o;
}

class CSnziStress : public ::testing::TestWithParam<Param> {};

// Ground truth: track the true surplus with an atomic counter updated
// around every arrive/depart; whenever the true surplus is provably nonzero
// (our own arrival is outstanding) query() must say nonzero.
TEST_P(CSnziStress, QueryNonzeroWhileHoldingArrival) {
  CSnzi<> c(make_opts(GetParam()));
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        auto ticket = c.arrive();
        if (!ticket.arrived()) {
          failed.store(true);
          return;
        }
        if (!c.query().nonzero) failed.store(true);
        c.depart(ticket);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(c.query().nonzero);
  EXPECT_TRUE(c.query().open);
}

// Surplus accounting: N threads each perform k arrive+depart pairs; the
// final surplus is zero and never goes negative (OLL_DCHECKs inside would
// abort on underflow in debug builds; here we verify the end state).
TEST_P(CSnziStress, BalancedArrivalsEndAtZero) {
  CSnzi<> c(make_opts(GetParam()));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256ss rng(t + 1);
      std::vector<CSnzi<>::Ticket> held;
      for (int i = 0; i < 1500; ++i) {
        if (held.size() < 5 && rng.bernoulli(1, 2)) {
          auto ticket = c.arrive();
          ASSERT_TRUE(ticket.arrived());
          held.push_back(ticket);
        } else if (!held.empty()) {
          c.depart(held.back());
          held.pop_back();
        }
      }
      for (auto& ticket : held) c.depart(ticket);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(c.query().nonzero);
  EXPECT_EQ(CSnzi<>::total_count(c.root_word()), 0u);
}

// The lock-critical property: when a C-SNZI is closed while readers hold
// arrivals, EXACTLY ONE thread gets `false` from its depart (the "last
// departure"), no matter how departures interleave.
TEST_P(CSnziStress, ExactlyOneLastDeparture) {
  for (int round = 0; round < 50; ++round) {
    CSnzi<> c(make_opts(GetParam()));
    constexpr int kHolders = 6;
    std::vector<CSnzi<>::Ticket> tickets(kHolders);
    std::vector<std::thread> threads;
    std::atomic<int> arrived{0};
    std::atomic<int> last_departures{0};
    std::atomic<bool> go{false};
    for (int t = 0; t < kHolders; ++t) {
      threads.emplace_back([&, t] {
        tickets[t] = c.arrive();
        ASSERT_TRUE(tickets[t].arrived());
        arrived.fetch_add(1);
        spin_until([&] { return go.load(); });
        if (!c.depart(tickets[t])) last_departures.fetch_add(1);
      });
    }
    spin_until([&] { return arrived.load() == kHolders; });
    EXPECT_FALSE(c.close());  // surplus nonzero
    go.store(true);
    for (auto& th : threads) th.join();
    EXPECT_EQ(last_departures.load(), 1)
        << "round " << round << ": closed C-SNZI must yield exactly one "
        << "false-returning departure";
    EXPECT_FALSE(c.query().nonzero);
    EXPECT_FALSE(c.query().open);
  }
}

// Close racing concurrent arrive/depart churn: afterwards, no arrival may
// succeed, and once drained the surplus stays zero.
TEST_P(CSnziStress, CloseCutsOffArrivals) {
  CSnzi<> c(make_opts(GetParam()));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failed_arrivals{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto ticket = c.arrive();
        if (ticket.arrived()) {
          c.depart(ticket);
        } else {
          failed_arrivals.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 2000; ++i) cpu_relax();
  c.close();
  // After close, eventually every arrival fails.
  for (int i = 0; i < 2000; ++i) std::this_thread::yield();
  EXPECT_FALSE(c.arrive().arrived());
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_FALSE(c.query().open);
  // Drained: closed with zero surplus stays zero (Figure 1 requirement).
  spin_until([&] { return !c.query().nonzero; });
  EXPECT_FALSE(c.arrive().arrived());
  EXPECT_FALSE(c.query().nonzero);
}

// Close racing the sticky fast path: adaptive with threshold 0 drives every
// worker through the tree (arming the sticky window) on shared leaves, so
// post-Close sticky arrivals race the drain.  Whatever the interleaving, no
// surplus may be stranded in a leaf, and a nonempty Close must yield exactly
// one false-returning departure.
TEST(CSnziStickyStress, CloseNeverStrandsStickySurplus) {
  for (int round = 0; round < 20; ++round) {
    CSnziOptions o;
    o.policy = ArrivalPolicy::kAdaptive;
    o.root_cas_fail_threshold = 0;  // tree + sticky from the first arrival
    o.leaves = 2;                   // workers share leaves
    o.topology_mapping = LeafMapping::kPerThread;
    o.sticky_arrivals = 4;
    o.sticky_decay_propagations = 1;
    CSnzi<> c(o);
    std::atomic<bool> stop{false};
    std::atomic<int> last_departures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        ScopedThreadIndex idx(static_cast<std::uint32_t>(t));
        Xoshiro256ss rng(static_cast<std::uint64_t>(round) * 31 + t + 1);
        std::vector<CSnzi<>::Ticket> held;
        while (!stop.load(std::memory_order_acquire) || !held.empty()) {
          if (!stop.load(std::memory_order_acquire) && held.size() < 4 &&
              rng.bernoulli(1, 2)) {
            auto ticket = c.arrive();
            if (ticket.arrived()) held.push_back(ticket);
          } else if (!held.empty()) {
            if (!c.depart(held.back())) last_departures.fetch_add(1);
            held.pop_back();
          }
        }
      });
    }
    for (int i = 0; i < 500; ++i) cpu_relax();
    const bool was_empty = c.close();
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    EXPECT_FALSE(c.query().open);
    EXPECT_FALSE(c.query().nonzero) << "round " << round;
    EXPECT_EQ(CSnzi<>::total_count(c.root_word()), 0u) << "round " << round;
    EXPECT_EQ(last_departures.load(), was_empty ? 0 : 1)
        << "round " << round << ": a closed C-SNZI must yield exactly one "
        << "false-returning departure iff it was closed nonempty";
  }
}

// Writer starvation under sustained sticky traffic: unlike the test above,
// workers NEVER stop arriving after Close — each keeps an arrival in flight
// so shared leaves stay hot, the scenario where unbounded root-free re-arms
// would let sticky readers feed the leaf forever.  The re-arm budget
// (sticky_rearm_windows) must demote every reader, so the surplus drains
// while arrivals continue at full tilt.
TEST(CSnziStickyStress, CloseDrainsUnderSustainedStickyArrivals) {
  for (int round = 0; round < 10; ++round) {
    CSnziOptions o;
    o.policy = ArrivalPolicy::kAdaptive;
    o.root_cas_fail_threshold = 0;  // tree + sticky from the first arrival
    o.leaves = 2;                   // workers share leaves
    o.topology_mapping = LeafMapping::kPerThread;
    o.sticky_arrivals = 4;
    o.sticky_decay_propagations = 4;  // hot shared leaves: windows stay quiet
    o.sticky_rearm_windows = 2;
    CSnzi<> c(o);
    std::atomic<bool> stop{false};
    std::atomic<int> last_departures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        ScopedThreadIndex idx(static_cast<std::uint32_t>(t));
        while (!stop.load(std::memory_order_acquire)) {
          auto first = c.arrive();
          if (!first.arrived()) continue;  // closed and drained for us
          // Overlap a second arrival so our leaf never drops to zero.
          auto second = c.arrive();
          if (!c.depart(first)) last_departures.fetch_add(1);
          if (second.arrived() && !c.depart(second)) {
            last_departures.fetch_add(1);
          }
        }
      });
    }
    for (int i = 0; i < 500; ++i) cpu_relax();
    const bool was_empty = c.close();
    // The drain must complete even though every worker keeps arriving; a
    // regression to unbounded root-free re-arms hangs right here.
    spin_until([&] { return !c.query().nonzero; });
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    // Main may share a dense index with a finished worker, so only probe
    // arrive() after the join.
    EXPECT_FALSE(c.arrive().arrived());
    EXPECT_FALSE(c.query().open);
    EXPECT_FALSE(c.query().nonzero) << "round " << round;
    EXPECT_EQ(CSnzi<>::total_count(c.root_word()), 0u) << "round " << round;
    EXPECT_EQ(last_departures.load(), was_empty ? 0 : 1)
        << "round " << round << ": a closed C-SNZI must yield exactly one "
        << "false-returning departure iff it was closed nonempty";
  }
}

// The handoff contract of the single-RMW departs: with arrivals and
// departures churning against close(), exactly one departure reports the
// closed, drained state iff close() found a surplus.  Run on both root
// widths (the pointer-width root departs with fetch_sub, the fused root
// with a CAS loop) and through both root counters.
class CSnziCloseStorm
    : public ::testing::TestWithParam<std::tuple<bool, ArrivalPolicy>> {};

TEST_P(CSnziCloseStorm, ExactlyOneLastDepartureUnderChurn) {
  const auto [dwcas, policy] = GetParam();
  for (int round = 0; round < 30; ++round) {
    CSnziOptions o;
    o.dwcas_root = dwcas;
    o.policy = policy;
    o.leaves = 4;
    o.topology = &test::shared_leaf_topology();
    o.root_cas_fail_threshold = 1;
    CSnzi<> c(o);
    std::atomic<bool> stop{false};
    std::atomic<int> arrivals{0};
    std::atomic<int> last_departures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        ScopedThreadIndex idx(static_cast<std::uint32_t>(t));
        Xoshiro256ss rng(static_cast<std::uint64_t>(round) * 17 + t + 1);
        std::vector<CSnzi<>::Ticket> held;
        while (!stop.load(std::memory_order_acquire) || !held.empty()) {
          if (!stop.load(std::memory_order_acquire) && held.size() < 3 &&
              rng.bernoulli(1, 2)) {
            auto ticket = c.arrive();
            if (ticket.arrived()) {
              held.push_back(ticket);
              arrivals.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (!held.empty()) {
            if (!c.depart(held.back())) last_departures.fetch_add(1);
            held.pop_back();
          }
        }
      });
    }
    spin_until([&] { return arrivals.load() >= 64; });
    const bool was_empty = c.close();
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    EXPECT_FALSE(c.query().open);
    EXPECT_FALSE(c.query().nonzero) << "round " << round;
    EXPECT_EQ(CSnzi<>::total_count(c.root_word()), 0u) << "round " << round;
    EXPECT_EQ(last_departures.load(), was_empty ? 0 : 1)
        << "round " << round << ": a closed C-SNZI must yield exactly one "
        << "false-returning departure iff it was closed nonempty";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RootWidths, CSnziCloseStorm,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(ArrivalPolicy::kAdaptive,
                                         ArrivalPolicy::kAlwaysRoot,
                                         ArrivalPolicy::kAlwaysTree)),
    [](const auto& info) {
      const ArrivalPolicy p = std::get<1>(info.param);
      return std::string(std::get<0>(info.param) ? "dwcas_" : "word_") +
             (p == ArrivalPolicy::kAdaptive     ? "adaptive"
              : p == ArrivalPolicy::kAlwaysRoot ? "root"
                                                : "tree");
    });

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [policy, leaves, levels] = info.param;
  std::string p = policy == ArrivalPolicy::kAdaptive     ? "adaptive"
                  : policy == ArrivalPolicy::kAlwaysRoot ? "root"
                                                         : "tree";
  return p + "_l" + std::to_string(leaves) + "_d" + std::to_string(levels);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CSnziStress,
    ::testing::Combine(::testing::Values(ArrivalPolicy::kAdaptive,
                                         ArrivalPolicy::kAlwaysRoot,
                                         ArrivalPolicy::kAlwaysTree),
                       ::testing::Values(4u, 64u),
                       ::testing::Values(1u, 2u)),
    param_name);

}  // namespace
}  // namespace oll
