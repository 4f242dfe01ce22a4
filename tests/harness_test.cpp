// Benchmark-harness tests: the driver performs exactly the configured
// workload (§5.1 methodology), sim runs produce sane virtual time and
// counters, the sweep machinery aggregates correctly, and the flag parser.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <sstream>

#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/sweep.hpp"

namespace oll::bench {
namespace {

TEST(Driver, RealModePerformsExactAcquisitionCount) {
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.read_pct = 90;
  cfg.acquires_per_thread = 500;
  RunResult r = run_workload(LockKind::kFoll, cfg, Mode::kReal);
  EXPECT_EQ(r.total_acquires, 4u * 500u);
  EXPECT_EQ(r.read_acquires + r.write_acquires, r.total_acquires);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.throughput(), 0.0);
}

TEST(Driver, ReadPctIsHonoredApproximately) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 90;
  cfg.acquires_per_thread = 5000;
  RunResult r = run_workload(LockKind::kCentral, cfg, Mode::kReal);
  const double measured =
      100.0 * static_cast<double>(r.read_acquires) /
      static_cast<double>(r.total_acquires);
  EXPECT_NEAR(measured, 90.0, 2.0);
}

TEST(Driver, ReadPct100MeansNoWrites) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 100;
  cfg.acquires_per_thread = 300;
  RunResult r = run_workload(LockKind::kGoll, cfg, Mode::kReal);
  EXPECT_EQ(r.write_acquires, 0u);
}

TEST(Driver, ReadPct0MeansAllWrites) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 0;
  cfg.acquires_per_thread = 300;
  RunResult r = run_workload(LockKind::kSolarisLike, cfg, Mode::kReal);
  EXPECT_EQ(r.read_acquires, 0u);
}

TEST(Driver, SimModeProducesVirtualTimeAndCounters) {
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.read_pct = 100;
  cfg.acquires_per_thread = 200;
  RunResult r = run_workload(LockKind::kGoll, cfg, Mode::kSim);
  EXPECT_EQ(r.total_acquires, 4u * 200u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.counters.rmws, 0u);
  EXPECT_GT(r.counters.loads, 0u);
}

TEST(Driver, SimModeIsDeterministicForSameSeed) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 100;
  cfg.acquires_per_thread = 100;
  cfg.seed = 99;
  RunResult a = run_workload(LockKind::kCentral, cfg, Mode::kSim);
  RunResult b = run_workload(LockKind::kCentral, cfg, Mode::kSim);
  // Virtual time is a function of the interleaving, which the host
  // scheduler perturbs; but the workload composition must be identical.
  EXPECT_EQ(a.read_acquires, b.read_acquires);
  EXPECT_EQ(a.write_acquires, b.write_acquires);
}

// Virtual time assumes the sim workers share one host CPU; the driver pins
// them to the CPU the run started on, so a sim point must not depend on
// how many CPUs the process may use.
TEST(Driver, SimResultIndependentOfHostCpuCount) {
  WorkloadConfig cfg;
  cfg.threads = 8;
  cfg.read_pct = 100;  // a fig5a point
  cfg.acquires_per_thread = 1000;
  const RunResult all_cpus = run_workload(LockKind::kGoll, cfg, Mode::kSim);

  cpu_set_t saved;
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
  const RunResult one_cpu = run_workload(LockKind::kGoll, cfg, Mode::kSim);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved), 0);

  EXPECT_EQ(all_cpus.seconds, one_cpu.seconds);
  EXPECT_EQ(all_cpus.total_acquires, one_cpu.total_acquires);
  EXPECT_EQ(all_cpus.counters.loads, one_cpu.counters.loads);
  EXPECT_EQ(all_cpus.counters.rmws, one_cpu.counters.rmws);
  EXPECT_EQ(all_cpus.counters.onchip_transfers,
            one_cpu.counters.onchip_transfers);
  EXPECT_EQ(all_cpus.lock_stats.csnzi.tree_arrivals,
            one_cpu.lock_stats.csnzi.tree_arrivals);
}

TEST(Driver, SimUsesProvidedMachine) {
  sim::Machine machine;
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 50;
  cfg.acquires_per_thread = 100;
  RunResult r = run_workload(LockKind::kFoll, cfg, Mode::kSim, &machine);
  EXPECT_GT(machine.max_clock(), 0u);
  EXPECT_EQ(r.seconds, machine.max_clock() / 1.4e9);
}

TEST(Driver, CsWorkIncreasesTime) {
  WorkloadConfig fast;
  fast.threads = 1;
  fast.read_pct = 100;
  fast.acquires_per_thread = 200;
  WorkloadConfig slow = fast;
  slow.cs_work = 5000;
  RunResult a = run_workload(LockKind::kGoll, fast, Mode::kSim);
  RunResult b = run_workload(LockKind::kGoll, slow, Mode::kSim);
  EXPECT_GT(b.seconds, a.seconds);
}

TEST(Sweep, DefaultThreadCountsCapped) {
  auto counts = default_thread_counts(64);
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front(), 1u);
  EXPECT_EQ(counts.back(), 64u);
  for (auto c : counts) EXPECT_LE(c, 64u);
}

TEST(Sweep, DefaultThreadCountsIncludeOddMax) {
  auto counts = default_thread_counts(100);
  EXPECT_EQ(counts.back(), 100u);
}

TEST(Sweep, RunAndFormat) {
  SweepConfig cfg;
  cfg.read_pct = 100;
  cfg.thread_counts = {1, 2};
  cfg.locks = {LockKind::kGoll, LockKind::kCentral};
  cfg.acquires_per_thread = 50;
  cfg.repetitions = 2;
  cfg.mode = Mode::kReal;
  SweepResult result = run_sweep(cfg, /*verbose=*/false);
  EXPECT_EQ(result.cells.size(), 4u);
  EXPECT_GT(result.at(1, LockKind::kGoll), 0.0);
  EXPECT_GT(result.at(2, LockKind::kCentral), 0.0);
  EXPECT_EQ(result.at(99, LockKind::kGoll), 0.0);  // absent cell

  std::ostringstream os;
  print_series(os, result);
  const std::string text = os.str();
  EXPECT_NE(text.find("threads,GOLL,Central"), std::string::npos);
  EXPECT_NE(text.find("\n1,"), std::string::npos);
  EXPECT_NE(text.find("\n2,"), std::string::npos);
}

TEST(Sweep, PaperIterationScalingRule) {
  SweepConfig high;
  high.read_pct = 95;
  SweepConfig low;
  low.read_pct = 50;
  // §5.1: fewer acquisitions for read percentages of 50% or less.
  EXPECT_GT(high.effective_acquires(), low.effective_acquires());
  SweepConfig forced;
  forced.acquires_per_thread = 123;
  EXPECT_EQ(forced.effective_acquires(), 123u);
}

TEST(Flags, ParseKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--mode=real", "--threads=32", "--verbose"};
  Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.get("mode", "sim"), "real");
  EXPECT_EQ(f.get_u64("threads", 1), 32u);
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_FALSE(f.has("absent"));
  EXPECT_EQ(f.get("absent", "d"), "d");
  EXPECT_EQ(f.get_u64("absent", 7), 7u);
}

}  // namespace
}  // namespace oll::bench
