#include "harness/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "harness/sim_sched.hpp"
#include "harness/watchdog.hpp"
#include "platform/assert.hpp"
#include "platform/fault.hpp"
#include "platform/lock_registry.hpp"
#include "platform/rng.hpp"
#include "platform/spin.hpp"
#include "platform/thread_id.hpp"
#include "platform/time.hpp"
#include "platform/topology.hpp"
#include "platform/trace.hpp"
#include "sim/context.hpp"
#include "sim/memory.hpp"

namespace oll::bench {
namespace {

constexpr double kSimHz = 1.4e9;  // UltraSPARC T2+ clock (§5.1)

// Dependent busy work the optimizer cannot elide.
inline std::uint64_t spin_work(std::uint64_t iters, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 0x9e3779b97f4a7c15ULL + 1;
  }
  return x;
}

struct WorkerTotals {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t write_timeouts = 0;
};

// The §5.1 loop body, shared by both modes.
//
// In simulated mode the worker yields inside a read critical section and at
// the end of every iteration: on the real 256-hardware-thread machine the
// read sections of concurrently-running threads overlap in time, which is
// what keeps SNZI leaf counts nonzero (and thus the root untouched).  On a
// small host the OS timeslice would otherwise serialize whole
// acquire/release pairs and hide that overlap entirely.
void acquire_release_loop(AnyRwLock& lock, const WorkloadConfig& cfg,
                          std::uint32_t worker, bool simulated,
                          WorkerTotals& totals, Watchdog* watchdog) {
  Xoshiro256ss rng(cfg.seed * 0x9e3779b97f4a7c15ULL + worker + 1);
  std::uint64_t sink = worker;
  const std::chrono::nanoseconds timeout(cfg.timeout_ns);
  // Desynchronize worker phases: under the round-robin interleaving every
  // worker would otherwise hit the same point of the loop in lockstep —
  // all readers releasing simultaneously each round, which zeroes SNZI
  // counts at a rate no real machine exhibits.  Offsetting odd workers by
  // half an iteration keeps roughly half of each core's siblings inside
  // their read section at any instant.
  if (simulated && worker % 2 == 1) std::this_thread::yield();
  for (std::uint64_t i = 0; i < cfg.acquires_per_thread; ++i) {
    const bool read = rng.bernoulli(cfg.read_pct, 100);
    // Timed mode abandons rather than retries a timed-out acquisition: the
    // iteration is lost (no critical section), which is the point — the
    // run exercises the abandonment protocols under the same contention
    // the blocking paths see.
    if (watchdog != nullptr) watchdog->begin_acquire(worker, !read);
    bool acquired = true;
    bool delegated = false;
    if (read) {
      // Acquire-site tag (platform/lock_registry.hpp): trace records and
      // census waits from this acquisition carry the read path's file:line.
      ScopedLockSite site(OLL_LOCK_SITE());
      if (cfg.timeout_ns != 0) {
        acquired = lock.try_lock_shared_for(timeout);
      } else {
        lock.lock_shared();
      }
    } else {
      ScopedLockSite site(OLL_LOCK_SITE());
      if (cfg.timeout_ns != 0) {
        acquired = lock.try_lock_for(timeout);
      } else if (cfg.delegate_writes) {
        // Closure-style write (DESIGN.md §15): combining kinds may execute
        // this on the current holder's thread; everything else degrades to
        // acquire-execute-release.  The critical-section work moves inside
        // the closure — it runs wherever the closure runs.
        struct Ctx {
          std::uint64_t cs_work;
          bool simulated;
          std::uint64_t* sink;
        } c{cfg.cs_work, simulated, &sink};
        lock.with_write(
            [](void* p) {
              Ctx* c = static_cast<Ctx*>(p);
              if (c->cs_work != 0) {
                if (c->simulated) {
                  sim::SimMemory::charge(c->cs_work);
                } else {
                  *c->sink = spin_work(c->cs_work, *c->sink);
                }
              }
              // Same small-host fix as the read sections above: on the real
              // machine competing writers overlap a held write section in
              // time; under round-robin timeslicing a yield-free section
              // completes inside one slice and is never *observed* held, so
              // none of the waiting protocols this mode studies (queueing,
              // delegation, combining) would ever engage.
              if (c->simulated) std::this_thread::yield();
            },
            &c);
        delegated = true;
      } else {
        lock.lock();
      }
    }
    if (watchdog != nullptr) watchdog->end_acquire(worker);
    if (!acquired) {
      if (read) {
        ++totals.read_timeouts;
      } else {
        ++totals.write_timeouts;
      }
    } else if (delegated) {
      ++totals.writes;  // closure ran (possibly remotely); nothing to release
    } else if (read) {
      if (cfg.cs_work != 0) {
        if (simulated) {
          sim::SimMemory::charge(cfg.cs_work);
        } else {
          sink = spin_work(cfg.cs_work, sink);
        }
      }
      if (simulated) {
        std::this_thread::yield();  // overlap read sections
        // Random jitter, spent while holding: decorrelates the round-robin
        // rotation (otherwise consecutive writers of any central lockword
        // would always be ring neighbors, i.e. SMT siblings) while keeping
        // the in-section fraction high enough that SNZI leaf counts almost
        // never drain to zero — matching the overlap statistics of 256
        // genuinely concurrent readers.
        if (rng.bernoulli(1, 2)) std::this_thread::yield();
      }
      lock.unlock_shared();
      ++totals.reads;
    } else {
      if (cfg.cs_work != 0) {
        if (simulated) {
          sim::SimMemory::charge(cfg.cs_work);
        } else {
          sink = spin_work(cfg.cs_work, sink);
        }
      }
      lock.unlock();
      ++totals.writes;
    }
    if (cfg.outside_work != 0) {
      if (simulated) {
        sim::SimMemory::charge(cfg.outside_work);
      } else {
        sink = spin_work(cfg.outside_work, sink);
      }
    }
    if (simulated) {
      std::this_thread::yield();  // fine-grain interleaving
      // Writers jitter outside the critical section (an empty write section
      // should not hold everyone else across extra scheduling rounds).
      if (!read && rng.bernoulli(1, 2)) std::this_thread::yield();
    }
  }
  // Publish the sink so the busy work is observable.
  static std::atomic<std::uint64_t> g_sink{0};
  g_sink.fetch_add(sink, std::memory_order_relaxed);
}

// Timestamp source for simulated runs: the calling thread's virtual clock.
// Harness-side code (drains, exports) runs without a ThreadContext and falls
// back to real time — such records are out-of-band anyway.
std::uint64_t sim_trace_clock() {
  const sim::ThreadContext* ctx = sim::ThreadContext::current();
  return ctx != nullptr ? ctx->clock() : now_ns();
}

RunResult run_threads(AnyRwLock& lock, const WorkloadConfig& cfg,
                      sim::Machine* machine) {
  const bool simulated = machine != nullptr;
  // Traces/histograms must share the time base of the throughput numbers
  // they explain; install the virtual clock before any worker can emit.
  // Sticky across runs: with no ThreadContext the fallback is real time.
  if (simulated) trace_set_clock(&sim_trace_clock);
  // Arm fault injection for the run (quiescent here: no worker exists yet).
  // The run's seed doubles as the fault seed so a cell is reproducible from
  // its own parameters.
  bool faults_armed = false;
  if (!cfg.fault_profile.empty()) {
    FaultProfile profile;
    if (fault_profile_from_name(cfg.fault_profile.c_str(), &profile)) {
      fault_enable(profile, cfg.seed);
      faults_armed = true;
    } else {
      std::fprintf(stderr,
                   "unknown fault profile '%s' "
                   "(want off|jitter|cas|preempt|chaos); running without "
                   "injection\n",
                   cfg.fault_profile.c_str());
    }
  }
  // Stuck-acquisition watchdog: wall-clock thresholds, so real mode only
  // (a sim worker's wall time is dominated by scheduler yields).
  std::unique_ptr<Watchdog> watchdog;
  if (cfg.watchdog && !simulated) {
    watchdog = std::make_unique<Watchdog>(lock, WatchdogOptions{},
                                          cfg.threads);
    watchdog->start();
  }
  Watchdog* wd = watchdog.get();
  const bool warmup = cfg.warmup_acquires > 0;
  std::vector<WorkerTotals> totals(cfg.threads);
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  // Simple sense barrier: workers check in, then wait for the green flag so
  // the timed region starts with everyone ready.  With a warmup phase there
  // is a second barrier at the phase boundary, where the main thread rebases
  // the lock's stats while every worker is quiescent.
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> warm_done{0};
  std::atomic<bool> go_measured{false};
  // One CPU, round-robin, for this thread and every worker (see above).
  SimSchedScope sim_sched(simulated);

  for (std::uint32_t w = 0; w < cfg.threads; ++w) {
    threads.emplace_back([&, w] {
      // Pin worker w to dense thread index w so lock-internal thread
      // mappings line up with the simulated placement (chip w/64, core w/8).
      ScopedThreadIndex index(w);
      if (cfg.pin_threads && !simulated) {
        // Bind worker w to the host CPU at position w of the parsed topology
        // — the same identity mapping (dense index -> CPU) the C-SNZI leaf
        // and cohort domain maps assume, so lock-internal locality decisions
        // match actual placement.  Real-hardware series are only gateable
        // (bench_smoke realtime.*) with placement held fixed; fall back
        // silently where affinity is not permitted (containers).
        const auto& topo = Topology::system();
        if (topo.cpu_count() > 0) {
          pin_to_cpu(topo.cpu_numbers()[w % topo.cpu_count()]);
        }
      }
      std::unique_ptr<sim::ThreadGuard> guard;
      if (simulated) {
        guard = std::make_unique<sim::ThreadGuard>(*machine, w);
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      spin_until([&] { return go.load(std::memory_order_acquire); });
      if (warmup) {
        WorkloadConfig wcfg = cfg;
        wcfg.acquires_per_thread = cfg.warmup_acquires;
        wcfg.seed = cfg.seed ^ 0x7f4a7c15u;  // decorrelate from measured
        WorkerTotals scratch;
        acquire_release_loop(lock, wcfg, w, simulated, scratch, wd);
        warm_done.fetch_add(1, std::memory_order_acq_rel);
        spin_until(
            [&] { return go_measured.load(std::memory_order_acquire); });
      }
      acquire_release_loop(lock, cfg, w, simulated, totals[w], wd);
    });
  }
  spin_until([&] {
    return ready.load(std::memory_order_acquire) == cfg.threads;
  });
  Stopwatch wall;
  go.store(true, std::memory_order_release);
  if (warmup) {
    spin_until([&] {
      return warm_done.load(std::memory_order_acquire) == cfg.threads;
    });
    // Every worker is parked on the phase barrier: the lock is quiescent, so
    // the rebase is exact.  Warmup events stay in the trace rings (the ring
    // wraps toward the newest records anyway).
    lock.reset_stats();
    wall.restart();
    go_measured.store(true, std::memory_order_release);
  }
  for (auto& t : threads) t.join();
  const double wall_s = wall.elapsed_s();
  if (watchdog) watchdog->stop();
  if (faults_armed) fault_disable();

  RunResult r;
  for (const auto& t : totals) {
    r.read_acquires += t.reads;
    r.write_acquires += t.writes;
    r.read_timeouts += t.read_timeouts;
    r.write_timeouts += t.write_timeouts;
  }
  r.total_acquires = r.read_acquires + r.write_acquires;
  r.lock_stats = lock.stats();  // quiescent: workers joined
  if (simulated) {
    r.seconds = static_cast<double>(machine->max_clock()) / kSimHz;
    r.counters = machine->counters();
  } else {
    r.seconds = wall_s;
  }
  return r;
}

}  // namespace

RunResult run_workload(LockKind kind, const WorkloadConfig& config, Mode mode,
                       sim::Machine* machine) {
  LockFactoryOptions opts;
  opts.max_threads = std::max<std::uint32_t>(config.threads + 1, 64);
  if (mode == Mode::kSim) {
    // Simulated-topology tuning (DESIGN.md §3): group the 8 SMT siblings of
    // a core onto one C-SNZI leaf (they share an L1, so leaf sharing is
    // nearly free), and treat a single emulated CAS failure as the
    // contention signal — on this model one deterministic failure stands in
    // for the burst of failures real concurrency produces.  The SMT
    // grouping comes from the simulated machine's topology; it reproduces
    // the seed's leaf_shift = 3 mapping exactly (worker w is pinned to
    // simulated cpu w, and cpu w's SMT group is w / 8).
    opts.csnzi.topology = &sim::t5440_cpu_topology();
    opts.csnzi.topology_mapping = LeafMapping::kSmtCluster;
    opts.csnzi.leaves = 64;
    opts.csnzi.root_cas_fail_threshold = 1;
    // Cohort metalock domains come from the same simulated shape (4 chips
    // of 64 threads => 4 LLC domains); worker w is pinned to simulated
    // cpu w, so domain_of(w) is w / 64.
    opts.metalock.topology = &sim::t5440_cpu_topology();
  }
  if (config.leaf_mapping) opts.csnzi.topology_mapping = *config.leaf_mapping;
  if (config.sticky_arrivals) {
    opts.csnzi.sticky_arrivals = *config.sticky_arrivals;
  }
  if (config.metalock) opts.metalock.kind = *config.metalock;
  if (config.cohort_budget) opts.metalock.cohort_budget = *config.cohort_budget;
  if (config.combine) opts.combine = true;
  if (config.dwcas_root) opts.csnzi.dwcas_root = true;
  if (config.combine_budget) opts.combine_budget = *config.combine_budget;
  // Delegation needs the closure-style call; the combining kind (and the
  // --combine override) imply it.
  WorkloadConfig wcfg = config;
  if (config.combine || kind == LockKind::kGollCombining) {
    wcfg.delegate_writes = true;
  }
  if (mode == Mode::kReal) {
    auto lock = make_rwlock<RealMemory>(kind, opts);
    OLL_CHECK(lock != nullptr);
    return run_threads(*lock, wcfg, nullptr);
  }
  std::unique_ptr<sim::Machine> owned;
  if (machine == nullptr) {
    owned = std::make_unique<sim::Machine>(
        sim::t5440_topology(), sim::t5440_costs(),
        std::max<std::uint32_t>(config.threads, 512));
    machine = owned.get();
  }
  machine->reset();
  auto lock = make_rwlock<sim::SimMemory>(kind, opts);
  OLL_CHECK(lock != nullptr);
  return run_threads(*lock, wcfg, machine);
}

RunResult run_workload_on(AnyRwLock& lock, const WorkloadConfig& config) {
  return run_threads(lock, config, nullptr);
}

RunResult run_sim_workload_on(AnyRwLock& lock, const WorkloadConfig& config,
                              sim::Machine& machine) {
  machine.reset();
  return run_threads(lock, config, &machine);
}

}  // namespace oll::bench
