// Acquisition-latency percentiles in virtual time: the fairness story behind
// the Figure 5 throughput numbers.
//
// Throughput hides tails: ROLL buys its off-chip throughput by letting
// readers overtake waiting writers (§4.3), which should show up as LOW
// reader latency tails and HIGHER writer tails than FOLL's strict FIFO.
// This bench measures per-acquisition latency as the delta of the acquiring
// thread's virtual clock across lock_shared()/lock(), on the simulated
// T5440, and prints p50/p95/p99/max per lock and operation class.
//
// Flags: --threads=N (64) --read_pct=P (95) --acquires=N (500)
//   --hist             also print the locks' internal latency histograms
//                      (lock_stats.hpp) next to the externally-sampled rows
//   --stats_json=FILE  write internal counters + percentiles as JSON
//   --trace=FILE       write a lock-event trace (Chrome/Perfetto JSON)
//   --watchdog         stuck-acquisition watchdog (harness/watchdog.hpp):
//                      dump lock state + trace rings to stderr when an
//                      acquisition stalls.  Virtual cycles do not bound wall
//                      time, so the threshold here is a fixed 2 s of wall
//                      clock rather than the fig5 binaries' histogram-scaled
//                      one.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/factory.hpp"
#include "harness/sim_sched.hpp"
#include "harness/trace_export.hpp"
#include "harness/watchdog.hpp"
#include "platform/rng.hpp"
#include "platform/spin.hpp"
#include "platform/stats.hpp"
#include "platform/thread_id.hpp"
#include "platform/time.hpp"
#include "platform/trace.hpp"
#include "sim/context.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace {

struct Samples {
  std::vector<double> read_latency;
  std::vector<double> write_latency;
  oll::LockStatsSnapshot stats;  // the lock's own counters/histograms
};

Samples run_lock(oll::LockKind kind, std::uint32_t threads,
                 std::uint32_t read_pct, std::uint64_t acquires,
                 bool watchdog_enabled) {
  oll::sim::Machine machine(oll::sim::t5440_topology(),
                            oll::sim::t5440_costs(),
                            std::max<std::uint32_t>(threads, 512));
  oll::LockFactoryOptions opts;
  opts.max_threads = threads + 1;
  opts.csnzi.leaf_shift = 3;
  opts.csnzi.root_cas_fail_threshold = 1;
  auto lock = oll::make_rwlock<oll::sim::SimMemory>(kind, opts);

  // Wall-clock stall detector; the virtual-time histograms cannot feed it
  // (cycles do not bound wall time), so it runs floor-only.
  std::unique_ptr<oll::bench::Watchdog> watchdog;
  if (watchdog_enabled) {
    oll::bench::WatchdogOptions wopts;
    wopts.use_histogram = false;
    wopts.floor_ns = 2'000'000'000;  // 2 s
    wopts.poll_interval_ms = 100;
    watchdog = std::make_unique<oll::bench::Watchdog>(*lock, wopts, threads);
    watchdog->start();
  }

  std::vector<Samples> per_thread(threads);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  // One CPU, round-robin, for this thread and every sim worker
  // (harness/sim_sched.hpp).
  oll::bench::SimSchedScope sim_sched(true);
  for (std::uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      oll::ScopedThreadIndex index(w);
      oll::sim::ThreadGuard guard(machine, w);
      oll::sim::ThreadContext& ctx = guard.context();
      oll::Xoshiro256ss rng(w + 1);
      ready.fetch_add(1, std::memory_order_acq_rel);
      oll::spin_until([&] { return go.load(std::memory_order_acquire); });
      if (w % 2 == 1) std::this_thread::yield();  // phase stagger
      for (std::uint64_t i = 0; i < acquires; ++i) {
        const bool read = rng.bernoulli(read_pct, 100);
        const std::uint64_t before = ctx.clock();
        oll::bench::Watchdog* wd = watchdog.get();
        if (wd != nullptr) wd->begin_acquire(w, !read);
        if (read) {
          lock->lock_shared();
          if (wd != nullptr) wd->end_acquire(w);
          per_thread[w].read_latency.push_back(
              static_cast<double>(ctx.clock() - before));
          std::this_thread::yield();
          if (rng.bernoulli(1, 2)) std::this_thread::yield();
          lock->unlock_shared();
        } else {
          lock->lock();
          if (wd != nullptr) wd->end_acquire(w);
          per_thread[w].write_latency.push_back(
              static_cast<double>(ctx.clock() - before));
          lock->unlock();
        }
        std::this_thread::yield();
      }
    });
  }
  oll::spin_until([&] {
    return ready.load(std::memory_order_acquire) == threads;
  });
  go.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  if (watchdog) watchdog->stop();

  Samples all;
  for (auto& s : per_thread) {
    all.read_latency.insert(all.read_latency.end(), s.read_latency.begin(),
                            s.read_latency.end());
    all.write_latency.insert(all.write_latency.end(),
                             s.write_latency.begin(), s.write_latency.end());
  }
  all.stats = lock->stats();  // quiescent: workers joined
  return all;
}

// Sort-once percentile extraction (platform/stats.hpp Percentiles); the old
// free-function form re-sorted the sample vector for every percentile.
void print_row(const char* lock, const char* op, std::vector<double> xs) {
  if (xs.empty()) return;
  const oll::Percentiles p(std::move(xs));
  std::printf("%-14s %-6s %8zu %10.0f %10.0f %10.0f %12.0f\n", lock, op,
              p.count(), p.at(50), p.at(95), p.at(99), p.at(100));
}

// Same table shape, fed from the lock's internal log2 histogram.
void print_hist_row(const char* lock, const char* op,
                    const oll::HistogramSnapshot& h) {
  if (h.empty()) return;
  std::printf("%-14s %-6s %8llu %10.0f %10.0f %10.0f %12llu\n", lock, op,
              static_cast<unsigned long long>(h.count), h.percentile(50),
              h.percentile(95), h.percentile(99),
              static_cast<unsigned long long>(h.max));
}

// Timestamp source for the locks' internal timers: this worker's virtual
// clock (same base as the externally-sampled columns).
std::uint64_t sim_trace_clock() {
  const oll::sim::ThreadContext* ctx = oll::sim::ThreadContext::current();
  return ctx != nullptr ? ctx->clock() : oll::now_ns();
}

}  // namespace

int main(int argc, char** argv) {
  oll::bench::Flags flags(argc, argv);
  const auto threads =
      static_cast<std::uint32_t>(flags.get_u64("threads", 64));
  const auto read_pct =
      static_cast<std::uint32_t>(flags.get_u64("read_pct", 95));
  const std::uint64_t acquires = flags.get_u64("acquires", 500);
  const bool hist = flags.has("hist");
  const bool watchdog = flags.has("watchdog");
  const std::string stats_json = flags.get("stats_json", "");
  const std::string trace_path = flags.get("trace", "");

  // The internal observability layer shares the virtual time base with the
  // externally-sampled columns.
  if (hist || !stats_json.empty() || !trace_path.empty()) {
    oll::trace_set_clock(&sim_trace_clock);
    oll::latency_timing_enable();
  }
  if (!trace_path.empty()) oll::trace_enable();

  std::printf("# Acquisition latency (virtual cycles) on the simulated "
              "T5440: %u threads, %u%% reads\n",
              threads, read_pct);
  std::printf("%-14s %-6s %8s %10s %10s %10s %12s\n", "lock", "op", "n",
              "p50", "p95", "p99", "max");
  struct Row {
    oll::LockKind kind;
    Samples samples;
  };
  std::vector<Row> rows;
  std::vector<oll::bench::TraceRun> trace_runs;
  const std::vector<oll::LockKind> kinds = oll::bench::parse_lock_list(
      flags, "locks", oll::figure5_lock_kinds());
  for (oll::LockKind kind : kinds) {
    Samples s = run_lock(kind, threads, read_pct, acquires, watchdog);
    print_row(oll::lock_kind_name(kind), "read", s.read_latency);
    print_row(oll::lock_kind_name(kind), "write", s.write_latency);
    if (hist) {
      print_hist_row(oll::lock_kind_name(kind), "read*",
                     s.stats.read_acquire);
      print_hist_row(oll::lock_kind_name(kind), "write*",
                     s.stats.write_acquire);
    }
    if (!trace_path.empty()) {
      oll::bench::TraceRun run;
      run.name = std::string(oll::lock_kind_name(kind)) + " t=" +
                 std::to_string(threads) + " r=" + std::to_string(read_pct);
      run.dump = oll::trace_drain();
      run.ts_scale = 1e-3 / 1.4;  // virtual cycles @1.4GHz -> microseconds
      trace_runs.push_back(std::move(run));
    }
    rows.push_back({kind, std::move(s)});
  }
  if (hist) {
    std::printf("# read*/write* rows: the locks' internal log2-histogram "
                "view of the same acquisitions\n");
  }
  std::printf("\n# Expectation (§4.3): ROLL read tails beat FOLL's; ROLL "
              "write tails exceed FOLL's (reader preference).\n");

  if (!trace_path.empty()) {
    oll::trace_disable();
    if (!oll::bench::write_chrome_trace_file(trace_path, trace_runs)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
  }
  if (!stats_json.empty()) {
    // Same document shape as the fig5 binaries' --stats_json (schema v3,
    // docs/STATS_SCHEMA.md), via the single shared writer.
    std::vector<oll::bench::StatsJsonRow> json_rows;
    for (const Row& r : rows) {
      json_rows.push_back({oll::lock_kind_name(r.kind), r.samples.stats, 0});
    }
    if (!oll::bench::write_stats_json_file(
            stats_json, oll::bench::Mode::kSim, "cycles", threads, read_pct,
            acquires, !trace_path.empty(), json_rows)) {
      std::fprintf(stderr, "failed to write %s\n", stats_json.c_str());
      return 1;
    }
  }
  oll::latency_timing_disable();
  return 0;
}
