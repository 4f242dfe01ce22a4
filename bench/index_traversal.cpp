// B-tree-style index latch-coupling scenario (DESIGN.md §13).
//
// Readers descend a fixed-fanout tree of per-node latches from the root to
// a leaf.  With an optimistic kind (opt-goll, opt-bravo-goll, opt-central)
// the descent performs NO shared-line stores: each node is read inside an
// opt_read_begin()/opt_read_validate() window, and any validation failure
// restarts the whole descent from the root — the optimistic-lock-coupling
// discipline: a stale parent may have routed us to a node a writer has
// since changed, so no partial path can be trusted.  After the root lock's
// opt_max_retries() restarts the reader falls back to pessimistic
// hand-over-hand latch coupling, which is also the only discipline the
// non-optimistic kinds ever use — so an opt-goll vs goll/bravo-goll sweep
// compares read paths over identical structure and work.
//
// Writers pick a uniformly random node, take its write latch, and bump a
// two-word payload: a, then b, with a scheduler yield between the stores in
// sim mode to widen the torn window.  The two words are equal whenever no
// writer is mid-update, so a VALIDATED read observing a != b is a torn read
// the version protocol failed to catch and aborts the process — the bench
// doubles as an end-to-end OCC oracle.
//
// Output: fig5-style CSV ("threads,KIND,..." with traversals/s cells; one
// column per lock) followed by "# optstat key=value ..." comment lines
// carrying the optimistic counters per cell.  parse_fig5_csv skips #-lines,
// so the same file feeds both the throughput parser and bench_smoke's
// optstat scraper.
//
// Flags: the common sweep set (bench_common.hpp; --acquires means
// traversals per thread here) plus
//   --read_pct=P   traversal (vs node-update) percentage, default 100
//   --fanout=N     children per internal node, default 8
//   --depth=N      levels below the root, default 2 (=> 73 nodes), max 9
//   --locks=...    default opt-goll,bravo-goll,goll
//   --trace=FILE   arm event tracing and export a Chrome trace of every
//                  cell (opt_read slices, opt_validation_fail/opt_fallback
//                  instants, acquire-site tags); --trace_ring sizes the
//                  per-thread rings
// plus the telemetry set (--telemetry_interval_ms / --metrics_out /
// --metrics_port, bench_common.hpp).  The cs_work / timeout_ns / watchdog /
// pin sweep flags have no meaning for this workload and are ignored.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/factory.hpp"
#include "harness/sim_sched.hpp"
#include "harness/trace_export.hpp"
#include "platform/fault.hpp"
#include "platform/lock_registry.hpp"
#include "platform/trace.hpp"
#include "platform/rng.hpp"
#include "platform/spin.hpp"
#include "platform/thread_id.hpp"
#include "platform/time.hpp"
#include "sim/context.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace {

using oll::bench::Mode;

constexpr double kSimHz = 1.4e9;  // UltraSPARC T2+ clock (§5.1)

// Timestamp source for simulated traces: the calling thread's virtual
// clock (the same contract as the harness driver's sim clock).  Harness
// code without a ThreadContext falls back to real time.
std::uint64_t sim_trace_clock() {
  const oll::sim::ThreadContext* ctx = oll::sim::ThreadContext::current();
  return ctx != nullptr ? ctx->clock() : oll::now_ns();
}

struct TreeShape {
  std::uint32_t fanout = 8;
  std::uint32_t depth = 2;
  std::size_t inner = 0;  // nodes[i] is internal iff i < inner
  std::size_t total = 0;

  void finalize() {
    std::size_t level_nodes = 1;
    inner = 0;
    total = 1;
    for (std::uint32_t l = 0; l < depth; ++l) {
      inner = total;
      level_nodes *= fanout;
      total += level_nodes;
    }
  }
};

// One latch-protected node.  Line-aligned so the simulated coherence model
// charges each node's payload to its own line (the locks already pad
// internally) — what we want to show is that the OPTIMISTIC read path adds
// zero shared-line stores, not that nodes accidentally share lines.
template <typename M>
struct alignas(128) Node {
  std::unique_ptr<oll::AnyRwLock> lock;
  typename M::template Atomic<std::uint64_t> a{0};
  typename M::template Atomic<std::uint64_t> b{0};
};

template <typename M>
struct Tree {
  TreeShape shape;
  std::vector<Node<M>> nodes;
};

struct CellConfig {
  std::uint32_t threads = 0;
  std::uint32_t read_pct = 100;
  std::uint64_t ops_per_thread = 0;
  std::uint64_t seed = 42;
  std::string fault_profile;
};

struct WorkerTotals {
  std::uint64_t traversals = 0;
  std::uint64_t writes = 0;
  std::uint64_t restarts = 0;   // whole-descent optimistic restarts
  std::uint64_t fallbacks = 0;  // descents that went pessimistic
};

struct CellResult {
  double seconds = 0.0;
  WorkerTotals totals;
  oll::LockStatsSnapshot stats;  // summed over every node latch
  double throughput() const {
    const std::uint64_t ops = totals.traversals + totals.writes;
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  }
};

[[noreturn]] void die_torn(const char* where, std::uint64_t a,
                           std::uint64_t b) {
  std::fprintf(stderr,
               "index_traversal: torn payload (%s): a=%llu b=%llu\n", where,
               static_cast<unsigned long long>(a),
               static_cast<unsigned long long>(b));
  std::abort();
}

// Child choice at `level` derived from the per-operation draw so a
// restarted descent retraces the same logical key's path.  7 bits per
// level bounds --depth at 9.
std::size_t child_at(std::uint64_t path, std::uint32_t level,
                     std::uint32_t fanout) {
  return static_cast<std::size_t>((path >> (7 * level)) % fanout);
}

// One optimistic root-to-leaf descent.  Returns false on any validation
// failure (caller restarts from the root).  Payload loads are relaxed and
// side-effect free until validated — the copy discipline rw_protected.hpp
// documents; a failed window's values are discarded unread.
template <typename M>
bool optimistic_descend(Tree<M>& tree, std::uint64_t path,
                        std::uint64_t& checksum) {
  // Acquire-site tag: trace records and census waits emitted below carry
  // this file:line, so the contention table can tell the three disciplines
  // apart (platform/lock_registry.hpp).
  oll::ScopedLockSite site(OLL_LOCK_SITE());
  std::size_t idx = 0;
  std::uint32_t level = 0;
  for (;;) {
    Node<M>& n = tree.nodes[idx];
    const std::uint64_t stamp = n.lock->opt_read_begin();
    if (stamp == oll::kInvalidOptStamp) return false;
    const std::uint64_t a = n.a.load(std::memory_order_relaxed);
    const std::uint64_t b = n.b.load(std::memory_order_relaxed);
    if (!n.lock->opt_read_validate(stamp)) return false;
    // Validated => the window was writer-free, so the pair must be
    // consistent.  This is the bench's end-to-end oracle.
    if (a != b) die_torn("validated optimistic read", a, b);
    checksum += a;
    if (idx >= tree.shape.inner) return true;
    idx = idx * tree.shape.fanout + 1 +
          child_at(path, level++, tree.shape.fanout);
  }
}

// Pessimistic hand-over-hand latch coupling: hold the parent's shared
// latch until the child's is acquired.  Acquisition order is strictly
// root-to-leaf, so coupling cannot deadlock against writers (which take a
// single latch).
template <typename M>
void pessimistic_descend(Tree<M>& tree, std::uint64_t path,
                         std::uint64_t& checksum) {
  oll::ScopedLockSite site(OLL_LOCK_SITE());
  std::size_t idx = 0;
  std::uint32_t level = 0;
  tree.nodes[0].lock->lock_shared();
  for (;;) {
    Node<M>& n = tree.nodes[idx];
    const std::uint64_t a = n.a.load(std::memory_order_relaxed);
    const std::uint64_t b = n.b.load(std::memory_order_relaxed);
    if (a != b) die_torn("read under shared latch", a, b);
    checksum += a;
    if (idx >= tree.shape.inner) {
      n.lock->unlock_shared();
      return;
    }
    const std::size_t next = idx * tree.shape.fanout + 1 +
                             child_at(path, level++, tree.shape.fanout);
    tree.nodes[next].lock->lock_shared();
    n.lock->unlock_shared();
    idx = next;
  }
}

// Update a uniformly random node under its write latch.  The yield between
// the two stores (sim mode) widens the window in which a racing optimistic
// reader could observe a != b — validation must catch every such window.
template <typename M>
void write_node(Tree<M>& tree, oll::Xoshiro256ss& rng, bool simulated) {
  oll::ScopedLockSite site(OLL_LOCK_SITE());
  Node<M>& n = tree.nodes[rng.next_below(tree.nodes.size())];
  n.lock->lock();
  n.a.store(n.a.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  if (simulated) std::this_thread::yield();
  n.b.store(n.b.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  n.lock->unlock();
}

template <typename M>
void traversal_loop(Tree<M>& tree, const CellConfig& cfg, std::uint32_t w,
                    bool simulated, WorkerTotals& out) {
  oll::Xoshiro256ss rng(cfg.seed * 0x9e3779b97f4a7c15ULL + w + 1);
  oll::AnyRwLock& root = *tree.nodes[0].lock;
  const bool optimistic = root.supports_optimistic();
  const std::uint32_t retries = root.opt_max_retries();
  std::uint64_t checksum = 0;
  // Offset odd workers so sim interleavings are not lockstep (driver.cpp
  // uses the same trick).
  if (simulated && (w & 1u) != 0) std::this_thread::yield();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    if (rng.bernoulli(cfg.read_pct, 100)) {
      const std::uint64_t path = rng.next();
      bool done = false;
      if (optimistic) {
        for (std::uint32_t attempt = 0; attempt <= retries && !done;
             ++attempt) {
          if (attempt != 0) {
            ++out.restarts;
            if (simulated) std::this_thread::yield();
          }
          done = optimistic_descend(tree, path, checksum);
        }
        if (!done) {
          // Attribute the descent's give-up to the root latch: that is the
          // latch whose retry budget governed the loop.
          root.count_opt_fallback();
          ++out.fallbacks;
        }
      }
      if (!done) pessimistic_descend(tree, path, checksum);
      ++out.traversals;
    } else {
      write_node(tree, rng, simulated);
      ++out.writes;
    }
    if (simulated) std::this_thread::yield();
  }
  // Keep the checksum observable so the descents cannot be optimized out.
  if (checksum == ~std::uint64_t{0}) std::fprintf(stderr, "#\n");
}

template <typename M>
Tree<M> make_tree(oll::LockKind kind, const TreeShape& shape,
                  std::uint32_t threads, bool simulated) {
  oll::LockFactoryOptions opts;
  opts.max_threads = std::max<std::uint32_t>(threads + 1, 64);
  if (simulated) {
    // Same simulated-topology tuning as the harness driver (DESIGN.md §3):
    // SMT siblings share a C-SNZI leaf; one emulated CAS failure is the
    // contention signal; cohort domains follow the 4-chip shape.
    opts.csnzi.topology = &oll::sim::t5440_cpu_topology();
    opts.csnzi.topology_mapping = oll::LeafMapping::kSmtCluster;
    opts.csnzi.leaves = 64;
    opts.csnzi.root_cas_fail_threshold = 1;
    opts.metalock.topology = &oll::sim::t5440_cpu_topology();
  }
  Tree<M> tree;
  tree.shape = shape;
  tree.nodes = std::vector<Node<M>>(shape.total);
  for (auto& n : tree.nodes) {
    n.lock = oll::make_rwlock<M>(kind, opts);
    if (n.lock == nullptr) {
      std::fprintf(stderr, "index_traversal: kind %s not available here\n",
                   oll::lock_kind_name(kind));
      std::exit(2);
    }
  }
  return tree;
}

template <typename M>
CellResult run_cell(oll::LockKind kind, const TreeShape& shape,
                    const CellConfig& cfg, oll::sim::Machine* machine) {
  const bool simulated = machine != nullptr;
  if (simulated) machine->reset();
  Tree<M> tree = make_tree<M>(kind, shape, cfg.threads, simulated);

  bool faults_armed = false;
  if (!cfg.fault_profile.empty()) {
    oll::FaultProfile profile;
    if (oll::fault_profile_from_name(cfg.fault_profile.c_str(), &profile)) {
      oll::fault_enable(profile, cfg.seed);
      faults_armed = true;
    }
  }

  std::vector<WorkerTotals> totals(cfg.threads);
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  // One CPU, round-robin, for this thread and every sim worker
  // (harness/sim_sched.hpp).
  oll::bench::SimSchedScope sim_sched(simulated);
  for (std::uint32_t w = 0; w < cfg.threads; ++w) {
    threads.emplace_back([&, w] {
      oll::ScopedThreadIndex index(w);
      std::unique_ptr<oll::sim::ThreadGuard> guard;
      if (simulated) {
        guard = std::make_unique<oll::sim::ThreadGuard>(*machine, w);
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      oll::spin_until([&] { return go.load(std::memory_order_acquire); });
      traversal_loop(tree, cfg, w, simulated, totals[w]);
    });
  }
  oll::spin_until(
      [&] { return ready.load(std::memory_order_acquire) == cfg.threads; });
  oll::Stopwatch wall;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double wall_s = wall.elapsed_s();
  if (faults_armed) oll::fault_disable();

  CellResult r;
  for (const auto& t : totals) {
    r.totals.traversals += t.traversals;
    r.totals.writes += t.writes;
    r.totals.restarts += t.restarts;
    r.totals.fallbacks += t.fallbacks;
  }
  for (const auto& n : tree.nodes) r.stats += n.lock->stats();
  r.seconds = simulated
                  ? static_cast<double>(machine->max_clock()) / kSimHz
                  : wall_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  oll::bench::Flags flags(argc, argv);
  oll::bench::SweepConfig scfg;
  scfg.read_pct =
      static_cast<std::uint32_t>(flags.get_u64("read_pct", 100));
  if (int rc = oll::bench::parse_sweep_flags(flags, scfg); rc != 0) {
    return rc;
  }
  const std::vector<oll::LockKind> kinds = oll::bench::parse_lock_list(
      flags, "locks",
      {oll::LockKind::kOptGoll, oll::LockKind::kBravoGoll,
       oll::LockKind::kGoll});
  TreeShape shape;
  shape.fanout = static_cast<std::uint32_t>(flags.get_u64("fanout", 8));
  shape.depth = static_cast<std::uint32_t>(flags.get_u64("depth", 2));
  if (shape.fanout < 2 || shape.fanout > 128 || shape.depth > 9) {
    std::fprintf(stderr, "want 2 <= --fanout <= 128 and --depth <= 9\n");
    return 2;
  }
  shape.finalize();
  const bool simulated = scfg.mode == Mode::kSim;
  auto telemetry = oll::bench::start_telemetry_flags(flags);
  const std::string trace_path = flags.get("trace", "");
  const bool want_trace = !trace_path.empty();
  // Perfetto timestamps are microseconds; sim records are virtual cycles.
  const double ts_scale =
      simulated ? 1e-3 / (kSimHz * 1e-9) : 1e-3;
  if (want_trace) {
    if (simulated) oll::trace_set_clock(&sim_trace_clock);
    oll::TraceOptions topts;
    topts.ring_capacity = static_cast<std::uint32_t>(
        flags.get_u64("trace_ring", std::uint64_t{1} << 13));
    oll::trace_enable(topts);
  }
  // A traversal touches depth+1 latches, so default to fewer operations
  // than the flat fig5 sweeps for comparable cell cost.
  const std::uint64_t ops =
      scfg.acquires_per_thread != 0
          ? scfg.acquires_per_thread
          : (scfg.read_pct <= 50 ? std::uint64_t{100} : std::uint64_t{300});

  std::printf("# Index traversal: latch-coupled tree, fanout=%u depth=%u "
              "(%zu nodes), %u%% traversals, %llu ops/thread, mode=%s%s\n",
              shape.fanout, shape.depth, shape.total, scfg.read_pct,
              static_cast<unsigned long long>(ops),
              simulated ? "sim" : "real",
              scfg.fault_profile.empty()
                  ? ""
                  : (", faults=" + scfg.fault_profile).c_str());
  std::printf("# Optimistic kinds restart the descent on validation "
              "failure; others couple shared latches hand-over-hand.\n");
  std::printf("threads");
  for (oll::LockKind kind : kinds) {
    std::printf(",%s", oll::lock_kind_name(kind));
  }
  std::printf("\n");

  std::unique_ptr<oll::sim::Machine> machine;
  if (simulated) {
    const std::uint32_t max_threads = scfg.thread_counts.back();
    machine = std::make_unique<oll::sim::Machine>(
        oll::sim::t5440_topology(), oll::sim::t5440_costs(),
        std::max<std::uint32_t>(max_threads, 512));
  }

  std::vector<std::string> optstat_lines;
  std::vector<oll::bench::TraceRun> trace_runs;
  for (std::uint32_t threads : scfg.thread_counts) {
    std::printf("%u", threads);
    for (oll::LockKind kind : kinds) {
      double tput_sum = 0.0;
      CellResult agg;
      for (std::uint32_t rep = 0; rep < scfg.repetitions; ++rep) {
        CellConfig cell;
        cell.threads = threads;
        cell.read_pct = scfg.read_pct;
        cell.ops_per_thread = ops;
        cell.seed = scfg.seed ^ (std::uint64_t{threads} << 32) ^ rep;
        cell.fault_profile = scfg.fault_profile;
        CellResult r =
            simulated
                ? run_cell<oll::sim::SimMemory>(kind, shape, cell,
                                                machine.get())
                : run_cell<oll::RealMemory>(kind, shape, cell, nullptr);
        tput_sum += r.throughput();
        agg.totals.traversals += r.totals.traversals;
        agg.totals.writes += r.totals.writes;
        agg.totals.restarts += r.totals.restarts;
        agg.totals.fallbacks += r.totals.fallbacks;
        agg.stats += r.stats;
      }
      std::printf(",%.6e",
                  tput_sum / static_cast<double>(scfg.repetitions));
      char line[256];
      std::snprintf(
          line, sizeof(line),
          "# optstat lock=%s threads=%u traversals=%llu writes=%llu "
          "opt_reads=%llu opt_failures=%llu opt_fallbacks=%llu "
          "restarts=%llu",
          oll::lock_kind_name(kind), threads,
          static_cast<unsigned long long>(agg.totals.traversals),
          static_cast<unsigned long long>(agg.totals.writes),
          static_cast<unsigned long long>(agg.stats.opt_reads),
          static_cast<unsigned long long>(agg.stats.opt_validation_failures),
          static_cast<unsigned long long>(agg.stats.opt_fallbacks),
          static_cast<unsigned long long>(agg.totals.restarts));
      optstat_lines.emplace_back(line);
      if (want_trace) {
        // Drain per (lock, thread count) cell so each gets its own process
        // row in the export.
        oll::bench::TraceRun run;
        run.name = std::string(oll::lock_kind_name(kind)) +
                   " t=" + std::to_string(threads);
        run.dump = oll::trace_drain();
        run.ts_scale = ts_scale;
        trace_runs.push_back(std::move(run));
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  for (const std::string& line : optstat_lines) {
    std::printf("%s\n", line.c_str());
  }
  if (want_trace) {
    oll::trace_disable();
    if (!oll::bench::write_chrome_trace_file(trace_path, trace_runs)) {
      std::fprintf(stderr, "index_traversal: cannot write --trace file %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "index_traversal: wrote Chrome trace to %s\n",
                 trace_path.c_str());
  }
  return 0;
}
