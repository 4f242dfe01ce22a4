// Deterministic fault-injection fuzzer (DESIGN.md §11).
//
// Sweeps (seed x fault profile x lock kind x read mix), running each
// configuration's mixed blocking/timed/try workload under an exclusion
// oracle with fault injection armed (platform/fault.hpp).  Worker w is
// pinned to dense thread index w — the same placement the bench harness
// uses — so every injection decision derives from (seed, w, draw counter)
// and a failing configuration replays with the same adversarial schedule
// pressure.
//
// On a violation the fuzzer shrinks the configuration (halving threads and
// iterations while the failure still reproduces) and prints a one-line
// repro command.  A configuration that stops making progress is reported
// the same way before the process exits — a lost wakeup is a hang, not a
// counter mismatch, and must still name the configuration that found it.
//
// Flags (comma-separated lists sweep the cross product):
//   --locks=a,b       lock kinds (default goll,foll,roll,bravo-goll,
//                     opt-goll,mcs-rw; opt-* kinds add an optimistic read
//                     style with a torn-payload oracle plus a
//                     planted-writer check that validate() never lies
//                     under injection)
//   --profiles=a,b    fault profiles (default jitter,cas,preempt,chaos)
//   --seeds=a,b       injection seeds (default 1,2,42)
//   --read_pcts=a,b   read percentages (default 0,50,95)
//   --threads=N       workers per run (default 4)
//   --iters=N         iterations per worker (default 150)
//   --stall_limit_s=N hang threshold in seconds (default 30)
//   --no_shrink       print the repro for the original config immediately
//   --wait_policy=P   spin | park | auto (default auto: the park-* fault
//                     profiles run with WaitPolicy::kSpinThenPark so
//                     injected spurious/lost/delayed wakes hit real parked
//                     waiters; every other profile keeps kSpin)
//
// Park runs add two oracles on top of exclusion/progress: the hang monitor
// doubles as the lost-wake check (a swallowed unpark strands a blocking
// acquisition forever — under the substrate's bounded-slice rearm that can
// only happen if a grant was truly lost, not merely its wake), and at the
// end of every run parked_thread_count() must be zero — no waiter may
// still be asleep after every worker joined.
//
// Exit status: 0 clean sweep, 1 violation (repro printed), 3 hang (repro
// printed).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "harness/cli.hpp"
#include "platform/fault.hpp"
#include "platform/park.hpp"
#include "platform/rng.hpp"
#include "platform/thread_id.hpp"

namespace {

using namespace oll;

struct FuzzConfig {
  LockKind kind{};
  std::string kind_cli;  // the --locks token, echoed into repro lines
  std::string profile;
  std::uint64_t seed = 0;
  std::uint32_t read_pct = 0;
  std::uint32_t threads = 4;
  std::uint64_t iters = 150;
  WaitPolicy wait_policy = WaitPolicy::kSpin;
};

std::string repro_line(const FuzzConfig& c) {
  std::ostringstream os;
  os << "fault_fuzz --locks=" << c.kind_cli << " --profiles=" << c.profile
     << " --seeds=" << c.seed << " --read_pcts=" << c.read_pct
     << " --threads=" << c.threads << " --iters=" << c.iters
     << " --wait_policy="
     << (c.wait_policy == WaitPolicy::kSpinThenPark ? "park" : "spin");
  return os.str();
}

// Reader-writer exclusion oracle (mirrors tests/lock_test_utils.hpp without
// the gtest dependency): enter/exit bracket the critical section, so any
// overlap it observes is a genuine exclusion violation in the lock.
class Oracle {
 public:
  void reader_enter() {
    readers_.fetch_add(1, std::memory_order_acq_rel);
    if (writers_.load(std::memory_order_acquire) != 0) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void reader_exit() { readers_.fetch_sub(1, std::memory_order_acq_rel); }
  void writer_enter() {
    if (writers_.fetch_add(1, std::memory_order_acq_rel) != 0) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    if (readers_.load(std::memory_order_acquire) != 0) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void writer_exit() { writers_.fetch_sub(1, std::memory_order_acq_rel); }

  std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

  // Mutated only inside write sections; equals the number of write sections
  // iff exclusion held.
  std::uint64_t unprotected_counter = 0;

 private:
  std::atomic<std::int64_t> readers_{0};
  std::atomic<std::int64_t> writers_{0};
  std::atomic<std::uint64_t> violations_{0};
};

struct RunOutcome {
  std::uint64_t violations = 0;
  std::uint64_t counter = 0;
  std::uint64_t writes = 0;
  // Optimistic-mode oracles (opt-* kinds; always 0 elsewhere): validated
  // windows that observed a torn payload, and planted-writer windows that
  // validated anyway.  Injection may force spurious validation FAILURES,
  // never spurious successes, so both must stay 0 under every profile.
  std::uint64_t torn_reads = 0;
  std::uint64_t planted_validations = 0;
  // Threads still in the park census after every worker joined: a waiter
  // left asleep means a grant (or its wake) was swallowed.  Always 0 for
  // spin-policy runs.
  std::uint32_t stranded_parked = 0;
  bool failed() const {
    return violations != 0 || counter != writes || torn_reads != 0 ||
           planted_validations != 0 || stranded_parked != 0;
  }
};

// One configuration, one fresh lock.  The op mix interleaves blocking,
// try_, and timed acquisitions (timeouts 0 / 50us / 200us) so abandonment
// races grants, hand-offs, and other abandonments under injection.
RunOutcome run_config(const FuzzConfig& cfg, std::uint64_t stall_limit_s) {
  LockFactoryOptions opts;
  opts.max_threads = cfg.threads + 8;
  opts.wait_policy = cfg.wait_policy;
  auto lock = make_rwlock(cfg.kind, opts);

  FaultProfile profile;
  const bool known = fault_profile_from_name(cfg.profile.c_str(), &profile);
  if (!known) {
    std::fprintf(stderr, "unknown fault profile '%s'\n", cfg.profile.c_str());
    std::exit(2);
  }
  fault_enable(profile, cfg.seed);

  Oracle oracle;
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> done{false};
  // Two-word payload for the optimistic torn-read oracle: writers keep the
  // pair equal inside their write sections; a VALIDATED optimistic window
  // must never observe it unequal.
  const bool optimistic = lock->supports_optimistic();
  std::atomic<std::uint64_t> pay_a{0};
  std::atomic<std::uint64_t> pay_b{0};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (std::uint32_t w = 0; w < cfg.threads; ++w) {
    workers.emplace_back([&, w] {
      ScopedThreadIndex index(w);
      Xoshiro256ss rng(cfg.seed * 0x9e3779b97f4a7c15ULL + w + 1);
      std::uint64_t local_writes = 0;
      for (std::uint64_t i = 0; i < cfg.iters; ++i) {
        const bool read = rng.bernoulli(cfg.read_pct, 100);
        // 0 = blocking, 1 = try, 2.. = timed with one of three timeouts.
        const std::uint32_t style =
            static_cast<std::uint32_t>(rng.next() % 4);
        const std::chrono::nanoseconds timeout(
            style == 2 ? 0 : (rng.bernoulli(1, 2) ? 50'000 : 200'000));
        bool ok = true;
        if (read) {
          if (optimistic && style == 3) {
            // Optimistic window: lock-free, so the enter/exit oracle does
            // not apply (a concurrent writer is legal); the torn-payload
            // pair is the oracle instead.
            const std::uint64_t stamp = lock->opt_read_begin();
            if (stamp != kInvalidOptStamp) {
              const std::uint64_t va =
                  pay_a.load(std::memory_order_relaxed);
              const std::uint64_t vb =
                  pay_b.load(std::memory_order_relaxed);
              if (lock->opt_read_validate(stamp) && va != vb) {
                torn.fetch_add(1, std::memory_order_relaxed);
              }
            }
          } else if (style == 0) {
            lock->lock_shared();
          } else if (style == 1) {
            ok = lock->try_lock_shared();
          } else {
            ok = lock->try_lock_shared_for(timeout);
          }
          if (ok && !(optimistic && style == 3)) {
            oracle.reader_enter();
            oracle.reader_exit();
            lock->unlock_shared();
          }
        } else {
          if (style == 0) {
            lock->lock();
          } else if (style == 1) {
            ok = lock->try_lock();
          } else {
            ok = lock->try_lock_for(timeout);
          }
          if (ok) {
            oracle.writer_enter();
            ++oracle.unprotected_counter;
            pay_a.store(pay_a.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
            fault_perturb(FaultSite::kHolderPreemption);
            pay_b.store(pay_b.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
            oracle.writer_exit();
            lock->unlock();
            ++local_writes;
          }
        }
        progress.fetch_add(1, std::memory_order_relaxed);
      }
      writes.fetch_add(local_writes, std::memory_order_relaxed);
    });
  }

  // Hang monitor: a lost wakeup leaves a blocking acquisition parked
  // forever.  std::thread cannot be cancelled, so all we can do — and all
  // a fuzzer needs to do — is name the configuration and abort the sweep.
  std::thread monitor([&] {
    std::uint64_t last = progress.load(std::memory_order_relaxed);
    auto last_change = std::chrono::steady_clock::now();
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const std::uint64_t now_p = progress.load(std::memory_order_relaxed);
      const auto now_t = std::chrono::steady_clock::now();
      if (now_p != last) {
        last = now_p;
        last_change = now_t;
        continue;
      }
      if (now_t - last_change > std::chrono::seconds(stall_limit_s)) {
        std::fprintf(stderr,
                     "[fault_fuzz] HANG: no progress for %llu s "
                     "(%llu/%llu ops done)\n[fault_fuzz] repro: %s\n",
                     static_cast<unsigned long long>(stall_limit_s),
                     static_cast<unsigned long long>(now_p),
                     static_cast<unsigned long long>(cfg.threads * cfg.iters),
                     repro_line(cfg).c_str());
        std::fflush(nullptr);
        std::_Exit(3);
      }
    }
  });

  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_release);
  monitor.join();

  // Planted-writer oracle (injection still armed): a window a writer
  // provably intervened in must NEVER validate.  Forced cas failures only
  // push validate toward false, so this holds under every profile.
  RunOutcome out;
  if (optimistic) {
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t stamp = lock->opt_read_begin();
      if (stamp == kInvalidOptStamp) continue;
      lock->lock();
      lock->unlock();
      if (lock->opt_read_validate(stamp)) ++out.planted_validations;
    }
  }
  fault_disable();

  out.violations = oracle.violations();
  out.counter = oracle.unprotected_counter;
  out.writes = writes.load(std::memory_order_relaxed);
  out.torn_reads = torn.load(std::memory_order_relaxed);
  // Every worker joined, so nobody may still be asleep in the substrate.
  out.stranded_parked = parked_thread_count();
  return out;
}

// A failing config may depend on real interleaving as well as the seeded
// injection, so a shrink candidate gets a few attempts to reproduce.
bool reproduces(const FuzzConfig& cfg, std::uint64_t stall_limit_s) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (run_config(cfg, stall_limit_s).failed()) return true;
  }
  return false;
}

FuzzConfig shrink(FuzzConfig cfg, std::uint64_t stall_limit_s) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    if (cfg.threads > 2) {
      FuzzConfig cand = cfg;
      cand.threads = cfg.threads / 2;
      if (reproduces(cand, stall_limit_s)) {
        cfg = cand;
        progressed = true;
        continue;
      }
    }
    if (cfg.iters > 50) {
      FuzzConfig cand = cfg;
      cand.iters = cfg.iters / 2;
      if (reproduces(cand, stall_limit_s)) {
        cfg = cand;
        progressed = true;
      }
    }
  }
  return cfg;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  oll::bench::Flags flags(argc, argv);
  const auto lock_tokens = split_list(
      flags.get("locks", "goll,foll,roll,bravo-goll,opt-goll,mcs-rw"));
  const auto profiles =
      split_list(flags.get("profiles", "jitter,cas,preempt,chaos"));
  const auto seed_tokens = split_list(flags.get("seeds", "1,2,42"));
  const auto pct_tokens = split_list(flags.get("read_pcts", "0,50,95"));
  const auto threads =
      static_cast<std::uint32_t>(flags.get_u64("threads", 4));
  const std::uint64_t iters = flags.get_u64("iters", 150);
  const std::uint64_t stall_limit_s = flags.get_u64("stall_limit_s", 30);
  const bool no_shrink = flags.has("no_shrink");
  const std::string wait_policy_s = flags.get("wait_policy", "auto");
  if (wait_policy_s != "auto" && wait_policy_s != "spin" &&
      wait_policy_s != "park") {
    std::fprintf(stderr, "unknown --wait_policy '%s' (want auto|spin|park)\n",
                 wait_policy_s.c_str());
    return 2;
  }

  std::vector<std::pair<LockKind, std::string>> kinds;
  for (const std::string& token : lock_tokens) {
    const auto kind = parse_lock_kind(token);
    if (!kind) {
      std::fprintf(stderr, "unknown lock kind '%s'\n", token.c_str());
      return 2;
    }
    kinds.emplace_back(*kind, token);
  }

  std::uint64_t configs = 0;
  for (const auto& [kind, token] : kinds) {
    for (const std::string& profile : profiles) {
      for (const std::string& seed_s : seed_tokens) {
        for (const std::string& pct_s : pct_tokens) {
          FuzzConfig cfg;
          cfg.kind = kind;
          cfg.kind_cli = token;
          cfg.profile = profile;
          cfg.seed = std::stoull(seed_s);
          cfg.read_pct =
              static_cast<std::uint32_t>(std::stoul(pct_s));
          cfg.threads = threads;
          cfg.iters = iters;
          // auto: park profiles fuzz parked waiters, the rest keep the
          // paper's spin mode (park faults are no-ops without parkers).
          const bool park_profile = profile.rfind("park-", 0) == 0;
          cfg.wait_policy =
              (wait_policy_s == "park" ||
               (wait_policy_s == "auto" && park_profile))
                  ? WaitPolicy::kSpinThenPark
                  : WaitPolicy::kSpin;
          ++configs;
          const RunOutcome out = run_config(cfg, stall_limit_s);
          if (!out.failed()) continue;
          std::fprintf(stderr,
                       "[fault_fuzz] VIOLATION: %llu oracle violations, "
                       "counter %llu vs %llu writes, %llu torn optimistic "
                       "reads, %llu planted-writer validations, %u threads "
                       "stranded parked\n",
                       static_cast<unsigned long long>(out.violations),
                       static_cast<unsigned long long>(out.counter),
                       static_cast<unsigned long long>(out.writes),
                       static_cast<unsigned long long>(out.torn_reads),
                       static_cast<unsigned long long>(
                           out.planted_validations),
                       out.stranded_parked);
          const FuzzConfig minimal =
              no_shrink ? cfg : shrink(cfg, stall_limit_s);
          std::fprintf(stderr, "[fault_fuzz] repro: %s\n",
                       repro_line(minimal).c_str());
          return 1;
        }
      }
    }
  }

  const FaultCounters totals = fault_counters();
  const ParkStats ps = park_stats();
  std::printf(
      "[fault_fuzz] OK: %llu configs clean (last run injected "
      "cas_fails=%llu yields=%llu delays=%llu preemptions=%llu; park "
      "substrate: parks=%llu spurious=%llu rearm_recoveries=%llu "
      "injected_lost=%llu)\n",
      static_cast<unsigned long long>(configs),
      static_cast<unsigned long long>(totals.forced_cas_fails),
      static_cast<unsigned long long>(totals.yields),
      static_cast<unsigned long long>(totals.delays),
      static_cast<unsigned long long>(totals.preemptions),
      static_cast<unsigned long long>(ps.parks),
      static_cast<unsigned long long>(ps.spurious_wakes),
      static_cast<unsigned long long>(ps.rearm_recoveries),
      static_cast<unsigned long long>(ps.injected_lost));
  return 0;
}
