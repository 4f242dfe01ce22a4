// lockbench: the repository benchmark's workload program (perfbench/README.md).
//
// Runs one closed-loop workload over six lock kinds, one kind at a time in
// interleaved rounds, on worker threads pinned one per CPU, and prints every
// metric as a
//   metric <name> <value> <unit>
// line plus a `check attempted=<n> failed=<n>` line.  run.py builds this
// program, validates the metric set against BENCHMARK.json and prints the
// final result object.
//
// The library is driven only through its public surface: make_rwlock,
// AnyRwLock (shared/exclusive, optimistic window, with_write, stats()), a
// bare CSnzi<> and, for the dispatch price, a direct GollLock<>.
//
// Usage:
//   lockbench --workload read_mostly|write_heavy|index --seed N
//             --seconds S --trace 0|1 [--span-dump FILE]
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that times every public call and prints the per-layer metrics.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "platform/cpu.hpp"
#include "platform/time.hpp"
#include "sim/context.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "snzi/csnzi.hpp"

// --- allocation accounting -------------------------------------------------
// Every operator new in the process is counted by usable size, so the heap a
// lock retains is measured rather than estimated (core.lock_kb.*).  The
// array and nothrow forms forward to these in libstdc++.
namespace {
std::atomic<std::int64_t> g_live_heap{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  return p;
}

void uncount_and_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  return counted(std::aligned_alloc(a, size));
}
void operator delete(void* p) noexcept { uncount_and_free(p); }
void operator delete(void* p, std::size_t) noexcept { uncount_and_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncount_and_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  uncount_and_free(p);
}

namespace {

using oll::AnyRwLock;
using oll::LockKind;

// --- small utilities ------------------------------------------------------

struct Rng {  // splitmix64: inputs derive from --seed only
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a * 0x100000001b3ULL ^ (b + 0x632be59bd9b4e019ULL)).next();
}

inline std::uint64_t now() { return oll::now_ns(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void emit(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.9g %s\n", name.c_str(), value, unit);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Latency histogram: exact to the nanosecond below 2048 ns, then 128
// log-linear buckets per power of two (0.8% resolution).
class Hist {
 public:
  Hist() : b_(kLinear + 53 * kSub, 0) {}

  void add(std::uint64_t v) {
    ++count_;
    if (v < kLinear) {
      ++b_[v];
      return;
    }
    const int e = 63 - __builtin_clzll(v);  // >= 11
    const std::size_t i = kLinear + static_cast<std::size_t>(e - 11) * kSub +
                          ((v >> (e - 7)) & (kSub - 1));
    ++b_[std::min(i, b_.size() - 1)];
  }

  void merge(const Hist& o) {
    for (std::size_t i = 0; i < b_.size(); ++i) b_[i] += o.b_[i];
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }

  // Nearest-rank quantile; log-linear buckets report their midpoint.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < b_.size(); ++i) {
      seen += b_[i];
      if (seen >= rank) return value_of(i);
    }
    return value_of(b_.size() - 1);
  }

 private:
  static constexpr std::size_t kLinear = 2048;
  static constexpr std::size_t kSub = 128;

  static double value_of(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t e = (i - kLinear) / kSub + 11;
    const std::size_t m = (i - kLinear) % kSub;
    const double width = std::ldexp(1.0, static_cast<int>(e) - 7);
    return (static_cast<double>(kSub + m) + 0.5) * width;
  }

  std::vector<std::uint32_t> b_;
  std::uint64_t count_ = 0;
};

// --- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  std::uint32_t read_pct;  // lookups; the rest update one node
  std::uint32_t depth;     // levels below the root; 0 = one hot record
  std::uint32_t fanout;
  std::uint32_t rounds;    // untraced set-up + measure rounds per kind
};

// read_mostly / write_heavy: paper Fig. 5b / 5e on one hot lock.
// index: latch-coupled tree, 1 + 8 + 64 + 512 = 585 node locks.  Its
// set-up costs about a second per kind (585 locks of 1.7-3.1 MB each), so
// it takes fewer rounds than the one-lock workloads.
constexpr Workload kWorkloads[] = {
    {"read_mostly", 99, 0, 8, 6},
    {"write_heavy", 50, 0, 8, 6},
    {"index", 98, 3, 8, 4},
};

struct KindSpec {
  const char* name;
  LockKind kind;
};

// The kinds under test, in run order.  opt-goll reads through the
// optimistic window; goll-combining writes through with_write.
constexpr KindSpec kKinds[] = {
    {"goll", LockKind::kGoll},
    {"foll", LockKind::kFoll},
    {"roll", LockKind::kRoll},
    {"bravo-goll", LockKind::kBravoGoll},
    {"opt-goll", LockKind::kOptGoll},
    {"goll-combining", LockKind::kGollCombining},
};
constexpr std::size_t kNumKinds = sizeof(kKinds) / sizeof(kKinds[0]);
// goll, foll, roll: the paper's own locks, which alone get tail-latency
// and C-SNZI metrics (the wrappers inherit their base lock's behaviour).
constexpr std::size_t kPaperKinds = 3;

// The two-word payload: a == b whenever no writer is inside.  Atomics
// because optimistic readers load it concurrently with writers; every
// access is relaxed and ordered by the lock (or the version validation).
struct alignas(128) Record {
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};

  void bump() {
    a.store(a.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
};

struct Node {
  std::unique_ptr<AnyRwLock> lock;
  Record rec;
};

struct Tree {
  std::uint32_t fanout = 8;
  std::size_t inner = 0;  // nodes[i] has children iff i < inner
  std::vector<Node> nodes;

  Tree(LockKind kind, const Workload& wl) : fanout(wl.fanout) {
    std::size_t total = 1, level = 1;
    for (std::uint32_t l = 0; l < wl.depth; ++l) {
      inner = total;
      level *= fanout;
      total += level;
    }
    nodes = std::vector<Node>(total);
    for (Node& n : nodes) n.lock = oll::make_rwlock(kind);
  }

  std::size_t child(std::size_t idx, std::uint64_t key,
                    std::uint32_t level) const {
    return idx * fanout + 1 + (key >> (7 * level)) % fanout;
  }
};

// --- per-thread state -------------------------------------------------------

enum SpanType : std::uint8_t {
  kSpanOp,
  kSpanReadAcquire,  // lock_shared(), or the whole optimistic window
  kSpanWriteAcquire, // lock(), or the whole with_write() call
  kSpanCs,
  kSpanRelease,
  kSpanTypes
};
constexpr const char* kSpanNames[kSpanTypes] = {"op", "read_acquire",
                                                "write_acquire", "cs",
                                                "release"};

struct SpanRec {
  std::uint32_t op;
  SpanType type;
  std::uint64_t start, end;
};

constexpr std::uint32_t kReadSampleEvery = 32;   // untraced pair timing
constexpr std::uint32_t kWriteSampleEvery = 2;
constexpr std::uint32_t kSpanKeepEvery = 1024;   // traced: ops kept whole
constexpr std::size_t kSpanCap = 8192;           // span records per thread

struct alignas(128) Worker {
  std::atomic<std::uint64_t> measured{0};  // read by the slice sampler
  alignas(128) std::uint64_t ops = 0;      // every op, warmup included
  std::uint64_t reads = 0, writes = 0;     // measured phase only
  std::uint64_t failures = 0;
  std::vector<std::uint64_t> tally;        // writes per node
  // Untraced: sampled acquire-to-release latency of whole operations, one
  // histogram per measured slice.
  std::vector<Hist> read_pair, write_pair;
  // Traced: every public call, and per-type span time sums for self time.
  Hist read_acq, write_acq, release;
  std::array<std::uint64_t, kSpanTypes> span_ns{};
  std::uint64_t traced_ops = 0;
  std::vector<SpanRec> spans;
  std::uint32_t read_tick = 0, write_tick = 0;
};

// Closed-loop operation runner.  kTraced times every public call; untraced
// runs time only a sampled subset of whole operations.
template <bool kTraced>
class Op {
 public:
  Op(Tree& t, Worker& w, const std::atomic<std::uint32_t>& slice,
     bool measuring, bool optimistic, bool delegate)
      : t_(t), w_(w), slice_(slice), measuring_(measuring),
        optimistic_(optimistic), delegate_(delegate) {}

  void run(Rng& rng, std::uint32_t read_pct) {
    const bool read = rng.below(100) < read_pct;
    const std::uint64_t x = rng.next();
    keep_ = kTraced && measuring_ && w_.traced_ops % kSpanKeepEvery == 0 &&
            w_.spans.size() + 64 < kSpanCap;
    const std::uint64_t t0 = stamp();
    bool sample = false;
    if (read) {
      if (!kTraced && measuring_) {
        sample = ++w_.read_tick % kReadSampleEvery == 0;
      }
      const std::uint64_t s0 = sample ? now() : 0;
      lookup(x);
      if (sample) w_.read_pair[slice()].add(now() - s0);
      if (measuring_) ++w_.reads;
    } else {
      if (!kTraced && measuring_) {
        sample = ++w_.write_tick % kWriteSampleEvery == 0;
      }
      const std::size_t idx = x % t_.nodes.size();
      const std::uint64_t s0 = sample ? now() : 0;
      update(idx);
      if (sample) w_.write_pair[slice()].add(now() - s0);
      ++w_.tally[idx];
      if (measuring_) ++w_.writes;
    }
    ++w_.ops;
    if constexpr (kTraced) {
      if (measuring_) {
        span(kSpanOp, t0, now());
        ++w_.traced_ops;
      }
    }
  }

 private:
  static std::uint64_t stamp() {
    if constexpr (kTraced) return now();
    return 0;
  }

  std::size_t slice() const {
    return std::min<std::size_t>(slice_.load(std::memory_order_relaxed),
                                 w_.read_pair.size() - 1);
  }

  void span(SpanType type, std::uint64_t s, std::uint64_t e) {
    if constexpr (kTraced) {
      if (!measuring_) return;
      const std::uint64_t d = e - s;
      w_.span_ns[type] += d;
      switch (type) {
        case kSpanReadAcquire: w_.read_acq.add(d); break;
        case kSpanWriteAcquire: w_.write_acq.add(d); break;
        case kSpanRelease: w_.release.add(d); break;
        default: break;
      }
      if (keep_) {
        w_.spans.push_back(
            {static_cast<std::uint32_t>(w_.traced_ops), type, s, e});
      }
    }
  }

  void check(const Record& r) {
    const std::uint64_t a = r.a.load(std::memory_order_relaxed);
    const std::uint64_t b = r.b.load(std::memory_order_relaxed);
    if (a != b) ++w_.failures;
  }

  void acquire_shared(std::size_t i) {
    const std::uint64_t s = stamp();
    t_.nodes[i].lock->lock_shared();
    span(kSpanReadAcquire, s, stamp());
  }

  void release_shared(std::size_t i) {
    const std::uint64_t s = stamp();
    t_.nodes[i].lock->unlock_shared();
    span(kSpanRelease, s, stamp());
  }

  // Hand-over-hand latch coupling from the root; with depth 0 this is one
  // shared acquisition of the hot record.
  void pessimistic_lookup(std::uint64_t key) {
    std::size_t idx = 0;
    std::uint32_t level = 0;
    acquire_shared(0);
    for (;;) {
      const std::uint64_t c0 = stamp();
      check(t_.nodes[idx].rec);
      const bool leaf = idx >= t_.inner;
      const std::size_t next = leaf ? 0 : t_.child(idx, key, level++);
      span(kSpanCs, c0, stamp());
      if (leaf) break;
      acquire_shared(next);
      release_shared(idx);
      idx = next;
    }
    release_shared(idx);
  }

  // Optimistic lock coupling: every node is read inside its own validated
  // window; any failed window restarts the descent from the root.
  bool optimistic_descent(std::uint64_t key) {
    std::size_t idx = 0;
    std::uint32_t level = 0;
    for (;;) {
      Node& n = t_.nodes[idx];
      const std::uint64_t s = stamp();
      const std::uint64_t v = n.lock->opt_read_begin();
      if (v == oll::kInvalidOptStamp) {
        span(kSpanReadAcquire, s, stamp());
        return false;
      }
      const std::uint64_t a = n.rec.a.load(std::memory_order_relaxed);
      const std::uint64_t b = n.rec.b.load(std::memory_order_relaxed);
      const bool ok = n.lock->opt_read_validate(v);
      span(kSpanReadAcquire, s, stamp());
      if (!ok) return false;
      if (a != b) ++w_.failures;  // torn read that passed validation
      if (idx >= t_.inner) return true;
      idx = t_.child(idx, key, level++);
    }
  }

  void lookup(std::uint64_t key) {
    if (optimistic_) {
      AnyRwLock& root = *t_.nodes[0].lock;
      const std::uint32_t retries = root.opt_max_retries();
      for (std::uint32_t attempt = 0; attempt <= retries; ++attempt) {
        if (optimistic_descent(key)) return;
      }
      root.count_opt_fallback();
    }
    pessimistic_lookup(key);
  }

  static void bump_record(void* rec) { static_cast<Record*>(rec)->bump(); }

  void update(std::size_t idx) {
    Node& n = t_.nodes[idx];
    if (delegate_) {
      const std::uint64_t s = stamp();
      n.lock->with_write(&Op::bump_record, &n.rec);
      span(kSpanWriteAcquire, s, stamp());
      return;
    }
    const std::uint64_t s = stamp();
    n.lock->lock();
    const std::uint64_t c0 = stamp();
    span(kSpanWriteAcquire, s, c0);
    n.rec.bump();
    const std::uint64_t r0 = stamp();
    span(kSpanCs, c0, r0);
    n.lock->unlock();
    span(kSpanRelease, r0, stamp());
  }

  Tree& t_;
  Worker& w_;
  const std::atomic<std::uint32_t>& slice_;
  const bool measuring_;
  const bool optimistic_;
  const bool delegate_;
  bool keep_ = false;
};

// --- one kind: set-up, warmup, measurement, verification -------------------

constexpr std::uint64_t kWarmupOps = 20000;     // per worker per round
constexpr std::uint32_t kSlicesPerRound = 4;
constexpr double kHangTimeoutS = 30.0;

struct Config {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  double kind_seconds = 1.0;
  std::vector<int> cpus;  // worker w is pinned to cpus[w]
};

struct KindResult {
  std::vector<double> setup_times;  // one per round
  std::vector<double> slice_rates;  // ops/s of every measured slice
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reads = 0, writes = 0;
  // Per measured slice: quantiles of the sampled operation latencies.
  std::vector<double> read_p50, read_p99, write_p50, write_p90, write_p99;
  std::uint64_t read_samples = 0, write_samples = 0;
  Hist read_acq, write_acq, release;
  std::array<std::uint64_t, kSpanTypes> span_ns{};
  std::uint64_t traced_ops = 0;
  oll::LockStatsSnapshot stats;  // summed over every node lock
  std::vector<std::vector<SpanRec>> spans;  // per worker
};

// Workers of one round.  Threads are joined in finish(); a worker that
// never finishes its operation is reported and the process exits non-zero
// (an unfinished operation cannot be waited out).
template <bool kTraced>
class Team {
 public:
  Team(Tree& tree, const Config& cfg, std::size_t kind_idx,
       std::uint32_t rep, bool optimistic, bool delegate)
      : workers_(cfg.cpus.size()) {
    for (Worker& w : workers_) {
      w.tally.assign(tree.nodes.size(), 0);
      w.read_pair.resize(kSlicesPerRound);
      w.write_pair.resize(kSlicesPerRound);
    }
    threads_.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      threads_.emplace_back([this, &tree, &cfg, i, kind_idx, rep, optimistic,
                             delegate] {
        pin_to(cfg.cpus[i]);
        Worker& w = workers_[i];
        Rng rng(mix(mix(cfg.seed, kind_idx), rep * 64 + i));
        const std::uint32_t rp = cfg.wl->read_pct;
        {
          Op<false> warm(tree, w, slice_, /*measuring=*/false, optimistic,
                         delegate);
          for (std::uint64_t k = 0; k < kWarmupOps; ++k) warm.run(rng, rp);
        }
        ready_.fetch_add(1, std::memory_order_acq_rel);
        while (!go_.load(std::memory_order_acquire)) {
          oll::cpu_relax();
        }
        Op<kTraced> op(tree, w, slice_, /*measuring=*/true, optimistic,
                       delegate);
        std::uint64_t n = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
          op.run(rng, rp);
          w.measured.store(++n, std::memory_order_relaxed);
        }
        done_.fetch_add(1, std::memory_order_acq_rel);
      });
    }
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;
  ~Team() {  // normally a no-op: finish() has joined every worker
    stop();
    go();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  void wait_ready() const {
    while (ready_.load(std::memory_order_acquire) != workers_.size()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  std::uint64_t measured() const {
    std::uint64_t s = 0;
    for (const Worker& w : workers_) {
      s += w.measured.load(std::memory_order_relaxed);
    }
    return s;
  }

  void go() { go_.store(true, std::memory_order_release); }
  void next_slice() { slice_.fetch_add(1, std::memory_order_relaxed); }
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  void finish(const char* kind) {
    const std::uint64_t deadline =
        now() + static_cast<std::uint64_t>(kHangTimeoutS * 1e9);
    while (done_.load(std::memory_order_acquire) != workers_.size()) {
      if (now() > deadline) {
        std::fprintf(stderr,
                     "lockbench: %s: %zu of %zu workers never completed their "
                     "operation (failure)\n",
                     kind, workers_.size() - done_.load(), workers_.size());
        std::fflush(stdout);
        std::_Exit(3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& t : threads_) t.join();
  }

  std::vector<Worker>& workers() { return workers_; }

 private:
  std::vector<Worker> workers_;
  std::atomic<std::size_t> ready_{0}, done_{0};
  std::atomic<bool> go_{false};
  std::atomic<std::uint32_t> slice_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Final-state oracle: every record consistent and equal to its write tally.
std::uint64_t verify(const Tree& tree, const std::vector<Worker>& ws) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    std::uint64_t expect = 0;
    for (const Worker& w : ws) expect += w.tally[i];
    const Record& r = tree.nodes[i].rec;
    if (r.a.load() != expect || r.b.load() != expect) ++bad;
  }
  return bad;
}

// One round of one kind: build its locks and data, spawn and warm the
// workers (the timed set-up), measure for `seconds`, then verify.  Results
// accumulate into `r` across rounds.
template <bool kTraced>
void run_round(const Config& cfg, std::size_t kind_idx, std::uint32_t round,
               double seconds, KindResult& r) {
  const KindSpec& ks = kKinds[kind_idx];
  const bool delegate = ks.kind == LockKind::kGollCombining;
  const std::uint64_t t0 = now();
  Tree tree(ks.kind, *cfg.wl);
  const bool optimistic = tree.nodes[0].lock->supports_optimistic();
  Team<kTraced> team(tree, cfg, kind_idx, round, optimistic, delegate);
  team.wait_ready();
  r.setup_times.push_back(static_cast<double>(now() - t0) * 1e-9);
  if constexpr (kTraced) {
    for (Node& n : tree.nodes) n.lock->reset_stats();
  }
  team.go();
  // The main thread sleeps while work is timed, waking once per slice.
  const std::uint64_t start = now();
  const auto slice_ns =
      static_cast<std::uint64_t>(seconds * 1e9 / kSlicesPerRound);
  std::uint64_t prev_ops = 0, prev_t = start;
  for (std::uint32_t s = 1; s <= kSlicesPerRound; ++s) {
    const std::uint64_t target = start + s * slice_ns;
    const std::uint64_t t = now();
    if (target > t) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target - t));
    }
    const std::uint64_t t1 = now();
    const std::uint64_t ops = team.measured();
    team.next_slice();
    r.slice_rates.push_back(static_cast<double>(ops - prev_ops) * 1e9 /
                            static_cast<double>(t1 - prev_t));
    prev_ops = ops;
    prev_t = t1;
  }
  team.stop();
  team.finish(ks.name);
  for (Worker& w : team.workers()) {
    r.attempted += w.ops;
    r.failed += w.failures;
    r.reads += w.reads;
    r.writes += w.writes;
    r.read_acq.merge(w.read_acq);
    r.write_acq.merge(w.write_acq);
    r.release.merge(w.release);
    for (std::size_t k = 0; k < kSpanTypes; ++k) r.span_ns[k] += w.span_ns[k];
    r.traced_ops += w.traced_ops;
    r.spans.push_back(std::move(w.spans));
  }
  for (std::uint32_t sl = 0; sl < kSlicesPerRound; ++sl) {
    Hist reads, writes;
    for (const Worker& w : team.workers()) {
      reads.merge(w.read_pair[sl]);
      writes.merge(w.write_pair[sl]);
    }
    r.read_samples += reads.count();
    r.write_samples += writes.count();
    if (reads.count() != 0) {
      r.read_p50.push_back(reads.quantile(0.5));
      r.read_p99.push_back(reads.quantile(0.99));
    }
    if (writes.count() != 0) {
      r.write_p50.push_back(writes.quantile(0.5));
      r.write_p90.push_back(writes.quantile(0.9));
      r.write_p99.push_back(writes.quantile(0.99));
    }
  }
  const std::uint64_t bad = verify(tree, team.workers());
  if (bad != 0) {
    std::fprintf(stderr, "lockbench: %s: %llu records disagree with their "
                 "write tally\n", ks.name,
                 static_cast<unsigned long long>(bad));
  }
  r.failed += bad;
  if constexpr (kTraced) {
    for (const Node& n : tree.nodes) r.stats += n.lock->stats();
  }
}

// The first `kinds` kinds, `rounds` times over, interleaved within each
// round so a slow drift of the host touches every kind alike.
template <bool kTraced>
std::vector<KindResult> run_kinds(const Config& cfg, std::size_t kinds,
                                  std::uint32_t rounds) {
  std::vector<KindResult> results(kinds);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < kinds; ++k) {
      run_round<kTraced>(cfg, k, round, cfg.kind_seconds / rounds,
                         results[k]);
    }
  }
  return results;
}

// --- layer micro-measurements (traced run only) ----------------------------

// Median wall time of one make_rwlock(K) and the heap each lock retains.
void measure_core(std::size_t kind_idx, double& make_us, double& lock_kb) {
  constexpr int kLocks = 24;
  std::vector<std::unique_ptr<AnyRwLock>> locks;
  locks.reserve(kLocks);
  std::vector<double> times;
  times.reserve(kLocks);
  const std::int64_t before = g_live_heap.load();
  for (int i = 0; i < kLocks; ++i) {
    const std::uint64_t t0 = now();
    locks.push_back(oll::make_rwlock(kKinds[kind_idx].kind));
    times.push_back(static_cast<double>(now() - t0) * 1e-3);
  }
  // One use of each lock, so lazily allocated state is counted too.
  for (auto& l : locks) {
    l->lock_shared();
    l->unlock_shared();
    l->lock();
    l->unlock();
  }
  lock_kb = static_cast<double>(g_live_heap.load() - before) / kLocks / 1024.0;
  make_us = median(times);
}

template <typename F>
double time_pairs_ns(std::uint64_t n, F&& pair) {
  const std::uint64_t t0 = now();
  for (std::uint64_t i = 0; i < n; ++i) pair();
  return static_cast<double>(now() - t0) / static_cast<double>(n);
}

// One-thread read pair through AnyRwLock minus the same pair on a direct
// GollLock<>; alternated blocks, median of each.
double measure_dispatch(int cpu) {
  double result = 0.0;
  std::thread([&] {
    pin_to(cpu);
    std::unique_ptr<AnyRwLock> any = oll::make_rwlock(LockKind::kGoll);
    oll::GollLock<> direct;
    constexpr std::uint64_t kPairs = 400000;
    std::vector<double> via_any, via_direct;
    for (int rep = 0; rep < 7; ++rep) {
      via_any.push_back(time_pairs_ns(kPairs, [&] {
        any->lock_shared();
        any->unlock_shared();
      }));
      via_direct.push_back(time_pairs_ns(kPairs, [&] {
        direct.lock_shared();
        direct.unlock_shared();
      }));
    }
    result = median(via_any) - median(via_direct);
  }).join();
  return result;
}

// Bare CSnzi<> arrive+depart pair time per thread at `threads` pinned
// threads (median of three 150 ms rounds).
double measure_snzi_pair(const std::vector<int>& cpus, std::size_t threads) {
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    oll::CSnzi<> snzi;
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> pairs(threads, 0);
    std::vector<std::thread> ts;
    for (std::size_t i = 0; i < threads; ++i) {
      ts.emplace_back([&, i] {
        pin_to(cpus[i % cpus.size()]);
        ready.fetch_add(1);
        while (ready.load() != threads + 1) oll::cpu_relax();
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const auto t = snzi.arrive();
          snzi.depart(t);
          ++n;
        }
        pairs[i] = n;
      });
    }
    while (ready.load() != threads) std::this_thread::yield();
    const std::uint64_t t0 = now();
    ready.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true);
    for (auto& t : ts) t.join();
    const double elapsed = static_cast<double>(now() - t0);
    std::uint64_t total = 0;
    for (std::uint64_t p : pairs) total += p;
    rounds.push_back(elapsed * static_cast<double>(threads) /
                     static_cast<double>(std::max<std::uint64_t>(total, 1)));
  }
  return median(rounds);
}

struct SimCounts {
  double read[4] = {};   // loads, stores, rmws, seq_cst per operation
  double write[4] = {};
  bool operator==(const SimCounts& o) const {
    return std::equal(read, read + 4, o.read) &&
           std::equal(write, write + 4, o.write);
  }
};

// Exact per-operation shared-memory traffic of one uncontended read and
// write, counted by the simulator with a single sim thread pinned to one
// CPU (so host scheduling cannot perturb it).  Reads and writes go through
// the kind's own API, as in the workloads.
SimCounts measure_sim(std::size_t kind_idx, int cpu) {
  SimCounts out;
  std::thread([&] {
    pin_to(cpu);
    oll::sim::Machine machine(oll::sim::t5440_topology(),
                              oll::sim::t5440_costs(), 64);
    oll::sim::ThreadGuard guard(machine, 0);
    const LockKind kind = kKinds[kind_idx].kind;
    std::unique_ptr<AnyRwLock> lock = oll::make_rwlock<oll::sim::SimMemory>(kind);
    Record rec;
    const bool optimistic = lock->supports_optimistic();
    const bool delegate = kind == LockKind::kGollCombining;
    auto read = [&] {
      if (optimistic) {
        const std::uint64_t v = lock->opt_read_begin();
        (void)rec.a.load(std::memory_order_relaxed);
        if (v != oll::kInvalidOptStamp && lock->opt_read_validate(v)) return;
        lock->count_opt_fallback();
      }
      lock->lock_shared();
      (void)rec.a.load(std::memory_order_relaxed);
      lock->unlock_shared();
    };
    auto write = [&] {
      if (delegate) {
        lock->with_write([](void* p) { static_cast<Record*>(p)->bump(); },
                         &rec);
      } else {
        lock->lock();
        rec.bump();
        lock->unlock();
      }
    };
    constexpr int kWarm = 256, kOps = 1024;
    auto per_op = [&](auto&& fn, double* dst) {
      for (int i = 0; i < kWarm; ++i) fn();
      const oll::sim::OpCounters c0 = guard.context().counters();
      for (int i = 0; i < kOps; ++i) fn();
      const oll::sim::OpCounters c1 = guard.context().counters();
      dst[0] = static_cast<double>(c1.loads - c0.loads) / kOps;
      dst[1] = static_cast<double>(c1.stores - c0.stores) / kOps;
      dst[2] = static_cast<double>(c1.rmws - c0.rmws) / kOps;
      dst[3] = static_cast<double>(c1.seq_cst_ops() - c0.seq_cst_ops()) / kOps;
    };
    per_op(read, out.read);
    per_op(write, out.write);
  }).join();
  return out;
}

// --- output -----------------------------------------------------------------

void write_span_dump(const std::string& path, const char* workload,
                     const std::vector<KindResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lockbench: cannot write span dump %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "# lockbench spans, workload=%s; every %u-th operation of "
               "each worker; times in ns (steady clock)\n",
               workload, kSpanKeepEvery);
  std::fprintf(f, "kind,worker,op,span,parent,start_ns,end_ns\n");
  for (std::size_t k = 0; k < results.size(); ++k) {
    for (std::size_t w = 0; w < results[k].spans.size(); ++w) {
      for (const SpanRec& s : results[k].spans[w]) {
        std::fprintf(f, "%s,%zu,%u,%s,%s,%llu,%llu\n", kKinds[k].name, w,
                     s.op, kSpanNames[s.type],
                     s.type == kSpanOp ? "" : "op",
                     static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.end));
      }
    }
  }
  std::fclose(f);
}

void print_provenance(const std::vector<int>& cpus) {
  std::printf("provenance build_type=%s OLL_TRACE=%d OLL_FAULTS=%d "
              "OLL_REGISTRY=%d OLL_PARK=%d OLL_DWCAS=%d OLL_DWCAS_CAPABLE=%d "
              "pinned_cpus=",
              PERFBENCH_BUILD_TYPE, OLL_TRACE, OLL_FAULTS, OLL_REGISTRY,
              OLL_PARK, OLL_DWCAS, OLL_DWCAS_CAPABLE);
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%s%d", i == 0 ? "" : ",", cpus[i]);
  }
  std::printf("\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: lockbench --workload read_mostly|write_heavy|index "
               "--seed N --seconds S --trace 0|1 [--span-dump FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* wl = nullptr;
  Config cfg;
  double seconds = 0.0;
  int trace = -1;
  std::string span_dump;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::string_view(w.name) == val) wl = &w;
      }
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--span-dump") {
      span_dump = val;
    } else {
      return usage();
    }
  }
  if (wl == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      argc % 2 == 0) {
    return usage();
  }
  cfg.wl = wl;
  std::vector<int> cpus = allowed_cpus();
  cfg.cpus.assign(cpus.begin(),
                  cpus.begin() + std::min<std::size_t>(cpus.size(), 4));
  cfg.kind_seconds = seconds / kNumKinds;
  print_provenance(cfg.cpus);

  std::uint64_t attempted = 0, failed = 0;
  if (trace == 0) {
    // Each kind is set up once per round (setup_s takes the median) and
    // measured in windows spread over the whole run.
    const std::vector<KindResult> results =
        run_kinds<false>(cfg, kNumKinds, wl->rounds);
    double setup_s = 0.0;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const KindResult& r = results[k];
      const std::string n = kKinds[k].name;
      emit("ops_per_s." + n, median(r.slice_rates), "1/s");
      std::printf("info %s reads=%llu writes=%llu read_p50_ns=%.0f "
                  "read_p99_ns=%.0f read_samples=%llu write_p50_ns=%.0f "
                  "write_p90_ns=%.0f write_p99_ns=%.0f write_samples=%llu "
                  "setup_s=%.4f slice_ops_per_s=",
                  kKinds[k].name, static_cast<unsigned long long>(r.reads),
                  static_cast<unsigned long long>(r.writes),
                  median(r.read_p50), median(r.read_p99),
                  static_cast<unsigned long long>(r.read_samples),
                  median(r.write_p50), median(r.write_p90),
                  median(r.write_p99),
                  static_cast<unsigned long long>(r.write_samples),
                  median(r.setup_times));
      for (std::size_t i = 0; i < r.slice_rates.size(); ++i) {
        std::printf("%s%.4g", i == 0 ? "" : ",", r.slice_rates[i]);
      }
      std::printf("\n");
      // Writes report p90: their p99 sits on the knee of the host's
      // vCPU-preemption tail (perfbench/README.md) and swings several-fold
      // between runs.
      if (k < kPaperKinds) {
        emit("read_p99_ns." + n, median(r.read_p99), "ns");
        emit("write_p90_ns." + n, median(r.write_p90), "ns");
      }
      setup_s += median(r.setup_times);
      attempted += r.attempted;
      failed += r.failed;
    }
    emit("setup_s", setup_s, "s");
  } else {
    const int cpu0 = cfg.cpus[0];
    const std::vector<KindResult> results =
        run_kinds<true>(cfg, kNumKinds, 1);
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const KindResult& r = results[k];
      attempted += r.attempted;
      failed += r.failed;
      const std::string p = std::string("locks.") + kKinds[k].name + ".";
      const oll::LockStatsSnapshot& s = r.stats;
      emit(p + "read_acquire_ns.p50", r.read_acq.quantile(0.5), "ns");
      emit(p + "read_acquire_ns.p99", r.read_acq.quantile(0.99), "ns");
      emit(p + "write_acquire_ns.p50", r.write_acq.quantile(0.5), "ns");
      emit(p + "write_acquire_ns.p99", r.write_acq.quantile(0.99), "ns");
      emit(p + "release_ns.p50", r.release.quantile(0.5), "ns");
      emit(p + "read_queued_frac", ratio(s.read_queued, s.reads()), "ratio");
      emit(p + "write_queued_frac", ratio(s.write_queued, s.writes()),
           "ratio");
      emit(p + "handoffs_per_write",
           ratio(s.meta_handoffs + s.wake_cohort_hits + s.wake_cross_domain,
                 r.writes),
           "count/op");
      if (k < kPaperKinds) {
        const std::string sp = std::string("snzi.") + kKinds[k].name + ".";
        emit(sp + "root_cas_fail_per_arrival",
             ratio(s.csnzi.root_cas_failures, s.csnzi.arrivals()), "count/op");
        emit(sp + "tree_arrival_frac",
             ratio(s.csnzi.tree_arrivals, s.csnzi.arrivals()), "ratio");
      }
      switch (kKinds[k].kind) {
        case LockKind::kBravoGoll:
          emit(p + "read_bias_frac", ratio(s.read_bias, s.reads()), "ratio");
          emit(p + "revokes_per_kwrite", 1000.0 * ratio(s.bias_revoke, r.writes),
               "count/kop");
          break;
        case LockKind::kOptGoll:
          emit(p + "opt_fail_per_read",
               ratio(s.opt_validation_failures, r.reads), "count/op");
          emit(p + "fallback_frac", ratio(s.opt_fallbacks, r.reads), "ratio");
          break;
        case LockKind::kGollCombining:
          emit(p + "combined_frac", ratio(s.combined_ops, r.writes), "ratio");
          break;
        default:
          break;
      }
      // Self time per layer: the op span minus its children.
      const double ops =
          static_cast<double>(std::max<std::uint64_t>(r.traced_ops, 1));
      const std::uint64_t children = r.span_ns[kSpanReadAcquire] +
                                     r.span_ns[kSpanWriteAcquire] +
                                     r.span_ns[kSpanCs] + r.span_ns[kSpanRelease];
      std::printf("selftime %s ns_per_op op=%.1f read_acquire=%.1f "
                  "write_acquire=%.1f cs=%.1f release=%.1f\n",
                  kKinds[k].name,
                  static_cast<double>(r.span_ns[kSpanOp] - children) / ops,
                  static_cast<double>(r.span_ns[kSpanReadAcquire]) / ops,
                  static_cast<double>(r.span_ns[kSpanWriteAcquire]) / ops,
                  static_cast<double>(r.span_ns[kSpanCs]) / ops,
                  static_cast<double>(r.span_ns[kSpanRelease]) / ops);
    }
    // Tracing health: the same goll phase again, untraced.
    const KindResult plain = run_kinds<false>(cfg, 1, 1)[0];
    attempted += plain.attempted;
    failed += plain.failed;
    emit("bench.trace_overhead_frac",
         1.0 - median(results[0].slice_rates) / median(plain.slice_rates),
         "ratio");

    for (std::size_t k = 0; k < kNumKinds; ++k) {
      double make_us = 0.0, lock_kb = 0.0;
      measure_core(k, make_us, lock_kb);
      emit(std::string("core.make_us.") + kKinds[k].name, make_us, "us");
      emit(std::string("core.lock_kb.") + kKinds[k].name, lock_kb, "KB");
    }
    emit("core.dispatch_ns", measure_dispatch(cpu0), "ns");
    emit("snzi.pair_ns.t1", measure_snzi_pair(cfg.cpus, 1), "ns");
    emit("snzi.pair_ns.t4", measure_snzi_pair(cfg.cpus, 4), "ns");

    static constexpr const char* kCounter[4] = {"loads", "stores", "rmws",
                                                "seq_cst"};
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const SimCounts first = measure_sim(k, cpu0);
      const SimCounts again = measure_sim(k, cpu0);
      attempted += 2;
      if (!(first == again)) {
        ++failed;
        std::fprintf(stderr, "lockbench: sim counts of %s differ between two "
                     "runs\n", kKinds[k].name);
      }
      const std::string p = std::string("sim.") + kKinds[k].name + ".";
      for (int c = 0; c < 4; ++c) {
        emit(p + "read." + kCounter[c], first.read[c], "count/op");
        emit(p + "write." + kCounter[c], first.write[c], "count/op");
      }
    }
    if (!span_dump.empty()) write_span_dump(span_dump, wl->name, results);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  if (trace == 0) {
    emit("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  }
  std::printf("check attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}
