// C-SNZI: closable scalable nonzero indicator (paper §2, Figure 2).
//
// A SNZI object lets threads Arrive and Depart and answers only "is there a
// surplus of arrivals?".  The closable variant adds Open/Close so a writer
// can atomically forbid further arrivals — the key to the OLL reader-writer
// locks: readers Arrive/Depart, writers Close/Open.
//
// Implementation follows the simplified Lev et al. algorithm reproduced in
// Figure 2 of the paper:
//
//   * The root is a single CAS-able 64-bit word holding the surplus and the
//     OPEN/CLOSED bit.  Per the tuning note in §5.1, the root keeps TWO
//     counters: one for arrivals made directly at the root and one for
//     arrivals propagated up from the tree.  This both implements the
//     root-contention optimization the authors used and provides exactly the
//     information needed for write-upgrade (§3.2.1).
//   * Below the root sits an optional tree of counter nodes.  An Arrive at a
//     node only touches its parent when the node's count might change from
//     zero ("first arrival"), and symmetrically for Depart ("last
//     departure"), so under heavy read contention most arrivals stay on a
//     leaf the arriving thread effectively owns.
//   * A thread Arrives at the root unless it keeps losing the root CAS or
//     sees that other threads are already using the tree
//     (ShouldArriveAtTree, §5.1); the tree is allocated lazily on first use
//     so uncontended C-SNZIs pay no space (§2.2).
//   * Per-thread state (cached leaf, sticky window, arrival counters) lives
//     in a PerThreadSlots (locks/per_thread.hpp): an instance no thread has
//     arrived at costs a few null pointers, and each arriving thread pays
//     for its own slot only.  That matters for FOLL/ROLL, whose reader-node
//     pools hold hundreds of C-SNZIs of which a run touches a few.  A recycled
//     dense index keeps its slot; thread_state() drops the predecessor's
//     sticky state against the index epoch.
//   * Threads are mapped onto leaves by a topology-derived LeafMap
//     (platform/topology.hpp): SMT siblings sharing an L1 share a leaf by
//     default, so the leaf line ping-pongs only between nearly-free
//     neighbours.  The seed's static `leaf_shift` survives as an override.
//   * Sticky arrivals: once an adaptive thread has switched to the tree it
//     goes straight to its cached leaf for the next `sticky_arrivals`
//     arrivals without loading the root word at all.  This is legal by the
//     §2.2 linearization rule — a tree arrival fails only at a CLOSED root
//     with zero surplus, a condition tree_arrive() itself detects when the
//     leaf's first arrival propagates — so the root check was always
//     advisory on this path.  Hysteresis: a sticky window that propagated
//     to the root more than `sticky_decay_propagations` times means the
//     leaf keeps draining (reader traffic is low), so the thread decays
//     back to direct root arrivals and the uncontended 1-CAS fast path is
//     restored.  At read saturation the leaf never drains and the window
//     re-arms for free, but only `sticky_rearm_windows` times in a row:
//     the next re-arm re-reads the root and refuses to re-arm if the
//     C-SNZI has been closed.  Without that bound, sticky readers sharing
//     a hot leaf could keep arriving forever after Close — each success
//     keeps the leaf nonzero for the next — and a writer waiting for the
//     surplus to drain would starve.  The periodic read (one load per
//     `sticky_rearm_windows * sticky_arrivals` arrivals, of a line that
//     stays in shared state) caps a closing writer's wait at one window
//     burst per reader while keeping steady-state root traffic ~zero.
//
// Linearization subtlety faithfully preserved (§2.2): an arrival through the
// tree may increment a leaf whose count is nonzero without touching the
// root, even if a Close has happened in between; such an Arrive linearizes
// at the earlier point where the thread saw the C-SNZI open.  Consequently a
// tree arrival propagating to the root only fails when the root is CLOSED
// with zero total surplus.  Sticky arrivals lean on exactly this rule: the
// "saw the C-SNZI open" point is the root access that armed the window.
//
// Root width (DESIGN.md §15): by default the root is the single CAS-able
// 64-bit word above.  CSnziOptions::dwcas_root selects a 16-byte fused root
// packing {count word, state, version} and updated with one double-width
// CAS (x86-64 cmpxchg16b through libatomic; CASP on AArch64): every
// OPEN<->CLOSED flip stamps a fresh version in the same atomic step that
// moves the counts, so a reader's count CAS can never succeed blindly
// across a close/open pair (the open-bit ABA the 64-bit root tolerates),
// and state+version observation is one load instead of a multi-word read
// protocol.  When the build lacks 16-byte atomics — or OLL_DWCAS=0, the
// forced "-mcx16-less" CI leg — the option silently degrades to the
// pointer-width root; dwcas_active() reports the outcome and
// root_version() reads 0 in fallback mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>

#include "locks/per_thread.hpp"
#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "platform/trace.hpp"
#include "snzi/csnzi_stats.hpp"

// Build-time capability for the 16-byte root: the OLL_DWCAS kill switch
// (CMake cache var; the link probe there downgrades it when 16-byte atomics
// will not link) plus an __int128 toolchain.  Kept as a macro so the
// fallback build contains no 16-byte atomic instantiation at all.
#ifndef OLL_DWCAS
#define OLL_DWCAS 1
#endif
#if OLL_DWCAS && defined(__SIZEOF_INT128__)
#define OLL_DWCAS_CAPABLE 1
#else
#define OLL_DWCAS_CAPABLE 0
#endif

namespace oll {

// Where Arrive should try first; kAdaptive is the paper's policy, the other
// two exist for the ablation benchmarks.
enum class ArrivalPolicy : std::uint8_t {
  kAdaptive,    // root until contention is observed (§5.1)
  kAlwaysRoot,  // degenerate: central counter
  kAlwaysTree,  // always pay the tree path
};

struct CSnziOptions {
  // Number of leaf counter nodes (rounded up to a power of two).  64 leaves
  // comfortably spread 256 threads, matching the evaluation machine.
  std::uint32_t leaves = 64;
  // Levels of counter nodes below the root.  1 reproduces Figure 2's
  // root+leaves shape; deeper trees trade latency for less root traffic.
  std::uint32_t levels = 1;
  // Fan-in of internal levels when levels > 1.
  std::uint32_t fanout = 8;
  // Consecutive root-CAS failures before switching to the tree.
  std::uint32_t root_cas_fail_threshold = 2;
  // Allocate the tree on first tree arrival instead of up front (§2.2).
  bool lazy_tree = true;
  ArrivalPolicy policy = ArrivalPolicy::kAdaptive;
  // Static fallback locality: leaf index = (thread_index >> leaf_shift)
  // mod leaves.  Only used when topology_mapping resolves to kStaticShift;
  // setting it nonzero under kAuto selects kStaticShift for backward
  // compatibility.  normalize() clamps it so the shift cannot collapse
  // every registerable thread onto leaf 0 (unless leaves == 1, which is an
  // explicit request for a single leaf).
  std::uint32_t leaf_shift = 0;
  // How thread indices map onto leaves.  kAuto resolves to kSmtCluster on
  // the topology below (or kStaticShift when leaf_shift was set).
  LeafMapping topology_mapping = LeafMapping::kAuto;
  // Topology the mapping is derived from; nullptr means Topology::system().
  // The simulator passes its synthetic T5440 shape instead.  Must outlive
  // the C-SNZI.
  const Topology* topology = nullptr;
  // Sticky window length: tree arrivals made without a root read after an
  // adaptive switch to the tree.  0 disables the sticky fast path (every
  // arrival re-reads the root, the seed behaviour).
  std::uint32_t sticky_arrivals = 64;
  // Hysteresis: decay back to direct root arrivals when a sticky window
  // propagated to the root more than this many times (the leaf kept
  // draining, so tree arrivals are paying root traffic anyway).
  std::uint32_t sticky_decay_propagations = 8;
  // Consecutive root-free window re-arms allowed before a re-arm must
  // re-read the root word and drop the window if the C-SNZI was closed.
  // Bounds how long sticky readers on a shared hot leaf can keep a closing
  // writer waiting (see file comment); 0 checks the root on every re-arm.
  std::uint32_t sticky_rearm_windows = 4;
  // Upper bound on dense thread indices that will use this instance; sizes
  // the per-thread state array.  0 means kMaxThreads; locks plumb their own
  // max_threads through.
  std::uint32_t max_threads = 0;
  // Fused 16-byte {count, state, version} root (see file comment).
  // normalize() clears it when the build cannot do a 16-byte CAS, so callers
  // may request it unconditionally; dwcas_active() reports the outcome.
  bool dwcas_root = false;
};

// Result of Query: (surplus != 0, state == OPEN).
struct SnziQuery {
  bool nonzero;
  bool open;
};

template <typename M = RealMemory>
class CSnzi {
 public:
  // --- root word layout -------------------------------------------------
  // bits [0, 28)   direct-arrival surplus
  // bits [28, 56)  tree-propagated surplus
  // bit  56        OPEN flag
  static constexpr std::uint64_t kDirectShift = 0;
  static constexpr std::uint64_t kTreeShift = 28;
  static constexpr std::uint64_t kCountMask = (1ULL << 28) - 1;
  static constexpr std::uint64_t kOpenBit = 1ULL << 56;
  static constexpr std::uint64_t kDirectOne = 1ULL << kDirectShift;
  static constexpr std::uint64_t kTreeOne = 1ULL << kTreeShift;

  static constexpr std::uint64_t direct_count(std::uint64_t w) noexcept {
    return (w >> kDirectShift) & kCountMask;
  }
  static constexpr std::uint64_t tree_count(std::uint64_t w) noexcept {
    return (w >> kTreeShift) & kCountMask;
  }
  static constexpr std::uint64_t total_count(std::uint64_t w) noexcept {
    return direct_count(w) + tree_count(w);
  }
  static constexpr bool is_open(std::uint64_t w) noexcept {
    return (w & kOpenBit) != 0;
  }
  static constexpr std::uint64_t make_root(std::uint64_t direct,
                                           std::uint64_t tree,
                                           bool open) noexcept {
    return (direct << kDirectShift) | (tree << kTreeShift) |
           (open ? kOpenBit : 0);
  }

  // --- tree node ---------------------------------------------------------
  struct alignas(kFalseSharingRange) Node {
    typename M::template Atomic<std::uint64_t> cnt{0};
    Node* parent = nullptr;  // nullptr => parent is the root word
  };

  // Opaque handle naming the node an Arrive landed on; must be passed back
  // to Depart.  A default-constructed / failed ticket answers false to
  // arrived().
  class Ticket {
   public:
    Ticket() = default;

    bool arrived() const noexcept { return kind_ != Kind::kNone; }
    bool is_direct() const noexcept { return kind_ == Kind::kRoot; }

   private:
    friend class CSnzi;
    enum class Kind : std::uint8_t { kNone, kRoot, kNode };
    explicit Ticket(Kind k, Node* n = nullptr) : kind_(k), node_(n) {}

    Kind kind_ = Kind::kNone;
    Node* node_ = nullptr;
  };

  explicit CSnzi(const CSnziOptions& opts = {})
      : opts_(normalize(opts)),
        leaf_map_(opts_.topology, opts_.topology_mapping, opts_.leaves,
                  opts_.leaf_shift),
        thread_state_(opts_.max_threads) {
    use_dwcas_ = opts_.dwcas_root;
    root_.store(make_root(0, 0, true), std::memory_order_relaxed);
#if OLL_DWCAS_CAPABLE
    root16_.store(pack16(make_root(0, 0, true), 0),
                  std::memory_order_relaxed);
#endif
    if (!opts_.lazy_tree) ensure_tree();
  }

  ~CSnzi() {
    delete[] tree_storage_.load(std::memory_order_acquire);
  }

  CSnzi(const CSnzi&) = delete;
  CSnzi& operator=(const CSnzi&) = delete;

  // --- C-SNZI operations (Figure 1 specification) ------------------------

  // Arrive: increments the surplus iff the C-SNZI is open (with the tree
  // linearization subtlety described above).  Returns a ticket; a failed
  // arrival (closed C-SNZI) returns a ticket with arrived() == false.
  Ticket arrive() {
    ThreadState& ts = thread_state();
    if (ts.sticky > 0) {
      // Sticky fast path: recently switched to the tree; go straight to the
      // cached leaf.  No root access of any kind happens here unless the
      // leaf's count is zero (first arrival propagates; see file comment).
      --ts.sticky;
      Node* leaf = ts.leaf;
      if (tree_arrive(leaf, &ts)) {
        bump(ts.tree_arrivals);
        bump(ts.sticky_arrivals);
        if (ts.sticky == 0) rearm_or_decay(ts);
        return Ticket{Ticket::Kind::kNode, leaf};
      }
      // Closed with zero surplus: the window is over either way.
      ts.sticky = 0;
      ts.window_propagations = 0;
      return Ticket{};
    }
    std::uint32_t root_failures = 0;
    RootView old = root_load(std::memory_order_acquire);
    bump(ts.root_reads);
    while (true) {
      if (!is_open(old.word)) return Ticket{};
      if (!should_arrive_at_tree(old.word, root_failures)) {
        if (fault_cas_fail(FaultSite::kCasRetry)) {
          // Injected spurious failure: legal wherever compare_exchange_weak
          // may fail spuriously.  Reload and retry like a genuine miss.
          old = root_load(std::memory_order_acquire);
          ++root_failures;
          bump(ts.root_cas_failures);
          continue;
        }
        if (root_cas_weak(old, old.word + kDirectOne)) {
          bump(ts.direct_arrivals);
          return Ticket{Ticket::Kind::kRoot};
        }
        ++root_failures;  // the failed CAS reloaded `old` for us
        bump(ts.root_cas_failures);
      } else {
        Node* leaf = leaf_for_thread(ts);
        arm_sticky(ts, leaf);
        if (tree_arrive(leaf, &ts)) {
          bump(ts.tree_arrivals);
          return Ticket{Ticket::Kind::kNode, leaf};
        }
        ts.sticky = 0;
        ts.window_propagations = 0;
        return Ticket{};
      }
    }
  }

  // Depart: decrements the surplus.  Returns false iff the resulting state
  // is CLOSED with zero surplus (the "last departure" a lock uses to detect
  // that it must hand over to a waiting writer).  Requires a ticket from a
  // successful arrival (or direct_ticket() backed by open_with_arrivals).
  bool depart(const Ticket& t) {
    OLL_DCHECK(t.arrived());
    if (t.kind_ == Ticket::Kind::kRoot) return root_depart_direct();
    return tree_depart(t.node_);
  }

  // Query: (surplus > 0, open).  A single root read — the whole point of
  // SNZI is that this is accurate without touching the tree.
  SnziQuery query() const {
    const std::uint64_t w = root_load(std::memory_order_acquire).word;
    return SnziQuery{total_count(w) > 0, is_open(w)};
  }

  // Close: transitions OPEN -> CLOSED regardless of surplus.  Returns true
  // iff the C-SNZI was open with zero surplus (i.e. the caller atomically
  // "acquired" the empty indicator).
  bool close() {
    RootView old = root_load(std::memory_order_acquire);
    while (true) {
      if (!is_open(old.word)) return false;
      const std::uint64_t desired = old.word & ~kOpenBit;
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        old = root_load(std::memory_order_acquire);
        continue;
      }
      if (root_cas_weak(old, desired)) {
        trace_event(TraceEventType::kCsnziClose, this);
        return total_count(desired) == 0;
      }
    }
  }

  // CloseIfEmpty (§2.1): close only when open with zero surplus.  Returns
  // true iff the state changed OPEN->CLOSED (writers use this as their
  // uncontended fast path).
  bool close_if_empty() {
#if OLL_DWCAS_CAPABLE
    if (use_dwcas_) {
      // The fused root needs the current version in `expected`, so this
      // path pays one root load the pointer-width blind CAS below avoids;
      // in exchange the successful close stamps version+1 in the same
      // 16-byte CAS that flips the state.
      unsigned __int128 cur = root16_.load(std::memory_order_acquire);
      while (lo64(cur) == make_root(0, 0, true)) {
        if (root16_.compare_exchange_weak(
                cur, pack16(make_root(0, 0, false), hi64(cur) + 1),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          trace_event(TraceEventType::kCsnziClose, this);
          return true;
        }
      }
      return false;
    }
#endif
    std::uint64_t old = make_root(0, 0, true);
    if (root_.compare_exchange_strong(old, make_root(0, 0, false),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      trace_event(TraceEventType::kCsnziClose, this);
      return true;
    }
    return false;
  }

  // Open: requires CLOSED with zero surplus (lock is write-held by caller).
  void open() {
    OLL_DCHECK(!is_open(root_load(std::memory_order_relaxed).word));
    OLL_DCHECK(total_count(root_load(std::memory_order_relaxed).word) == 0);
    trace_event(TraceEventType::kCsnziOpen, this);
    root_store_exclusive(make_root(0, 0, true));
  }

  // OpenWithArrivals (§2.1): atomically open, perform `count` arrivals
  // (credited to the direct counter — the waiting readers were handed
  // direct tickets), and optionally close again (writers still queued).
  // Requires CLOSED with zero surplus.
  void open_with_arrivals(std::uint64_t count, bool then_close) {
    OLL_DCHECK(!is_open(root_load(std::memory_order_relaxed).word));
    OLL_DCHECK(total_count(root_load(std::memory_order_relaxed).word) == 0);
    OLL_DCHECK(count <= kCountMask);
    if (!then_close) trace_event(TraceEventType::kCsnziOpen, this);
    root_store_exclusive(make_root(count, 0, !then_close));
  }

  // A ticket departing directly from the root; used by lock code when a
  // releasing writer pre-arrives on behalf of sleeping readers
  // (OpenWithArrivals), who then each depart with a direct ticket.
  Ticket direct_ticket() const { return Ticket{Ticket::Kind::kRoot}; }

  // Abort support (timed acquisition, DESIGN.md §11): forget the calling
  // thread's sticky window and cached leaf in this instance.  A reader that
  // abandons a timed wait may release its dense index immediately after
  // returning (worker teardown, ScopedThreadIndex destruction), and the
  // index_epoch recycling guard in thread_state() only fires when the NEXT
  // holder of the index touches this instance through arrive() — an armed
  // window must not sit in the slot counting on that.  Draining here makes
  // abandonment self-contained: the slot an abandoning thread leaves behind
  // is indistinguishable from a fresh one.
  void drain_thread_sticky() {
    const std::uint32_t idx = this_thread_index();
    ThreadState* ts = thread_state_.find(idx);
    if (ts == nullptr) return;
    ts->epoch = ThreadRegistry::index_epoch(idx);
    ts->leaf = nullptr;
    ts->sticky = 0;
    ts->window_propagations = 0;
    ts->root_free_rearms = 0;
  }

  // --- write-upgrade support (§3.2.1) ------------------------------------
  //
  // try_upgrade_exclusive: the caller holds one arrival (ticket t).  If it
  // is the *sole* surplus and the C-SNZI is open, atomically close with zero
  // surplus (the caller now "owns" the closed indicator — write-acquired in
  // lock terms) and return true.  Otherwise return false; on return the
  // caller still holds exactly one arrival, though t may have been traded
  // for a direct-root ticket (the paper's counter trade).
  bool try_upgrade_exclusive(Ticket& t) {
    OLL_DCHECK(t.arrived());
    if (t.kind_ == Ticket::Kind::kNode) {
      // Trade the tree arrival for a direct arrival at the root, then test.
      if (!root_arrive_direct()) return false;  // closed: writer waiting
      tree_depart(t.node_);  // cannot be last: our direct arrival counts
      t = Ticket{Ticket::Kind::kRoot};
    }
    // Sole holder iff direct == 1 and tree == 0.  The fused root also pins
    // the version: a close/open epoch between the load and the CAS makes
    // the upgrade fail (conservatively — the sole surplus then predates the
    // reopen), where the 64-bit word would ABA straight through.
    RootView expected{make_root(1, 0, true), 0};
#if OLL_DWCAS_CAPABLE
    if (use_dwcas_) {
      expected.version = root_load(std::memory_order_acquire).version;
    }
#endif
    return root_cas_strong(expected, make_root(0, 0, false));
  }

  // Inverse of the above for lock downgrade: caller owns the closed, empty
  // indicator and converts it to a single direct arrival.
  Ticket downgrade_shared() {
    open_with_arrivals(1, /*then_close=*/false);
    return Ticket{Ticket::Kind::kRoot};
  }

  // --- introspection (tests / diagnostics) -------------------------------
  std::uint64_t root_word() const {
    return root_load(std::memory_order_acquire).word;
  }
  // Version stamp of the fused root: bumps exactly when the OPEN bit flips.
  // Always 0 in pointer-width mode.
  std::uint64_t root_version() const {
    return root_load(std::memory_order_acquire).version;
  }
  // Whether the 16-byte root is live (dwcas_root requested AND the build is
  // capable); false means the pointer-width fallback is running.
  bool dwcas_active() const { return use_dwcas_; }
  bool tree_allocated() const {
    return tree_storage_.load(std::memory_order_acquire) != nullptr;
  }
  std::uint32_t leaf_count() const { return opts_.leaves; }
  const CSnziOptions& options() const { return opts_; }

  // Which leaf index the mapping assigns to a dense thread index.
  std::uint32_t leaf_index_of(std::uint32_t thread_index) const {
    return leaf_map_.leaf_of(thread_index);
  }

  // Arrival-path counters summed over threads; approximate while arrivals
  // are in flight, exact at quiescence (see csnzi_stats.hpp).
  CSnziStatsSnapshot stats() const {
    CSnziStatsSnapshot total;
    thread_state_.for_each([&total](std::uint32_t, const ThreadState& ts) {
      total.root_reads += ts.root_reads.load(std::memory_order_relaxed);
      total.direct_arrivals +=
          ts.direct_arrivals.load(std::memory_order_relaxed);
      total.tree_arrivals += ts.tree_arrivals.load(std::memory_order_relaxed);
      total.sticky_arrivals +=
          ts.sticky_arrivals.load(std::memory_order_relaxed);
      total.root_cas_failures +=
          ts.root_cas_failures.load(std::memory_order_relaxed);
      total.root_propagations +=
          ts.root_propagations.load(std::memory_order_relaxed);
      total.redundant_undos +=
          ts.redundant_undos.load(std::memory_order_relaxed);
    });
    return total;
  }

 private:
  // Per-(thread, instance) state: the cached leaf and sticky window (owner
  // thread only — plain fields) plus the arrival counters (single-writer
  // relaxed atomics so stats() may read them concurrently, same scheme as
  // locks/lock_stats.hpp).  These are plain std::atomic even in simulated
  // builds: observability must not distort the virtual-time cost model.
  struct ThreadState {
    Node* leaf = nullptr;
    std::uint32_t sticky = 0;
    std::uint32_t window_propagations = 0;
    std::uint32_t root_free_rearms = 0;
    // Registration epoch of the dense thread index this slot was last used
    // under (platform/thread_id.hpp).  Dense indices are recycled when a
    // thread exits (or when the harness re-pins a new worker via
    // ScopedThreadIndex); a successor must not inherit its predecessor's
    // armed window or cached leaf, so thread_state() resets the slot on an
    // epoch mismatch.  The cumulative stats counters survive recycling.
    std::uint32_t epoch = 0;
    std::atomic<std::uint64_t> root_reads{0};
    std::atomic<std::uint64_t> direct_arrivals{0};
    std::atomic<std::uint64_t> tree_arrivals{0};
    std::atomic<std::uint64_t> sticky_arrivals{0};
    std::atomic<std::uint64_t> root_cas_failures{0};
    std::atomic<std::uint64_t> root_propagations{0};
    std::atomic<std::uint64_t> redundant_undos{0};
  };

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  static CSnziOptions normalize(CSnziOptions o) {
    if (o.leaves == 0) o.leaves = 1;
    // Round leaves up to a power of two for cheap masking.
    std::uint32_t p = 1;
    while (p < o.leaves) p <<= 1;
    o.leaves = p;
    if (o.levels == 0) o.levels = 1;
    if (o.fanout < 2) o.fanout = 2;
    if (o.max_threads == 0 || o.max_threads > kMaxThreads) {
      o.max_threads = kMaxThreads;
    }
    // Clamp leaf_shift: a shift that sends every thread index this instance
    // can see (bounded by the just-defaulted max_threads) to leaf 0 is
    // always a misconfiguration when more than one leaf was requested
    // (leaves == 1 is the explicit way to ask for one leaf).
    if (o.leaves > 1 && o.max_threads > 1) {
      std::uint32_t max_shift = 0;
      while (((o.max_threads - 1) >> (max_shift + 1)) != 0) ++max_shift;
      if (o.leaf_shift > max_shift) o.leaf_shift = max_shift;
    }
    if (o.topology_mapping == LeafMapping::kAuto) {
      // A caller who set leaf_shift asked for the seed's static scheme.
      o.topology_mapping = o.leaf_shift != 0 ? LeafMapping::kStaticShift
                                             : LeafMapping::kSmtCluster;
    }
    if (o.topology == nullptr) o.topology = &Topology::system();
#if !OLL_DWCAS_CAPABLE
    o.dwcas_root = false;  // pointer-width fallback (see file comment)
#endif
    return o;
  }

  // --- root access: one logical view over both widths ---------------------
  // The packed 64-bit count/state word plus the version stamp (always 0 in
  // pointer-width mode).  Every root CAS loop runs on this view so the two
  // widths share one control flow.
  struct RootView {
    std::uint64_t word;
    std::uint64_t version;
  };

#if OLL_DWCAS_CAPABLE
  static constexpr unsigned __int128 pack16(std::uint64_t word,
                                            std::uint64_t version) noexcept {
    return (static_cast<unsigned __int128>(version) << 64) | word;
  }
  static constexpr std::uint64_t lo64(unsigned __int128 v) noexcept {
    return static_cast<std::uint64_t>(v);
  }
  static constexpr std::uint64_t hi64(unsigned __int128 v) noexcept {
    return static_cast<std::uint64_t>(v >> 64);
  }
#endif

  RootView root_load(std::memory_order mo) const {
#if OLL_DWCAS_CAPABLE
    if (use_dwcas_) {
      const unsigned __int128 v = root16_.load(mo);
      return RootView{lo64(v), hi64(v)};
    }
#endif
    return RootView{root_.load(mo), 0};
  }

  // Weak CAS on the root view; on failure `old` holds the fresh view, like
  // compare_exchange_weak.  In DWCAS mode an OPEN-bit flip stamps version+1
  // inside the same 16-byte CAS — state, count and version move in one
  // atomic step, which is the entire point of the fused root.
  bool root_cas_weak(RootView& old, std::uint64_t desired) {
#if OLL_DWCAS_CAPABLE
    if (use_dwcas_) {
      const std::uint64_t ver =
          old.version + (is_open(old.word) != is_open(desired) ? 1 : 0);
      unsigned __int128 expected = pack16(old.word, old.version);
      if (root16_.compare_exchange_weak(expected, pack16(desired, ver),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return true;
      }
      old = RootView{lo64(expected), hi64(expected)};
      return false;
    }
#endif
    return root_.compare_exchange_weak(old.word, desired,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  bool root_cas_strong(RootView& old, std::uint64_t desired) {
#if OLL_DWCAS_CAPABLE
    if (use_dwcas_) {
      const std::uint64_t ver =
          old.version + (is_open(old.word) != is_open(desired) ? 1 : 0);
      unsigned __int128 expected = pack16(old.word, old.version);
      if (root16_.compare_exchange_strong(expected, pack16(desired, ver),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        return true;
      }
      old = RootView{lo64(expected), hi64(expected)};
      return false;
    }
#endif
    return root_.compare_exchange_strong(old.word, desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  // Plain release store of a new root word; caller owns the root
  // exclusively (CLOSED with zero surplus), so no concurrent update can
  // succeed between our load of the version and the store.
  void root_store_exclusive(std::uint64_t word) {
#if OLL_DWCAS_CAPABLE
    if (use_dwcas_) {
      const unsigned __int128 cur =
          root16_.load(std::memory_order_relaxed);
      const std::uint64_t ver =
          hi64(cur) + (is_open(lo64(cur)) != is_open(word) ? 1 : 0);
      root16_.store(pack16(word, ver), std::memory_order_release);
      return;
    }
#endif
    root_.store(word, std::memory_order_release);
  }

  bool should_arrive_at_tree(std::uint64_t root_word,
                             std::uint32_t failures) const {
    switch (opts_.policy) {
      case ArrivalPolicy::kAlwaysRoot:
        return false;
      case ArrivalPolicy::kAlwaysTree:
        return true;
      case ArrivalPolicy::kAdaptive:
        // §5.1: favor direct arrivals until we lose the root CAS repeatedly
        // or see that other threads have already moved to the tree.
        return failures >= opts_.root_cas_fail_threshold ||
               tree_count(root_word) > 0;
    }
    return false;
  }

  // --- sticky window management ------------------------------------------
  void arm_sticky(ThreadState& ts, Node* leaf) {
    if (opts_.sticky_arrivals == 0 ||
        opts_.policy != ArrivalPolicy::kAdaptive) {
      return;
    }
    ts.leaf = leaf;
    ts.sticky = opts_.sticky_arrivals;
    ts.window_propagations = 0;
    ts.root_free_rearms = 0;
  }

  void rearm_or_decay(ThreadState& ts) {
    // A noisy window means the leaf kept draining, so tree arrivals were
    // paying root traffic anyway — decay to the direct path (ts.sticky
    // stays 0).
    if (ts.window_propagations > opts_.sticky_decay_propagations) {
      ts.window_propagations = 0;
      ts.root_free_rearms = 0;
      return;
    }
    ts.window_propagations = 0;
    // A quiet window means the leaf stayed hot: stay in the tree.  Re-arm
    // without touching the root at most sticky_rearm_windows times in a
    // row; then re-read the root so a Close demotes this thread to the
    // root-reading path instead of letting it feed the leaf forever (the
    // writer-starvation bound described in the file comment).
    if (ts.root_free_rearms < opts_.sticky_rearm_windows) {
      ++ts.root_free_rearms;
      ts.sticky = opts_.sticky_arrivals;
      return;
    }
    ts.root_free_rearms = 0;
    const std::uint64_t w = root_load(std::memory_order_acquire).word;
    bump(ts.root_reads);
    if (is_open(w)) ts.sticky = opts_.sticky_arrivals;
  }

  // --- direct root arrival/departure -------------------------------------
  bool root_arrive_direct() {
    RootView old = root_load(std::memory_order_acquire);
    while (true) {
      if (!is_open(old.word)) return false;
      if (root_cas_weak(old, old.word + kDirectOne)) return true;
      // The failed CAS stored the current view into `old`; loop on it.
    }
  }

  bool root_depart_direct() {
    RootView old = root_load(std::memory_order_acquire);
    while (true) {
      OLL_DCHECK(direct_count(old.word) > 0);
      const std::uint64_t desired = old.word - kDirectOne;
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        old = root_load(std::memory_order_acquire);
        continue;
      }
      if (root_cas_weak(old, desired)) {
        return !(total_count(desired) == 0 && !is_open(desired));
      }
    }
  }

  // --- tree arrival/departure: root base cases (Figure 2) ----------------
  // Fails only when CLOSED with zero total surplus; see file comment.
  bool root_arrive_tree(ThreadState* ts) {
    if (ts != nullptr) {
      ++ts->window_propagations;
      bump(ts->root_propagations);
    }
    RootView old = root_load(std::memory_order_acquire);
    while (true) {
      if (!is_open(old.word) && total_count(old.word) == 0) return false;
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        old = root_load(std::memory_order_acquire);
        continue;
      }
      if (root_cas_weak(old, old.word + kTreeOne)) return true;
      if (ts != nullptr) bump(ts->root_cas_failures);
    }
  }

  bool root_depart_tree() {
    RootView old = root_load(std::memory_order_acquire);
    while (true) {
      OLL_DCHECK(tree_count(old.word) > 0);
      const std::uint64_t desired = old.word - kTreeOne;
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        old = root_load(std::memory_order_acquire);
        continue;
      }
      if (root_cas_weak(old, desired)) {
        return !(total_count(desired) == 0 && !is_open(desired));
      }
    }
  }

  // --- tree arrival/departure: counter nodes (Figure 2) ------------------
  bool tree_arrive(Node* node, ThreadState* ts) {
    bool arrived_at_parent = false;
    std::uint64_t x = node->cnt.load(std::memory_order_acquire);
    while (true) {
      if (x == 0 && !arrived_at_parent) {
        const bool ok = node->parent ? tree_arrive(node->parent, ts)
                                     : root_arrive_tree(ts);
        if (!ok) return false;
        arrived_at_parent = true;
        x = node->cnt.load(std::memory_order_acquire);  // re-read before CAS
        continue;
      }
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        x = node->cnt.load(std::memory_order_acquire);
        continue;
      }
      if (node->cnt.compare_exchange_weak(x, x + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        break;
      }
      // The failed CAS stored the current count into `x`; loop on it.
    }
    if (arrived_at_parent && x != 0) {
      // Someone else created the surplus between our check and our CAS; undo
      // the redundant parent arrival.
      if (ts != nullptr) bump(ts->redundant_undos);
      if (node->parent) {
        tree_depart(node->parent);
      } else {
        root_depart_tree();
      }
    }
    return true;
  }

  bool tree_depart(Node* node) {
    std::uint64_t x = node->cnt.load(std::memory_order_acquire);
    while (true) {
      OLL_DCHECK(x > 0);
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        x = node->cnt.load(std::memory_order_acquire);
        continue;
      }
      if (node->cnt.compare_exchange_weak(x, x - 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        break;
      }
    }
    if (x == 1) {
      return node->parent ? tree_depart(node->parent) : root_depart_tree();
    }
    return true;
  }

  // --- tree construction --------------------------------------------------
  // Layout in one array: [leaves][level above leaves]...[level below root].
  // total nodes = leaves + leaves/fanout + ... for levels-1 internal tiers.
  std::uint32_t total_nodes() const {
    std::uint32_t total = opts_.leaves;
    std::uint32_t width = opts_.leaves;
    for (std::uint32_t l = 1; l < opts_.levels; ++l) {
      width = (width + opts_.fanout - 1) / opts_.fanout;
      total += width;
    }
    return total;
  }

  Node* ensure_tree() {
    Node* existing = tree_storage_.load(std::memory_order_acquire);
    if (existing) return existing;
    const std::uint32_t n = total_nodes();
    Node* fresh = new Node[n];
    // Wire parents: leaves occupy [0, leaves); each subsequent tier follows.
    std::uint32_t tier_base = 0;
    std::uint32_t tier_width = opts_.leaves;
    for (std::uint32_t l = 1; l < opts_.levels; ++l) {
      const std::uint32_t next_width =
          (tier_width + opts_.fanout - 1) / opts_.fanout;
      const std::uint32_t next_base = tier_base + tier_width;
      for (std::uint32_t i = 0; i < tier_width; ++i) {
        fresh[tier_base + i].parent = &fresh[next_base + i / opts_.fanout];
      }
      tier_base = next_base;
      tier_width = next_width;
    }
    // Topmost tier's parent is the root word (nullptr sentinel).
    for (std::uint32_t i = 0; i < tier_width; ++i) {
      fresh[tier_base + i].parent = nullptr;
    }
    Node* expected = nullptr;
    if (tree_storage_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // another thread won the publication race
    return expected;
  }

  ThreadState& thread_state() {
    const std::uint32_t idx = this_thread_index();
    ThreadState& ts = thread_state_.slot(idx);
    // Dense indices are recycled; drop sticky state armed by a previous
    // thread that held this index (see the ThreadState comment).
    const std::uint32_t epoch = ThreadRegistry::index_epoch(idx);
    if (ts.epoch != epoch) {
      ts.epoch = epoch;
      ts.leaf = nullptr;
      ts.sticky = 0;
      ts.window_propagations = 0;
      ts.root_free_rearms = 0;
    }
    return ts;
  }

  Node* leaf_for_thread(ThreadState& ts) {
    if (ts.leaf == nullptr) {
      Node* tree = ensure_tree();
      ts.leaf = &tree[leaf_map_.leaf_of(this_thread_index())];
    }
    return ts.leaf;
  }

  CSnziOptions opts_;
  LeafMap leaf_map_;
  typename M::template Atomic<std::uint64_t> root_;
#if OLL_DWCAS_CAPABLE
  // 16-byte fused root, live instead of root_ when use_dwcas_ is set.
  // Sharing root_'s cache line is deliberate: exactly one of the two is
  // ever touched after construction.
  typename M::template Atomic<unsigned __int128> root16_{0};
#endif
  // Resolved at construction from opts_.dwcas_root (normalize() already
  // cleared it on incapable builds); read-only afterwards.
  bool use_dwcas_ = false;
  char pad_[kFalseSharingRange - sizeof(typename M::template Atomic<std::uint64_t>) %
                kFalseSharingRange];
  // Owned tree storage; published lock-free, freed in the destructor.  This
  // is a std::atomic even in simulated builds: tree publication is a
  // once-per-lock event, not a contended hot path we want to model.
  std::atomic<Node*> tree_storage_{nullptr};
  // Per-thread state, materialised on a thread's first arrival here.
  PerThreadSlots<ThreadState> thread_state_;
};

}  // namespace oll
