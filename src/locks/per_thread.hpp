// Per-lock, per-thread local state, materialised on first touch.
//
// GOLL/FOLL/ROLL keep a small Local record per thread per lock (the paper's
// `Local` in Figures 3 and 4: the C-SNZI ticket, the node departed from, the
// thread's writer node).  This container is the one place the library keeps
// such per-thread state: lock Locals, LockStats counters, C-SNZI sticky
// state and census slots all live in one.  It is indexed by the dense thread
// id from platform/thread_id.hpp; a container is constructed for a maximum
// thread count and checks it.
//
// Nothing is allocated up front.  A container nobody has touched is five
// null pointers.  The first access to index i allocates slot i, a
// cache-aligned T of its own.  The pointers of slots 0..kNear-1 live in the
// container; the first access to a higher index allocates a table of
// pointers for the rest.  Slot and table are each published with one CAS
// (acq_rel on success, acquire on failure; DESIGN.md §12), and a thread
// that loses the race frees its copy and uses the winner's.  Readers load
// the pointers with acquire, so a slot's construction happens-before any
// use of it.  A lock only a few threads use therefore pays for those few
// slots, not for every possible thread (DESIGN.md §4.1).
//
// Slots are freed only in the destructor, so a reference into a slot stays
// valid for the container's lifetime.  A dense index that is recycled to a
// new thread inherits its slot as is; state that must not survive that
// (C-SNZI sticky windows) is reset by its owner against the index epoch.
//
// local()/slot(i) materialise; find(i) never does.  Aggregators that scan
// every index (stats snapshots, census samples, telemetry ticks) must use
// find(), so observing a lock never inflates it.
//
// The pointers are plain std::atomic even in simulated builds: publication
// happens once per (lock, thread), off the modelled protocol, and must not
// show up in the sim cost model's operation counts.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/thread_id.hpp"

namespace oll {

template <typename T>
class PerThreadSlots {
 public:
  explicit PerThreadSlots(std::uint32_t max_threads)
      : max_threads_(max_threads) {
    OLL_CHECK(max_threads > 0);
  }

  ~PerThreadSlots() {
    for (SlotPtr& p : near_) delete p.load(std::memory_order_relaxed);
    Line* table = table_.load(std::memory_order_acquire);
    if (table == nullptr) return;
    for (std::uint32_t i = kNear; i < max_threads_; ++i) {
      delete entry(table, i).load(std::memory_order_relaxed);
    }
    delete[] table;
  }

  PerThreadSlots(const PerThreadSlots&) = delete;
  PerThreadSlots& operator=(const PerThreadSlots&) = delete;

  // The calling thread's slot, allocated on first use.
  T& local() {
    const std::uint32_t idx = this_thread_index();
    OLL_CHECK(idx < max_threads_);
    return get(idx);
  }

  // Slot `idx`, allocated on first use.
  T& slot(std::uint32_t idx) {
    OLL_CHECK(idx < max_threads_);
    return get(idx);
  }

  // Slot `idx` if some thread has materialised it, else null.  Never
  // allocates; out-of-range indices are simply absent.
  T* find(std::uint32_t idx) noexcept {
    CacheAligned<T>* s = lookup(idx);
    return s != nullptr ? &s->value : nullptr;
  }
  const T* find(std::uint32_t idx) const noexcept {
    const CacheAligned<T>* s = lookup(idx);
    return s != nullptr ? &s->value : nullptr;
  }

  // Visit every materialised slot in index order: f(index, slot).  Never
  // allocates.
  template <typename F>
  void for_each(F&& f) {
    for (std::uint32_t i = 0; i < max_threads_; ++i) {
      if (T* s = find(i)) f(i, *s);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t i = 0; i < max_threads_; ++i) {
      if (const T* s = find(i)) f(i, *s);
    }
  }

  std::uint32_t size() const noexcept { return max_threads_; }

 private:
  using SlotPtr = std::atomic<CacheAligned<T>*>;
  // The table is read on every access, so it is built of whole
  // false-sharing ranges: no neighbouring allocation shares its lines.
  static constexpr std::uint32_t kPerLine =
      kFalseSharingRange / sizeof(SlotPtr);
  struct alignas(kFalseSharingRange) Line {
    SlotPtr slot[kPerLine];
  };

  // Table entry of index idx >= kNear.
  static SlotPtr& entry(Line* table, std::uint32_t idx) noexcept {
    idx -= kNear;
    return table[idx / kPerLine].slot[idx % kPerLine];
  }

  CacheAligned<T>* lookup(std::uint32_t idx) const noexcept {
    if (idx >= max_threads_) return nullptr;
    if (idx < kNear) return near_[idx].load(std::memory_order_acquire);
    Line* table = table_.load(std::memory_order_acquire);
    if (table == nullptr) return nullptr;
    return entry(table, idx).load(std::memory_order_acquire);
  }

  T& get(std::uint32_t idx) {
    SlotPtr& p = idx < kNear ? near_[idx] : far(idx);
    CacheAligned<T>* s = p.load(std::memory_order_acquire);
    if (s == nullptr) [[unlikely]] s = ensure_slot(p);
    return s->value;
  }

  SlotPtr& far(std::uint32_t idx) {
    Line* table = table_.load(std::memory_order_acquire);
    if (table == nullptr) [[unlikely]] table = ensure_table();
    return entry(table, idx);
  }

  [[gnu::noinline]] Line* ensure_table() {
    Line* fresh =
        new Line[(max_threads_ - kNear + kPerLine - 1) / kPerLine]();
    Line* expected = nullptr;
    if (table_.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // another thread won the publication race
    return expected;
  }

  [[gnu::noinline]] static CacheAligned<T>* ensure_slot(SlotPtr& p) {
    auto* fresh = new CacheAligned<T>();
    CacheAligned<T>* expected = nullptr;
    if (p.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;  // another thread won the publication race
    return expected;
  }

  // Dense indices are handed out lowest-free, so a program with a few
  // threads uses only the first few.  Their slot pointers live here: the
  // owner's hot path then reads the container and its slot, as an eager
  // array would, with no table line in between.  Without this, an
  // optimistic read (three lookups on two containers) was ~17% slower on
  // the 585-lock `index` benchmark, where the table lines miss in cache.
  static constexpr std::uint32_t kNear = 4;
  SlotPtr near_[kNear] = {};
  std::atomic<Line*> table_{nullptr};
  std::uint32_t max_threads_;
};

}  // namespace oll
