// Footprint gate: the heap a factory-made lock retains once one thread has
// used it, and the heap a stats read costs.  Per-thread state is
// materialised on first touch (locks/per_thread.hpp, DESIGN.md §4.1), so a
// lock one thread has used should hold that thread's slots and nothing
// sized by max_threads beyond one pointer table per container.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/factory.hpp"
#include "platform/thread_id.hpp"

namespace oll {
namespace {

struct FootprintCase {
  const char* name;
  LockKind kind;
  std::int64_t max_bytes;
};

constexpr std::int64_t kKiB = 1024;

// FOLL/ROLL own a pool of reader nodes, each with its own C-SNZI; that pool
// is protocol state and is paid for up front.
const FootprintCase kCases[] = {
    {"goll", LockKind::kGoll, 64 * kKiB},
    {"goll-combining", LockKind::kGollCombining, 64 * kKiB},
    {"bravo-goll", LockKind::kBravoGoll, 64 * kKiB},
    {"opt-goll", LockKind::kOptGoll, 64 * kKiB},
    {"central", LockKind::kCentral, 64 * kKiB},
    {"foll", LockKind::kFoll, 256 * kKiB},
    {"roll", LockKind::kRoll, 256 * kKiB},
};

void use_once(AnyRwLock& l) {
  l.lock_shared();
  l.unlock_shared();
  l.lock();
  l.unlock();
}

// Average live heap per lock over a few locks made and used once by this
// thread.  A first lock is made, used and destroyed beforehand so that
// process-wide first-use allocations (thread registry, trace rings, lock
// registry pools) are not charged to the kind.
std::int64_t retained_bytes_per_lock(LockKind kind) {
  use_once(*make_rwlock(kind));
  constexpr int kLocks = 4;
  std::vector<std::unique_ptr<AnyRwLock>> locks;
  locks.reserve(kLocks);
  const std::int64_t before = test::live_heap_bytes();
  for (int i = 0; i < kLocks; ++i) {
    locks.push_back(make_rwlock(kind));
    use_once(*locks.back());
  }
  return (test::live_heap_bytes() - before) / kLocks;
}

TEST(Footprint, UsedOnceLockRetainsBoundedHeap) {
  for (const FootprintCase& c : kCases) {
    const std::int64_t bytes = retained_bytes_per_lock(c.kind);
    RecordProperty(std::string("lock_bytes.") + c.name, std::to_string(bytes));
    EXPECT_LE(bytes, c.max_bytes)
        << c.name << " retains " << bytes / kKiB << " KiB per lock";
  }
}

TEST(Footprint, HighThreadIndexStaysWithinBound) {
  // A thread past the first few dense indices also makes each container
  // build its pointer table; the bound holds for it too.
  ScopedThreadIndex pin(100);
  for (const FootprintCase& c : kCases) {
    const std::int64_t bytes = retained_bytes_per_lock(c.kind);
    RecordProperty(std::string("lock_bytes_high_index.") + c.name,
                   std::to_string(bytes));
    EXPECT_LE(bytes, c.max_bytes)
        << c.name << " retains " << bytes / kKiB << " KiB per lock";
  }
}

TEST(Footprint, StatsOnUntouchedLockAllocatesNothing) {
  for (const FootprintCase& c : kCases) {
    auto lock = make_rwlock(c.kind);
    const std::uint64_t before = test::heap_allocations();
    const LockStatsSnapshot s = lock->stats();
    EXPECT_EQ(test::heap_allocations(), before) << c.name;
    EXPECT_EQ(s.reads() + s.writes(), 0u) << c.name;
  }
}

}  // namespace
}  // namespace oll
