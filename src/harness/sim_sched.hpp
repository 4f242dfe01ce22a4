// Host scheduling for simulated runs: pin to one CPU, round-robin.
//
// Used by the harness driver and by every sim run that spawns its own
// worker threads (bench/index_traversal.cpp, bench/latency_fairness.cpp,
// tests/sim_test.cpp, lock_stress_test's sim sweep): construct a
// SimSchedScope on the spawning thread before the workers start, and they
// inherit its CPU and policy.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <cstdint>

namespace oll::bench {

// Bind the calling thread to one host CPU; silently a no-op where affinity
// is not permitted (containers).
inline void pin_to_cpu(std::uint32_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Scheduling scope of a simulated run.  Virtual time assumes the host runs
// the sim workers round-robin on ONE CPU (EXPERIMENTS.md "model
// artifacts"): spread over several CPUs they overlap in wall time, and the
// interleaving, hence every sim result, depends on the host's CPU count.
// So the thread that starts a run binds itself to the CPU it is on and
// joins SCHED_RR, and the workers it spawns inherit both.  Under the
// default CFS policy sched_yield() is nearly a no-op, so one worker could
// run its whole loop alone and hide all concurrency from the model;
// SCHED_RR's yield is a true round-robin rotation.  The spawning thread
// shares the rotation rather than sitting below it, where spinning workers
// would starve it until the kernel's real-time throttling cut in.  Both
// settings are restored on destruction; either falls back silently where
// it is not permitted (containers).
class SimSchedScope {
 public:
  explicit SimSchedScope(bool active) {
    if (!active) return;
    const int cpu = sched_getcpu();
    pinned_ = cpu >= 0 && pthread_getaffinity_np(pthread_self(),
                                                 sizeof(saved_cpus_),
                                                 &saved_cpus_) == 0;
    if (pinned_) pin_to_cpu(static_cast<std::uint32_t>(cpu));
    sched_param rr{};
    rr.sched_priority = 1;
    rr_ = pthread_getschedparam(pthread_self(), &saved_policy_,
                                &saved_param_) == 0 &&
          pthread_setschedparam(pthread_self(), SCHED_RR, &rr) == 0;
  }
  ~SimSchedScope() {
    if (rr_) {
      (void)pthread_setschedparam(pthread_self(), saved_policy_,
                                  &saved_param_);
    }
    if (pinned_) {
      (void)pthread_setaffinity_np(pthread_self(), sizeof(saved_cpus_),
                                   &saved_cpus_);
    }
  }
  SimSchedScope(const SimSchedScope&) = delete;
  SimSchedScope& operator=(const SimSchedScope&) = delete;

 private:
  cpu_set_t saved_cpus_;
  int saved_policy_ = SCHED_OTHER;
  sched_param saved_param_{};
  bool pinned_ = false;
  bool rr_ = false;
};

}  // namespace oll::bench
