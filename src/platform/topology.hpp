// Runtime CPU topology: which hardware threads share an SMT core, a
// last-level cache, and a NUMA node.
//
// The C-SNZI leaf mapping (snzi/csnzi.hpp) wants threads that share a cache
// to share a leaf counter — same-line traffic between L1 siblings is nearly
// free, while the same traffic across sockets is the coherence storm the
// tree exists to avoid (§2.2, §5.1).  The seed hard-coded the UltraSPARC
// T2+ shape as `leaf_shift = 3`; this layer derives the grouping from the
// machine instead:
//
//   * Topology::from_sysfs(root) parses the Linux view
//     (<root>/cpu<N>/topology/thread_siblings_list,
//      <root>/cpu<N>/cache/index*/shared_cpu_list, <root>/cpu<N>/node<M>),
//     tolerating hotplug gaps and missing files.
//   * Topology::synthetic(...) builds a deterministic shape for non-Linux
//     hosts and for the simulator (sim::Machine's T5440 model).
//   * Topology::system() caches the sysfs result for this host, falling
//     back to a synthetic single-socket shape when sysfs is unusable.
//
// LeafMap then turns a Topology plus a LeafMapping policy into the
// `thread_index -> leaf index` function the C-SNZI uses.  Thread indices
// (platform/thread_id.hpp) are dense and assigned in registration order; the
// harness pins worker w to index w, so mapping index -> cpu by identity
// (mod cpu count) mirrors how the benches bind logical threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace oll {

// Per-CPU placement: dense ids, each in [0, count-of-that-domain).
struct CpuPlacement {
  std::uint32_t smt_group = 0;   // CPUs sharing a physical core
  std::uint32_t llc_domain = 0;  // CPUs sharing the last-level cache
  std::uint32_t numa_node = 0;   // CPUs on the same memory node
};

class Topology {
 public:
  // Empty topology: cpu_count() == 0.  from_sysfs returns this on failure.
  Topology() = default;

  // Parse a sysfs cpu directory (normally "/sys/devices/system/cpu"; tests
  // point it at fixture directories).  Missing files degrade gracefully:
  // a CPU with no siblings info becomes its own SMT group, a CPU with no
  // cache info falls back to its core_siblings (package) and then to
  // itself, and a CPU with no node<M> entry treats its LLC sibling set as
  // its node (under ids that never alias real node<M> ids, so mixed
  // systems keep distinct nodes distinct).
  static Topology from_sysfs(const std::string& cpu_root);

  // Deterministic synthetic shape: `cpus` hardware threads where
  // consecutive runs of smt_width share a core, llc_width share an LLC and
  // numa_width share a NUMA node.  Widths are clamped to [1, cpus].
  static Topology synthetic(std::uint32_t cpus, std::uint32_t smt_width,
                            std::uint32_t llc_width, std::uint32_t numa_width);

  // This host's topology, parsed once from /sys and cached.  Falls back to
  // synthetic(hardware_concurrency, 1, n, n) when sysfs is unusable.
  static const Topology& system();

  std::uint32_t cpu_count() const {
    return static_cast<std::uint32_t>(placements_.size());
  }
  const CpuPlacement& placement(std::uint32_t cpu) const;

  std::uint32_t smt_groups() const { return smt_groups_; }
  std::uint32_t llc_domains() const { return llc_domains_; }
  std::uint32_t numa_nodes() const { return numa_nodes_; }

  // Original sysfs cpu numbers in parse order (tests; exposes hotplug gaps).
  const std::vector<std::uint32_t>& cpu_numbers() const { return cpu_numbers_; }

  // True when system() could not parse sysfs and synthesized a shape.
  bool synthetic_fallback() const { return synthetic_fallback_; }

 private:
  std::vector<CpuPlacement> placements_;
  std::vector<std::uint32_t> cpu_numbers_;
  std::uint32_t smt_groups_ = 0;
  std::uint32_t llc_domains_ = 0;
  std::uint32_t numa_nodes_ = 0;
  bool synthetic_fallback_ = false;
};

// How the C-SNZI groups thread indices onto leaf counters.
enum class LeafMapping : std::uint8_t {
  kAuto,         // kSmtCluster, unless leaf_shift was set (then kStaticShift)
  kStaticShift,  // (thread_index >> leaf_shift) mod leaves — the seed scheme
  kPerThread,    // thread_index mod leaves (private leaf per thread)
  kSmtCluster,   // threads on one SMT core share a leaf (paper's T2+ mapping)
  kLlcCluster,   // threads under one last-level cache share a leaf
  kNumaCluster,  // threads on one NUMA node share a leaf
};

const char* leaf_mapping_name(LeafMapping m);

// Parses the names used by bench flags: auto|static|thread|smt|llc|numa.
// Returns false (and leaves `out` untouched) on unknown names.
bool parse_leaf_mapping(const std::string& name, LeafMapping& out);

// A resolved thread_index -> leaf function: topology + policy, folded onto
// `leaves` (a power of two) by masking.  Copyable and cheap; the CSnzi
// caches one per instance.  The Topology must outlive the map (system() and
// the simulator's topology are static).
class LeafMap {
 public:
  LeafMap() = default;
  LeafMap(const Topology* topo, LeafMapping mapping, std::uint32_t leaves_pow2,
          std::uint32_t leaf_shift);

  std::uint32_t leaf_of(std::uint32_t thread_index) const {
    switch (mapping_) {
      case LeafMapping::kStaticShift:
        return (thread_index >> shift_) & mask_;
      case LeafMapping::kPerThread:
        return thread_index & mask_;
      default: {
        // Placement-derived: thread index -> cpu by identity mod cpu count
        // (the harness pins worker w to index w).
        const CpuPlacement& p = topo_->placement(thread_index % cpus_);
        if (mapping_ == LeafMapping::kSmtCluster) return p.smt_group & mask_;
        if (mapping_ == LeafMapping::kLlcCluster) return p.llc_domain & mask_;
        return p.numa_node & mask_;
      }
    }
  }

  LeafMapping mapping() const { return mapping_; }

  // True when the mapping is placement-derived and no two CPUs of the
  // topology land on the same leaf (e.g. kSmtCluster on a host without SMT).
  // Such leaves never absorb another CPU's arrivals, so a tree arrival
  // costs the root CAS plus two leaf RMWs; the C-SNZI's adaptive policy
  // then arrives at the root only.  Always false for kStaticShift and
  // kPerThread, which are explicit requests for a leaf layout.
  bool private_leaves() const;

 private:
  const Topology* topo_ = nullptr;
  LeafMapping mapping_ = LeafMapping::kPerThread;
  std::uint32_t mask_ = 0;
  std::uint32_t shift_ = 0;
  std::uint32_t cpus_ = 1;
};

// A resolved thread_index -> LLC-domain function, the writer-side sibling of
// LeafMap: the cohort metalock (locks/cohort_mcs_lock.hpp) and the wait
// queue's NUMA-aware writer handoff group threads by last-level cache so
// consecutive lock holders stay on one socket.  Thread indices map to CPUs
// by identity mod cpu count, exactly as LeafMap does (the harness pins
// worker w to index w).  A null/empty topology degrades to a single domain,
// which turns every cohort policy into plain FIFO behaviour.
class DomainMap {
 public:
  DomainMap() = default;
  explicit DomainMap(const Topology* topo) {
    if (topo != nullptr && topo->cpu_count() > 0) {
      topo_ = topo;
      cpus_ = topo->cpu_count();
      domains_ = topo->llc_domains() > 0 ? topo->llc_domains() : 1;
    }
  }

  std::uint32_t domains() const { return domains_; }

  std::uint32_t domain_of(std::uint32_t thread_index) const {
    if (topo_ == nullptr) return 0;
    return topo_->placement(thread_index % cpus_).llc_domain;
  }

 private:
  const Topology* topo_ = nullptr;
  std::uint32_t cpus_ = 1;
  std::uint32_t domains_ = 1;
};

// Parses a sysfs cpulist ("0-3,8,10-11\n") into cpu numbers.  Malformed
// chunks are skipped rather than fatal — sysfs is advisory input.
std::vector<std::uint32_t> parse_cpu_list(const std::string& text);

}  // namespace oll
