#include "platform/topology.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "platform/assert.hpp"

namespace oll {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kNoValue = 0xffffffffu;

// Reads a small sysfs file; returns false when absent/unreadable.
bool read_text(const fs::path& p, std::string& out) {
  std::ifstream in(p);
  if (!in) return false;
  std::getline(in, out);
  return true;
}

// "cpu17" -> 17; anything else -> kNoValue.
std::uint32_t parse_cpu_dir_name(const std::string& name) {
  if (name.size() <= 3 || name.compare(0, 3, "cpu") != 0) return kNoValue;
  std::uint32_t v = 0;
  for (std::size_t i = 3; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return kNoValue;
    v = v * 10 + static_cast<std::uint32_t>(name[i] - '0');
  }
  return v;
}

// Sibling-set key: the smallest cpu number in the set, so every member of
// the set derives the same key without coordination.
std::uint32_t list_key(const std::string& text) {
  const std::vector<std::uint32_t> cpus = parse_cpu_list(text);
  if (cpus.empty()) return kNoValue;
  return *std::min_element(cpus.begin(), cpus.end());
}

// The LLC sibling set for one cpu: the shared_cpu_list of the deepest
// data/unified cache under cache/index*.
std::uint32_t llc_key(const fs::path& cpu_dir) {
  std::error_code ec;
  const fs::path cache_dir = cpu_dir / "cache";
  if (!fs::is_directory(cache_dir, ec)) return kNoValue;
  int best_level = -1;
  std::uint32_t best_key = kNoValue;
  for (const auto& entry : fs::directory_iterator(cache_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, 5, "index") != 0) continue;
    std::string level_text, type_text, shared_text;
    if (!read_text(entry.path() / "level", level_text)) continue;
    if (read_text(entry.path() / "type", type_text) &&
        type_text == "Instruction") {
      continue;
    }
    if (!read_text(entry.path() / "shared_cpu_list", shared_text)) continue;
    const int level = std::atoi(level_text.c_str());
    const std::uint32_t key = list_key(shared_text);
    if (key == kNoValue) continue;
    if (level > best_level) {
      best_level = level;
      best_key = key;
    }
  }
  return best_key;
}

// NUMA node of one cpu: the node<M> symlink/dir inside the cpu directory.
std::uint32_t numa_key(const fs::path& cpu_dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cpu_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 4 || name.compare(0, 4, "node") != 0) continue;
    std::uint32_t v = 0;
    bool ok = true;
    for (std::size_t i = 4; i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
        ok = false;
        break;
      }
      v = v * 10 + static_cast<std::uint32_t>(name[i] - '0');
    }
    if (ok) return v;
  }
  return kNoValue;
}

// Renumbers arbitrary keys into dense ids in order of first appearance.
class Densifier {
 public:
  std::uint32_t id_of(std::uint32_t key) {
    auto [it, inserted] = ids_.try_emplace(key, next_);
    if (inserted) ++next_;
    return it->second;
  }
  std::uint32_t count() const { return next_; }

 private:
  std::map<std::uint32_t, std::uint32_t> ids_;
  std::uint32_t next_ = 0;
};

}  // namespace

std::vector<std::uint32_t> parse_cpu_list(const std::string& text) {
  std::vector<std::uint32_t> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    while (i < n && !std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    if (i >= n) break;
    std::uint64_t lo = 0;
    while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) {
      lo = lo * 10 + static_cast<std::uint64_t>(text[i] - '0');
      ++i;
    }
    std::uint64_t hi = lo;
    if (i < n && text[i] == '-') {
      ++i;
      if (i >= n || !std::isdigit(static_cast<unsigned char>(text[i]))) {
        continue;  // trailing "3-" — skip the malformed range
      }
      hi = 0;
      while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) {
        hi = hi * 10 + static_cast<std::uint64_t>(text[i] - '0');
        ++i;
      }
    }
    for (std::uint64_t v = lo; v <= hi && v < kNoValue; ++v) {
      out.push_back(static_cast<std::uint32_t>(v));
    }
  }
  return out;
}

Topology Topology::from_sysfs(const std::string& cpu_root) {
  Topology t;
  std::error_code ec;
  const fs::path root(cpu_root);
  if (!fs::is_directory(root, ec)) return t;

  // Collect present cpu numbers (cpu<N> directories with a topology/ or at
  // least a per-cpu dir; "cpufreq", "cpuidle" etc. don't parse as numbers).
  std::vector<std::uint32_t> cpus;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory(ec)) continue;
    const std::uint32_t n = parse_cpu_dir_name(entry.path().filename().string());
    if (n != kNoValue) cpus.push_back(n);
  }
  std::sort(cpus.begin(), cpus.end());
  if (cpus.empty()) return t;

  Densifier smt, llc, numa;
  for (const std::uint32_t cpu : cpus) {
    const fs::path cpu_dir = root / ("cpu" + std::to_string(cpu));
    CpuPlacement p;

    std::string sib_text;
    std::uint32_t smt_k = kNoValue;
    if (read_text(cpu_dir / "topology" / "thread_siblings_list", sib_text) ||
        read_text(cpu_dir / "topology" / "core_cpus_list", sib_text)) {
      smt_k = list_key(sib_text);
    }
    if (smt_k == kNoValue) smt_k = cpu;  // no siblings info: own core
    p.smt_group = smt.id_of(smt_k);

    std::uint32_t llc_k = llc_key(cpu_dir);
    if (llc_k == kNoValue) {
      // No cache description: approximate the LLC by the package.
      std::string pkg_text;
      if (read_text(cpu_dir / "topology" / "core_siblings_list", pkg_text) ||
          read_text(cpu_dir / "topology" / "package_cpus_list", pkg_text)) {
        llc_k = list_key(pkg_text);
      }
    }
    if (llc_k == kNoValue) llc_k = smt_k;
    p.llc_domain = llc.id_of(llc_k);

    std::uint32_t numa_k = numa_key(cpu_dir);
    if (numa_k == kNoValue) {
      // No node<M> entry: approximate the node by the LLC sibling set, but
      // resolve it through the same numa Densifier under a key space
      // disjoint from real node numbers (which are small) so a fallback id
      // can never alias a real node's dense id on mixed systems.
      numa_k = kNoValue - 1 - llc_k;
    }
    p.numa_node = numa.id_of(numa_k);

    t.placements_.push_back(p);
    t.cpu_numbers_.push_back(cpu);
  }
  t.smt_groups_ = smt.count();
  t.llc_domains_ = llc.count();
  t.numa_nodes_ = numa.count();
  return t;
}

Topology Topology::synthetic(std::uint32_t cpus, std::uint32_t smt_width,
                             std::uint32_t llc_width,
                             std::uint32_t numa_width) {
  Topology t;
  if (cpus == 0) cpus = 1;
  smt_width = std::clamp(smt_width, 1u, cpus);
  llc_width = std::clamp(llc_width, 1u, cpus);
  numa_width = std::clamp(numa_width, 1u, cpus);
  t.placements_.reserve(cpus);
  t.cpu_numbers_.reserve(cpus);
  for (std::uint32_t c = 0; c < cpus; ++c) {
    t.placements_.push_back(
        CpuPlacement{c / smt_width, c / llc_width, c / numa_width});
    t.cpu_numbers_.push_back(c);
  }
  t.smt_groups_ = (cpus + smt_width - 1) / smt_width;
  t.llc_domains_ = (cpus + llc_width - 1) / llc_width;
  t.numa_nodes_ = (cpus + numa_width - 1) / numa_width;
  return t;
}

const Topology& Topology::system() {
  static const Topology topo = [] {
    Topology t = from_sysfs("/sys/devices/system/cpu");
    if (t.cpu_count() == 0) {
      std::uint32_t n = std::thread::hardware_concurrency();
      if (n == 0) n = 1;
      t = synthetic(n, 1, n, n);
      t.synthetic_fallback_ = true;
    }
    return t;
  }();
  return topo;
}

const CpuPlacement& Topology::placement(std::uint32_t cpu) const {
  OLL_CHECK(cpu < placements_.size());
  return placements_[cpu];
}

const char* leaf_mapping_name(LeafMapping m) {
  switch (m) {
    case LeafMapping::kAuto: return "auto";
    case LeafMapping::kStaticShift: return "static";
    case LeafMapping::kPerThread: return "thread";
    case LeafMapping::kSmtCluster: return "smt";
    case LeafMapping::kLlcCluster: return "llc";
    case LeafMapping::kNumaCluster: return "numa";
  }
  return "?";
}

bool parse_leaf_mapping(const std::string& name, LeafMapping& out) {
  if (name == "auto") out = LeafMapping::kAuto;
  else if (name == "static") out = LeafMapping::kStaticShift;
  else if (name == "thread") out = LeafMapping::kPerThread;
  else if (name == "smt") out = LeafMapping::kSmtCluster;
  else if (name == "llc") out = LeafMapping::kLlcCluster;
  else if (name == "numa") out = LeafMapping::kNumaCluster;
  else return false;
  return true;
}

LeafMap::LeafMap(const Topology* topo, LeafMapping mapping,
                 std::uint32_t leaves_pow2, std::uint32_t leaf_shift)
    : topo_(topo),
      mapping_(mapping),
      mask_(leaves_pow2 - 1),
      shift_(leaf_shift),
      cpus_(topo != nullptr && topo->cpu_count() > 0 ? topo->cpu_count() : 1) {
  OLL_CHECK(leaves_pow2 != 0 && (leaves_pow2 & (leaves_pow2 - 1)) == 0);
  // kAuto must be resolved by CSnziOptions::normalize(); a placement-derived
  // mapping without a topology degrades to per-thread leaves.
  if (mapping_ == LeafMapping::kAuto) mapping_ = LeafMapping::kPerThread;
  if (mapping_ != LeafMapping::kStaticShift &&
      mapping_ != LeafMapping::kPerThread &&
      (topo_ == nullptr || topo_->cpu_count() == 0)) {
    mapping_ = LeafMapping::kPerThread;
  }
}

bool LeafMap::private_leaves() const {
  // Domain ids are dense, so the CPUs are spread one per domain exactly when
  // there are as many domains as CPUs, and masking keeps distinct ids apart
  // exactly when they all fit below the leaf count.
  std::uint32_t domains = 0;
  if (mapping_ == LeafMapping::kSmtCluster) domains = topo_->smt_groups();
  if (mapping_ == LeafMapping::kLlcCluster) domains = topo_->llc_domains();
  if (mapping_ == LeafMapping::kNumaCluster) domains = topo_->numa_nodes();
  return domains == cpus_ && domains <= mask_ + 1;
}

}  // namespace oll
