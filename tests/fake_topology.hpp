// Reusable fake-sysfs topology fixture for tests that exercise the
// platform/topology.hpp parser or need a Topology with a specific shape
// (multi-socket, SMT on/off, hotplug gaps) without depending on the host.
//
// FakeSysfs materializes a scratch directory shaped like
// /sys/devices/system/cpu; point Topology::from_sysfs at path().  Each
// fixture instance owns a unique directory and removes it on destruction,
// so tests can run in parallel within one binary.
//
// shared_leaf_topology() / private_leaf_topology() are synthetic shapes that
// pin the C-SNZI adaptive policy's outcome on any host, which would
// otherwise follow Topology::system().
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "platform/topology.hpp"

namespace oll {
namespace test {

// Four CPUs in SMT pairs: two CPUs share each kSmtCluster leaf, so the tree
// can absorb arrivals and the adaptive policy keeps it.
inline const Topology& shared_leaf_topology() {
  static const Topology t = Topology::synthetic(4, 2, 4, 4);
  return t;
}

// Four CPUs without SMT: every kSmtCluster leaf is private, so the adaptive
// policy arrives at the root only.
inline const Topology& private_leaf_topology() {
  static const Topology t = Topology::synthetic(4, 1, 4, 4);
  return t;
}

class FakeSysfs {
 public:
  FakeSysfs() {
    root_ = std::filesystem::path(testing::TempDir()) /
            ("fake_sysfs_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~FakeSysfs() { std::filesystem::remove_all(root_); }

  FakeSysfs(const FakeSysfs&) = delete;
  FakeSysfs& operator=(const FakeSysfs&) = delete;

  std::string path() const { return root_.string(); }

  void write(const std::string& rel, const std::string& content) {
    const std::filesystem::path p = root_ / rel;
    std::filesystem::create_directories(p.parent_path());
    std::ofstream(p) << content;
  }

  void mkdir(const std::string& rel) {
    std::filesystem::create_directories(root_ / rel);
  }

  // One cpu with SMT siblings, an L1 data cache shared by the siblings and
  // an L3 shared by `llc`, plus a node<N> directory.
  void add_cpu(std::uint32_t n, const std::string& smt_siblings,
               const std::string& llc, std::uint32_t node) {
    const std::string cpu = "cpu" + std::to_string(n) + "/";
    write(cpu + "topology/thread_siblings_list", smt_siblings + "\n");
    write(cpu + "cache/index0/level", "1\n");
    write(cpu + "cache/index0/type", "Data\n");
    write(cpu + "cache/index0/shared_cpu_list", smt_siblings + "\n");
    write(cpu + "cache/index1/level", "1\n");
    write(cpu + "cache/index1/type", "Instruction\n");
    write(cpu + "cache/index1/shared_cpu_list", smt_siblings + "\n");
    write(cpu + "cache/index2/level", "3\n");
    write(cpu + "cache/index2/type", "Unified\n");
    write(cpu + "cache/index2/shared_cpu_list", llc + "\n");
    mkdir(cpu + "node" + std::to_string(node));
  }

 private:
  std::filesystem::path root_;
};

}  // namespace test
}  // namespace oll
