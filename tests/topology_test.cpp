// Tests for the sysfs topology parser and the C-SNZI LeafMap
// (platform/topology.hpp): fake-sysfs fixture directories (see
// fake_topology.hpp) covering SMT on/off, multi-socket shapes and
// hotplugged-cpu gaps, plus the placement-to-leaf policies.
#include "platform/topology.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fake_topology.hpp"

namespace oll {
namespace {

using test::FakeSysfs;

TEST(ParseCpuList, Shapes) {
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_EQ(parse_cpu_list("0"), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(parse_cpu_list("0-3"), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpu_list("0-1,4-5,7\n"),
            (std::vector<std::uint32_t>{0, 1, 4, 5, 7}));
  EXPECT_EQ(parse_cpu_list(" 2 , 9 "), (std::vector<std::uint32_t>{2, 9}));
  // Malformed trailing range is skipped, not fatal.
  EXPECT_EQ(parse_cpu_list("1,3-"), (std::vector<std::uint32_t>{1}));
}

TEST(TopologySysfs, SmtPairsSingleSocket) {
  FakeSysfs sysfs;
  // x86-style pairing: hyperthread siblings are (0,2) and (1,3).
  sysfs.add_cpu(0, "0,2", "0-3", 0);
  sysfs.add_cpu(1, "1,3", "0-3", 0);
  sysfs.add_cpu(2, "0,2", "0-3", 0);
  sysfs.add_cpu(3, "1,3", "0-3", 0);

  const Topology t = Topology::from_sysfs(sysfs.path());
  ASSERT_EQ(t.cpu_count(), 4u);
  EXPECT_EQ(t.smt_groups(), 2u);
  EXPECT_EQ(t.llc_domains(), 1u);
  EXPECT_EQ(t.numa_nodes(), 1u);
  EXPECT_EQ(t.placement(0).smt_group, t.placement(2).smt_group);
  EXPECT_EQ(t.placement(1).smt_group, t.placement(3).smt_group);
  EXPECT_NE(t.placement(0).smt_group, t.placement(1).smt_group);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(t.placement(c).llc_domain, 0u);
    EXPECT_EQ(t.placement(c).numa_node, 0u);
  }
}

TEST(TopologySysfs, SmtOffTwoSockets) {
  FakeSysfs sysfs;
  sysfs.add_cpu(0, "0", "0-1", 0);
  sysfs.add_cpu(1, "1", "0-1", 0);
  sysfs.add_cpu(2, "2", "2-3", 1);
  sysfs.add_cpu(3, "3", "2-3", 1);

  const Topology t = Topology::from_sysfs(sysfs.path());
  ASSERT_EQ(t.cpu_count(), 4u);
  EXPECT_EQ(t.smt_groups(), 4u);  // SMT off: each cpu is its own core
  EXPECT_EQ(t.llc_domains(), 2u);
  EXPECT_EQ(t.numa_nodes(), 2u);
  EXPECT_EQ(t.placement(0).llc_domain, t.placement(1).llc_domain);
  EXPECT_EQ(t.placement(2).llc_domain, t.placement(3).llc_domain);
  EXPECT_NE(t.placement(0).llc_domain, t.placement(2).llc_domain);
  EXPECT_EQ(t.placement(0).numa_node, 0u);
  EXPECT_EQ(t.placement(3).numa_node, 1u);
}

TEST(TopologySysfs, HotplugGapsKeepDenseIds) {
  FakeSysfs sysfs;
  // cpu2 is offline/absent; sibling lists name only present cpus.
  sysfs.add_cpu(0, "0,1", "0-1,3", 0);
  sysfs.add_cpu(1, "0,1", "0-1,3", 0);
  sysfs.add_cpu(3, "3", "0-1,3", 0);

  const Topology t = Topology::from_sysfs(sysfs.path());
  ASSERT_EQ(t.cpu_count(), 3u);
  EXPECT_EQ(t.cpu_numbers(), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(t.smt_groups(), 2u);
  // Dense placement ids despite the numbering gap.
  EXPECT_LT(t.placement(2).smt_group, t.smt_groups());
  EXPECT_EQ(t.llc_domains(), 1u);
}

TEST(TopologySysfs, MissingCacheFallsBackToPackage) {
  FakeSysfs sysfs;
  // No cache/ directories; package siblings stand in for the LLC.
  sysfs.write("cpu0/topology/thread_siblings_list", "0\n");
  sysfs.write("cpu0/topology/core_siblings_list", "0-1\n");
  sysfs.write("cpu1/topology/thread_siblings_list", "1\n");
  sysfs.write("cpu1/topology/core_siblings_list", "0-1\n");

  const Topology t = Topology::from_sysfs(sysfs.path());
  ASSERT_EQ(t.cpu_count(), 2u);
  EXPECT_EQ(t.llc_domains(), 1u);
  EXPECT_EQ(t.placement(0).llc_domain, t.placement(1).llc_domain);
  // No node<N> entries either: NUMA degrades to the LLC domain.
  EXPECT_EQ(t.numa_nodes(), 1u);
}

TEST(TopologySysfs, NumaFallbackNeverAliasesRealNodes) {
  FakeSysfs sysfs;
  // cpu0/cpu1 report real nodes 0 and 1; cpu2 shares their LLC but has no
  // node<M> entry.  Its fallback id must not collide with either real
  // node's dense id (the old LLC-borrowing scheme would have merged cpu2
  // into node 0: all three share LLC domain 0).
  sysfs.add_cpu(0, "0", "0-2", 0);
  sysfs.add_cpu(1, "1", "0-2", 1);
  const std::string cpu2 = "cpu2/";
  sysfs.write(cpu2 + "topology/thread_siblings_list", "2\n");
  sysfs.write(cpu2 + "cache/index0/level", "1\n");
  sysfs.write(cpu2 + "cache/index0/type", "Data\n");
  sysfs.write(cpu2 + "cache/index0/shared_cpu_list", "2\n");
  sysfs.write(cpu2 + "cache/index2/level", "3\n");
  sysfs.write(cpu2 + "cache/index2/type", "Unified\n");
  sysfs.write(cpu2 + "cache/index2/shared_cpu_list", "0-2\n");

  const Topology t = Topology::from_sysfs(sysfs.path());
  ASSERT_EQ(t.cpu_count(), 3u);
  EXPECT_EQ(t.llc_domains(), 1u);
  EXPECT_EQ(t.numa_nodes(), 3u);  // node0, node1, and cpu2's fallback node
  EXPECT_NE(t.placement(2).numa_node, t.placement(0).numa_node);
  EXPECT_NE(t.placement(2).numa_node, t.placement(1).numa_node);
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_LT(t.placement(c).numa_node, t.numa_nodes());  // ids stay dense
  }
}

TEST(TopologySysfs, BareCpuDirsDegradeToPrivateCores) {
  FakeSysfs sysfs;
  sysfs.mkdir("cpu0");
  sysfs.mkdir("cpu1");
  // Non-cpu entries must not be parsed as cpus.
  sysfs.mkdir("cpufreq");
  sysfs.write("online", "0-1\n");

  const Topology t = Topology::from_sysfs(sysfs.path());
  ASSERT_EQ(t.cpu_count(), 2u);
  EXPECT_EQ(t.smt_groups(), 2u);
  EXPECT_EQ(t.llc_domains(), 2u);
}

TEST(TopologySysfs, MissingRootYieldsEmpty) {
  const Topology t = Topology::from_sysfs("/nonexistent/sysfs/cpu");
  EXPECT_EQ(t.cpu_count(), 0u);
}

TEST(TopologySynthetic, Shape) {
  const Topology t = Topology::synthetic(256, 8, 64, 64);
  ASSERT_EQ(t.cpu_count(), 256u);
  EXPECT_EQ(t.smt_groups(), 32u);
  EXPECT_EQ(t.llc_domains(), 4u);
  EXPECT_EQ(t.numa_nodes(), 4u);
  EXPECT_EQ(t.placement(0).smt_group, t.placement(7).smt_group);
  EXPECT_NE(t.placement(7).smt_group, t.placement(8).smt_group);
  EXPECT_EQ(t.placement(63).llc_domain, 0u);
  EXPECT_EQ(t.placement(64).llc_domain, 1u);
}

TEST(TopologySystem, IsUsable) {
  const Topology& t = Topology::system();
  ASSERT_GE(t.cpu_count(), 1u);
  for (std::uint32_t c = 0; c < t.cpu_count(); ++c) {
    EXPECT_LT(t.placement(c).smt_group, t.smt_groups());
    EXPECT_LT(t.placement(c).llc_domain, t.llc_domains());
    EXPECT_LT(t.placement(c).numa_node, t.numa_nodes());
  }
}

TEST(LeafMapTest, Policies) {
  const Topology t = Topology::synthetic(16, 4, 8, 16);
  const LeafMap smt(&t, LeafMapping::kSmtCluster, 8, 0);
  EXPECT_EQ(smt.leaf_of(0), smt.leaf_of(3));
  EXPECT_NE(smt.leaf_of(3), smt.leaf_of(4));

  const LeafMap llc(&t, LeafMapping::kLlcCluster, 8, 0);
  EXPECT_EQ(llc.leaf_of(0), llc.leaf_of(7));
  EXPECT_NE(llc.leaf_of(7), llc.leaf_of(8));

  const LeafMap per_thread(&t, LeafMapping::kPerThread, 16, 0);
  EXPECT_NE(per_thread.leaf_of(0), per_thread.leaf_of(1));

  const LeafMap shifted(&t, LeafMapping::kStaticShift, 8, 2);
  EXPECT_EQ(shifted.leaf_of(0), shifted.leaf_of(3));
  EXPECT_NE(shifted.leaf_of(3), shifted.leaf_of(4));

  // Thread indices beyond the cpu count wrap (mod cpus).
  EXPECT_EQ(smt.leaf_of(16), smt.leaf_of(0));
}

TEST(LeafMapTest, PlacementPolicyWithoutTopologyDegrades) {
  const LeafMap m(nullptr, LeafMapping::kSmtCluster, 8, 0);
  EXPECT_EQ(m.mapping(), LeafMapping::kPerThread);
  EXPECT_EQ(m.leaf_of(9), 1u);  // 9 & 7
}

// private_leaves() must agree with the brute-force definition: a
// placement-derived mapping where no two CPUs land on the same leaf.
bool brute_force_private(const Topology& t, const LeafMap& m) {
  std::vector<bool> used(64, false);
  for (std::uint32_t cpu = 0; cpu < t.cpu_count(); ++cpu) {
    if (used[m.leaf_of(cpu)]) return false;
    used[m.leaf_of(cpu)] = true;
  }
  return true;
}

TEST(LeafMapTest, PrivateLeavesMatchesBruteForce) {
  const LeafMapping placed[] = {LeafMapping::kSmtCluster,
                                LeafMapping::kLlcCluster,
                                LeafMapping::kNumaCluster};
  const Topology shapes[] = {
      Topology::synthetic(4, 1, 4, 4),    // no SMT: private SMT leaves
      Topology::synthetic(4, 2, 4, 4),    // SMT pairs share a leaf
      Topology::synthetic(8, 1, 1, 8),    // one cpu per LLC
      Topology::synthetic(64, 1, 64, 64),
      Topology::synthetic(128, 1, 128, 128),  // more cores than leaves
      Topology::synthetic(1, 1, 1, 1),
  };
  for (const Topology& t : shapes) {
    for (std::uint32_t leaves : {1u, 4u, 64u}) {
      for (LeafMapping m : placed) {
        const LeafMap map(&t, m, leaves, 0);
        EXPECT_EQ(map.private_leaves(), brute_force_private(t, map))
            << t.cpu_count() << " cpus, " << t.smt_groups() << " cores, "
            << leaves << " leaves, " << leaf_mapping_name(m);
      }
    }
  }
  // The explicit layouts never count as private, whatever they do.
  const Topology t = Topology::synthetic(4, 1, 4, 4);
  EXPECT_FALSE(LeafMap(&t, LeafMapping::kPerThread, 64, 0).private_leaves());
  EXPECT_FALSE(LeafMap(&t, LeafMapping::kStaticShift, 64, 1).private_leaves());
}

TEST(LeafMappingNames, RoundTrip) {
  for (LeafMapping m :
       {LeafMapping::kAuto, LeafMapping::kStaticShift, LeafMapping::kPerThread,
        LeafMapping::kSmtCluster, LeafMapping::kLlcCluster,
        LeafMapping::kNumaCluster}) {
    LeafMapping parsed;
    ASSERT_TRUE(parse_leaf_mapping(leaf_mapping_name(m), parsed));
    EXPECT_EQ(parsed, m);
  }
  LeafMapping unused;
  EXPECT_FALSE(parse_leaf_mapping("bogus", unused));
}

}  // namespace
}  // namespace oll
