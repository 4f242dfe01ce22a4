// google-benchmark microbenchmarks for the C-SNZI object itself: the cost of
// each operation at the root and through the tree, single-threaded and with
// thread contention — the "time overhead ... in the absence of contention"
// claim of §6 and the substrate costs behind every lock number.
#include <benchmark/benchmark.h>

#include "platform/memory.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "snzi/csnzi.hpp"
#include "snzi/orig_snzi.hpp"

namespace {

using oll::ArrivalPolicy;
using oll::CSnzi;
using oll::CSnziOptions;

CSnziOptions policy_opts(ArrivalPolicy p) {
  CSnziOptions o;
  o.policy = p;
  return o;
}

// Attach the arrival-path mix to the benchmark output (per-op, summed over
// threads; ops approximated as iterations x threads, exact at 1 thread).
void report_arrival_mix(benchmark::State& state, const oll::CSnziStatsSnapshot& s) {
  const double ops = static_cast<double>(state.iterations()) *
                     static_cast<double>(state.threads());
  if (ops == 0) return;
  state.counters["direct/op"] =
      benchmark::Counter(static_cast<double>(s.direct_arrivals) / ops);
  state.counters["tree/op"] =
      benchmark::Counter(static_cast<double>(s.tree_arrivals) / ops);
  state.counters["sticky/op"] =
      benchmark::Counter(static_cast<double>(s.sticky_arrivals) / ops);
  state.counters["rootread/op"] =
      benchmark::Counter(static_cast<double>(s.root_reads) / ops);
  state.counters["casfail/op"] =
      benchmark::Counter(static_cast<double>(s.root_cas_failures) / ops);
}

void BM_ArriveDepart_Root(benchmark::State& state) {
  CSnzi<> c(policy_opts(ArrivalPolicy::kAlwaysRoot));
  for (auto _ : state) {
    auto t = c.arrive();
    benchmark::DoNotOptimize(t);
    c.depart(t);
  }
}
BENCHMARK(BM_ArriveDepart_Root);

void BM_ArriveDepart_Tree(benchmark::State& state) {
  CSnzi<> c(policy_opts(ArrivalPolicy::kAlwaysTree));
  for (auto _ : state) {
    auto t = c.arrive();
    benchmark::DoNotOptimize(t);
    c.depart(t);
  }
}
BENCHMARK(BM_ArriveDepart_Tree);

void BM_ArriveDepart_TreeDeep(benchmark::State& state) {
  CSnziOptions o = policy_opts(ArrivalPolicy::kAlwaysTree);
  o.leaves = 64;
  o.levels = static_cast<std::uint32_t>(state.range(0));
  o.fanout = 4;
  CSnzi<> c(o);
  for (auto _ : state) {
    auto t = c.arrive();
    benchmark::DoNotOptimize(t);
    c.depart(t);
  }
}
BENCHMARK(BM_ArriveDepart_TreeDeep)->Arg(1)->Arg(2)->Arg(3);

void BM_ArriveDepart_Adaptive(benchmark::State& state) {
  CSnzi<> c;
  for (auto _ : state) {
    auto t = c.arrive();
    benchmark::DoNotOptimize(t);
    c.depart(t);
  }
  report_arrival_mix(state, c.stats());
}
BENCHMARK(BM_ArriveDepart_Adaptive);

void BM_Query(benchmark::State& state) {
  CSnzi<> c;
  auto t = c.arrive();
  for (auto _ : state) {
    auto q = c.query();
    benchmark::DoNotOptimize(q);
  }
  c.depart(t);
}
BENCHMARK(BM_Query);

void BM_CloseOpen(benchmark::State& state) {
  CSnzi<> c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.close());
    c.open();
  }
}
BENCHMARK(BM_CloseOpen);

void BM_CloseIfEmptyOpen(benchmark::State& state) {
  CSnzi<> c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.close_if_empty());
    c.open();
  }
}
BENCHMARK(BM_CloseIfEmptyOpen);

// Original PODC'07 SNZI (half-increment protocol) vs the simplified Lev et
// al. algorithm the paper uses — the §2.2 engine choice, measured.
void BM_OrigSnzi_ArriveDepart(benchmark::State& state) {
  oll::CSnziOptions o;
  o.leaves = 64;
  oll::OrigSnzi<> s(o);
  for (auto _ : state) {
    auto t = s.arrive();
    benchmark::DoNotOptimize(t);
    s.depart(t);
  }
}
BENCHMARK(BM_OrigSnzi_ArriveDepart);

void BM_OrigSnzi_Contended(benchmark::State& state) {
  static oll::OrigSnzi<>* s = nullptr;
  if (state.thread_index() == 0) s = new oll::OrigSnzi<>();
  for (auto _ : state) {
    auto t = s->arrive();
    benchmark::DoNotOptimize(t);
    s->depart(t);
  }
  if (state.thread_index() == 0) {
    delete s;
    s = nullptr;
  }
}
BENCHMARK(BM_OrigSnzi_Contended)->Threads(2)->Threads(4)->Threads(8);

// Multithreaded arrive/depart: contention on the adaptive policy (threads
// share the host's cores; on this reproduction host this measures the
// algorithmic path, not true parallel scalability — see DESIGN.md §3).
void BM_ArriveDepart_Contended(benchmark::State& state) {
  static CSnzi<>* c = nullptr;
  if (state.thread_index() == 0) c = new CSnzi<>();
  for (auto _ : state) {
    auto t = c->arrive();
    benchmark::DoNotOptimize(t);
    c->depart(t);
  }
  if (state.thread_index() == 0) {
    report_arrival_mix(state, c->stats());
    delete c;
    c = nullptr;
  }
}
BENCHMARK(BM_ArriveDepart_Contended)->Threads(2)->Threads(4)->Threads(8);

// The same contended loop with the sticky window disabled: every tree
// arrival re-reads the root word first (the seed behaviour).  The delta
// against BM_ArriveDepart_Contended is the sticky fast path's win.
void BM_ArriveDepart_Contended_StickyOff(benchmark::State& state) {
  static CSnzi<>* c = nullptr;
  if (state.thread_index() == 0) {
    CSnziOptions o;
    o.sticky_arrivals = 0;
    c = new CSnzi<>(o);
  }
  for (auto _ : state) {
    auto t = c->arrive();
    benchmark::DoNotOptimize(t);
    c->depart(t);
  }
  if (state.thread_index() == 0) {
    report_arrival_mix(state, c->stats());
    delete c;
    c = nullptr;
  }
}
BENCHMARK(BM_ArriveDepart_Contended_StickyOff)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8);

// The adaptive policy's two outcomes, pinned by synthetic four-CPU shapes so
// both are measured on any host.  shared:0 has no SMT, so every leaf is
// private and arrivals stay at the root (tree/op reads 0); shared:1 pairs
// CPUs on each leaf, and contended arrivals move to the tree once they lose
// the root CAS.  Worker t runs as thread index t, i.e. on synthetic cpu t.
// casfail/op and tree/op are the per-layer evidence for the topology rule.
void BM_ArriveDepart_AdaptiveTopology(benchmark::State& state) {
  static const oll::Topology private_leaves =
      oll::Topology::synthetic(4, 1, 4, 4);
  static const oll::Topology shared_leaves =
      oll::Topology::synthetic(4, 2, 4, 4);
  static CSnzi<>* c = nullptr;
  oll::ScopedThreadIndex idx(static_cast<std::uint32_t>(state.thread_index()));
  if (state.thread_index() == 0) {
    CSnziOptions o;
    o.topology = state.range(0) != 0 ? &shared_leaves : &private_leaves;
    c = new CSnzi<>(o);
  }
  for (auto _ : state) {
    auto t = c->arrive();
    benchmark::DoNotOptimize(t);
    c->depart(t);
  }
  if (state.thread_index() == 0) {
    report_arrival_mix(state, c->stats());
    delete c;
    c = nullptr;
  }
}
BENCHMARK(BM_ArriveDepart_AdaptiveTopology)
    ->ArgName("shared")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);

// Saturated-leaf tree arrivals (adaptive, threshold 0, one shared leaf kept
// hot by a standing arrival): with the sticky window armed the steady state
// performs zero root-word accesses per op; with sticky=0 every arrival still
// loads the root first.  The delta is the per-op root access — a remote-LLC
// read on real multi-chip hardware, and the §2.2 fast path this PR adds.
void BM_TreeArrive_SaturatedLeaf(benchmark::State& state) {
  static CSnzi<>* c = nullptr;
  static CSnzi<>::Ticket standing;
  if (state.thread_index() == 0) {
    CSnziOptions o;
    o.leaves = 1;  // every thread shares the one leaf
    o.root_cas_fail_threshold = 0;  // adaptive: tree from the first arrival
    o.sticky_arrivals = static_cast<std::uint32_t>(state.range(0));
    c = new CSnzi<>(o);
    standing = c->arrive();  // leaf never drains during the loop
  }
  for (auto _ : state) {
    auto t = c->arrive();
    benchmark::DoNotOptimize(t);
    c->depart(t);
  }
  if (state.thread_index() == 0) {
    report_arrival_mix(state, c->stats());
    c->depart(standing);
    delete c;
    c = nullptr;
  }
}
BENCHMARK(BM_TreeArrive_SaturatedLeaf)
    ->ArgName("sticky")
    ->Arg(0)
    ->Arg(64)
    ->Threads(1)
    ->Threads(8);

}  // namespace

BENCHMARK_MAIN();
