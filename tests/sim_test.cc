// CPU simulator: trace-driven core, prefetcher, memory system plumbing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dram/system.h"
#include "secmem/model.h"
#include "sim/core.h"
#include "sim/memory_system.h"
#include "sim/prefetcher.h"
#include "sim/system.h"
#include "sim/trace.h"
#include "workloads/generator.h"

namespace secddr::sim {
namespace {

// A MemoryPort with programmable latency, for isolating the core model.
class FakeMemory final : public MemoryPort {
 public:
  explicit FakeMemory(Cycle latency) : latency_(latency) {}

  bool issue_load(unsigned, Addr, bool* done) override {
    ++loads;
    pending_.push_back({now_ + latency_, done});
    return true;
  }
  bool issue_store(unsigned, Addr) override {
    ++stores;
    return true;
  }
  void tick() {
    ++now_;
    for (std::size_t i = 0; i < pending_.size();) {
      if (pending_[i].first <= now_) {
        *pending_[i].second = true;
        pending_[i] = pending_.back();
        pending_.pop_back();
      } else {
        ++i;
      }
    }
  }

  std::uint64_t loads = 0;
  std::uint64_t stores = 0;

 private:
  Cycle latency_;
  Cycle now_ = 0;
  std::vector<std::pair<Cycle, bool*>> pending_;
};

std::vector<TraceRecord> make_trace(unsigned n, std::uint32_t gap,
                                    bool writes = false) {
  std::vector<TraceRecord> v;
  for (unsigned i = 0; i < n; ++i)
    v.push_back({gap, writes, static_cast<Addr>(i) * kLineSize});
  return v;
}

// ---------------------------------------------------------------- core

TEST(Core, PureComputeRetiresAtWidth) {
  // 6000 non-memory instructions at width 6 => ~1000 cycles.
  VectorTrace trace({{6000, false, 0}});
  FakeMemory mem(10);
  Core core(0, {224, 6}, trace, mem);
  // The trailing memory op of the record is also fetched and must drain.
  while (!core.finished()) {
    core.tick();
    mem.tick();
  }
  EXPECT_GE(core.stats().instructions, 6000u);
  EXPECT_NEAR(static_cast<double>(core.stats().cycles), 6001.0 / 6.0, 25.0);
}

// Checkpoint tokens name ROB entries by index; a corrupt index throws
// instead of pointing past the ROB.
TEST(Core, DoneFlagTokenPastTheRobIsRejected) {
  VectorTrace trace(make_trace(4, 0));
  FakeMemory mem(1000);
  Core core(0, {224, 6}, trace, mem);
  core.tick();
  EXPECT_NO_THROW(core.done_flag_at(0));
  EXPECT_THROW(core.done_flag_at(1'000'000), std::runtime_error);
}

// A checkpointed MSHR free list indexes the MSHR table; an entry past it
// is rejected on load.
TEST(MemorySystem, MshrFreeListIndexOutOfRangeIsRejected) {
  BackendConfig bcfg;
  bcfg.security = secmem::SecurityParams::secddr_ctr();
  bcfg.data_bytes = 4ull << 30;
  MemoryBackend backend(bcfg);
  MemConfig cfg;
  cfg.cores = 1;
  MemorySystem mem(cfg, backend);
  const auto no_flags = [](bool*) -> std::uint64_t {
    throw std::logic_error("no waiters in a fresh memory system");
  };
  serial::Sink s;
  mem.save(s, no_flags);
  std::vector<std::uint8_t> payload = s.take();
  // Tail of a fresh payload: free list (count + one u32 per MSHR), fill
  // version, empty done queue, now, six stat counters, per-core misses.
  const std::size_t free_list =
      payload.size() - (8 + 8 + 8 + 6 * 8 + 8 + 8 * cfg.cores) -
      4 * cfg.mshrs - 8;
  ASSERT_EQ(serial::Source(payload.data() + free_list, 8).u64(), cfg.mshrs);
  payload[free_list + 8 + 1] = 0x10;  // first free index += 4096

  MemorySystem fresh(cfg, backend);
  serial::Source src(payload);
  EXPECT_THROW(fresh.load(src, [](std::uint64_t) -> bool* { return nullptr; }),
               std::runtime_error);
}

TEST(Core, MemoryLatencyBoundsIpcWithoutMlp) {
  // Dependent loads (one at a time in a tiny ROB) pay the full latency.
  VectorTrace trace(make_trace(100, 0));
  FakeMemory mem(100);
  Core core(0, {/*rob=*/1, /*width=*/1}, trace, mem);
  while (!core.finished()) {
    core.tick();
    mem.tick();
  }
  // 100 loads x ~100 cycles each.
  EXPECT_GT(core.stats().cycles, 100u * 100u);
}

TEST(Core, LargeRobExposesMemoryLevelParallelism) {
  // Same trace, 224-entry ROB: loads overlap, cycles collapse.
  VectorTrace t1(make_trace(200, 0));
  VectorTrace t2(make_trace(200, 0));
  FakeMemory m1(100), m2(100);
  Core small(0, {1, 1}, t1, m1);
  Core big(0, {224, 6}, t2, m2);
  while (!small.finished()) {
    small.tick();
    m1.tick();
  }
  while (!big.finished()) {
    big.tick();
    m2.tick();
  }
  EXPECT_LT(big.stats().cycles * 10, small.stats().cycles)
      << "ROB must expose MLP";
}

TEST(Core, InstructionBudgetHonored) {
  VectorTrace trace(make_trace(100000, 9));
  FakeMemory mem(5);
  Core core(0, {224, 6}, trace, mem);
  core.set_instruction_budget(5000);
  while (!core.finished()) {
    core.tick();
    mem.tick();
  }
  EXPECT_GE(core.stats().instructions, 5000u);
  EXPECT_LE(core.stats().instructions, 5100u);
}

TEST(Core, BudgetBoundaryKeepsPendingTraceRecord) {
  // One record: 5 gap instructions then a load. A budget of exactly 5
  // ends the phase on the batch boundary; the memory op must survive
  // into the next phase instead of being silently dropped.
  VectorTrace trace({{5, false, 0x1000}});
  FakeMemory mem(3);
  Core core(0, {224, 6}, trace, mem);
  core.set_instruction_budget(5);
  for (int i = 0; i < 100 && !core.finished(); ++i) {
    core.tick();
    mem.tick();
  }
  ASSERT_TRUE(core.finished());
  EXPECT_EQ(core.stats().instructions, 5u);
  EXPECT_EQ(mem.loads, 0u) << "the load is beyond this phase's budget";
  core.set_instruction_budget(0);  // next phase: unlimited
  for (int i = 0; i < 100 && !core.finished(); ++i) {
    core.tick();
    mem.tick();
  }
  ASSERT_TRUE(core.finished());
  EXPECT_EQ(mem.loads, 1u) << "memory op lost at the budget boundary";
  EXPECT_EQ(core.stats().instructions, 6u);
}

TEST(Core, BudgetBoundaryMidGapResumesRemainder) {
  // Budget lands inside the gap batch: the remaining gap and the memory
  // op both carry over to the next phase.
  VectorTrace trace({{10, true, 0x2000}});
  FakeMemory mem(3);
  Core core(0, {224, 6}, trace, mem);
  core.set_instruction_budget(6);
  for (int i = 0; i < 100 && !core.finished(); ++i) {
    core.tick();
    mem.tick();
  }
  ASSERT_TRUE(core.finished());
  EXPECT_EQ(core.stats().instructions, 6u);
  core.set_instruction_budget(11);  // 4 remaining gap + the store
  for (int i = 0; i < 100 && !core.finished(); ++i) {
    core.tick();
    mem.tick();
  }
  ASSERT_TRUE(core.finished());
  EXPECT_EQ(mem.stores, 1u);
  EXPECT_EQ(core.stats().instructions, 11u);
}

TEST(Core, StoresDoNotBlockRetirement) {
  VectorTrace trace(make_trace(500, 0, /*writes=*/true));
  FakeMemory mem(1000);  // huge latency, but stores are posted
  Core core(0, {224, 6}, trace, mem);
  while (!core.finished()) {
    core.tick();
    mem.tick();
  }
  EXPECT_EQ(mem.stores, 500u);
  EXPECT_LT(core.stats().cycles, 2000u);
}

TEST(Core, CountsLoadsAndStores) {
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 10; ++i) recs.push_back({0, i % 2 == 0, Addr(i) * 64});
  VectorTrace trace(recs);
  FakeMemory mem(2);
  Core core(0, {224, 6}, trace, mem);
  while (!core.finished()) {
    core.tick();
    mem.tick();
  }
  EXPECT_EQ(core.stats().loads, 5u);
  EXPECT_EQ(core.stats().stores, 5u);
}

// ---------------------------------------------------------------- prefetcher

TEST(Prefetcher, DetectsAscendingStream) {
  StreamPrefetcher pf;
  std::vector<Addr> out;
  for (int i = 0; i < 7; ++i) pf.train(static_cast<Addr>(i) * 64, out);
  out.clear();
  pf.train(7 * 64, out);  // inspect only the final trigger
  EXPECT_FALSE(out.empty());
  // Prefetches are ahead of the triggering access.
  for (Addr p : out) EXPECT_GT(p, 7u * 64);
}

TEST(Prefetcher, DetectsDescendingStream) {
  StreamPrefetcher pf;
  std::vector<Addr> out;
  for (int i = 32; i > 25; --i) pf.train(static_cast<Addr>(i) * 64, out);
  out.clear();
  pf.train(25 * 64, out);
  EXPECT_FALSE(out.empty());
  for (Addr p : out) EXPECT_LT(p, 25u * 64);
}

TEST(Prefetcher, IgnoresRandomAccesses) {
  StreamPrefetcher pf;
  Xoshiro256 rng(3);
  std::vector<Addr> out;
  for (int i = 0; i < 200; ++i)
    pf.train(line_base(rng.next() % (1 << 30)), out);
  EXPECT_LT(out.size(), 10u);
}

TEST(Prefetcher, StopsAtPageBoundary) {
  StreamPrefetcher pf({16, 8, 8, 2});
  std::vector<Addr> out;
  // Train at the end of a 4KB page.
  for (Addr line = 4096 - 5 * 64; line < 4096; line += 64) pf.train(line, out);
  for (Addr p : out) EXPECT_LT(p, 4096u) << "prefetch crossed the page";
}

// ---------------------------------------------------------------- system

sim::SystemConfig small_system(secmem::SecurityParams sec) {
  sim::SystemConfig cfg;
  cfg.mem.cores = 2;
  cfg.security = std::move(sec);
  // Must cover both cores' address spaces: SyntheticTrace places core c at
  // c * 2GB, so 2 cores need a 4GB data region.
  cfg.data_bytes = 4ull << 30;
  return cfg;
}

TEST(System, RunsToCompletionAndReportsStats) {
  auto desc = *workloads::find("gcc");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  System sys(small_system(secmem::SecurityParams::encrypt_only_xts()),
             {&t0, &t1});
  const RunResult r = sys.run(20000);
  EXPECT_FALSE(r.hit_cycle_limit);
  EXPECT_EQ(r.cores.size(), 2u);
  for (const auto& c : r.cores) EXPECT_GE(c.instructions, 20000u);
  EXPECT_GT(r.total_ipc, 0.0);
  EXPECT_GT(r.mem.llc_demand_accesses, 0u);
}

TEST(System, MemoryIntensiveWorkloadHasLowerIpc) {
  auto light = *workloads::find("povray");
  auto heavy = *workloads::find("mcf");
  workloads::SyntheticTrace l0(light, 0), l1(light, 1);
  workloads::SyntheticTrace h0(heavy, 0), h1(heavy, 1);
  System sys_l(small_system(secmem::SecurityParams::encrypt_only_xts()),
               {&l0, &l1});
  System sys_h(small_system(secmem::SecurityParams::encrypt_only_xts()),
               {&h0, &h1});
  // Warmup long enough for povray's warm working set to become resident
  // (one full sweep of the 256KB region at ~30% warm accesses).
  const RunResult rl = sys_l.run(50000, 2'000'000'000, /*warmup=*/120000);
  const RunResult rh = sys_h.run(50000, 2'000'000'000, /*warmup=*/120000);
  EXPECT_GT(rl.total_ipc, rh.total_ipc * 1.5);
  EXPECT_GT(rh.llc_mpki, rl.llc_mpki * 10);
}

TEST(System, EveryLoadEventuallyCompletes) {
  // No deadlocks under the full stack with the tree config (the most
  // complex metadata path).
  auto desc = *workloads::find("omnetpp");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  System sys(small_system(secmem::SecurityParams::baseline_tree_ctr()),
             {&t0, &t1});
  const RunResult r = sys.run(15000, /*max_cycles=*/50'000'000);
  EXPECT_FALSE(r.hit_cycle_limit) << "simulation wedged";
}

TEST(System, MultiChannelSpreadsTrafficAndAggregates) {
  auto desc = *workloads::find("mcf");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  auto cfg = small_system(secmem::SecurityParams::secddr_ctr());
  cfg.geometry.channels = 2;
  System sys(cfg, {&t0, &t1});
  const RunResult r = sys.run(15000, 2'000'000'000, /*warmup=*/5000);
  EXPECT_FALSE(r.hit_cycle_limit);
  ASSERT_EQ(r.dram_per_channel.size(), 2u);
  ASSERT_EQ(r.engine_per_channel.size(), 2u);
  // Line interleave spreads a memory-bound workload across both channels.
  std::uint64_t reads = 0, engine_reads = 0;
  for (const auto& d : r.dram_per_channel) {
    EXPECT_GT(d.reads_completed, 0u);
    reads += d.reads_completed;
  }
  for (const auto& e : r.engine_per_channel) {
    EXPECT_GT(e.data_reads, 0u);
    engine_reads += e.data_reads;
  }
  // Aggregates are exactly the per-channel sums.
  EXPECT_EQ(reads, r.dram.reads_completed);
  EXPECT_EQ(engine_reads, r.engine.data_reads);
}

TEST(System, DramSeesTraffic) {
  auto desc = *workloads::find("lbm");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  auto cfg = small_system(secmem::SecurityParams::encrypt_only_xts());
  cfg.mem.llc_bytes = 256 * 1024;  // small LLC: dirty evictions flow out
  System sys(cfg, {&t0, &t1});
  const RunResult r = sys.run(30000, 2'000'000'000, /*warmup=*/30000);
  EXPECT_GT(r.dram.reads_completed, 0u);
  EXPECT_GT(r.dram.writes_completed, 0u);  // lbm is write-heavy
  EXPECT_GT(r.dram.row_hits, 0u);
}

// The memory backend is serial: a config asking for channel threads is
// rejected in every build type, not silently run serially.
TEST(System, RejectsMemThreadsOtherThanOne) {
  auto desc = *workloads::find("gcc");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  auto cfg = small_system(secmem::SecurityParams::secddr_ctr());
  cfg.geometry.channels = 2;
  for (const unsigned mem_threads : {0u, 2u, 4u}) {
    cfg.mem_threads = mem_threads;
    EXPECT_THROW(System(cfg, {&t0, &t1}), std::invalid_argument);
  }
  cfg.mem_threads = 1;
  EXPECT_NO_THROW(System(cfg, {&t0, &t1}));
}

TEST(System, RejectsTraceCountOtherThanCores) {
  auto desc = *workloads::find("gcc");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1), t2(desc, 2);
  const auto cfg = small_system(secmem::SecurityParams::secddr_ctr());
  ASSERT_EQ(cfg.mem.cores, 2u);
  EXPECT_THROW(System(cfg, {&t0}), std::invalid_argument);
  EXPECT_THROW(System(cfg, {&t0, &t1, &t2}), std::invalid_argument);
  EXPECT_NO_THROW(System(cfg, {&t0, &t1}));
}

TEST(System, RejectsZeroChannels) {
  auto desc = *workloads::find("gcc");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  auto cfg = small_system(secmem::SecurityParams::secddr_ctr());
  cfg.geometry.channels = 0;
  EXPECT_THROW(System(cfg, {&t0, &t1}), std::invalid_argument);
}

TEST(System, RejectsDataBytesNotWholeStripesPerChannel) {
  auto desc = *workloads::find("gcc");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  auto cfg = small_system(secmem::SecurityParams::secddr_ctr());
  cfg.geometry.channels = 2;
  cfg.data_bytes += kLineSize;  // one line left over for one channel
  EXPECT_THROW(System(cfg, {&t0, &t1}), std::invalid_argument);
  cfg.data_bytes += kLineSize;  // one more line each
  EXPECT_NO_THROW(System(cfg, {&t0, &t1}));
}

TEST(System, RejectsDataPlusMetadataBeyondChannelCapacity) {
  auto desc = *workloads::find("gcc");
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  auto cfg = small_system(secmem::SecurityParams::baseline_tree_ctr());
  // The whole channel as data leaves no room for counters and tree nodes.
  cfg.data_bytes = cfg.geometry.channel_capacity_bytes();
  EXPECT_THROW(System(cfg, {&t0, &t1}), std::invalid_argument);
}

}  // namespace
}  // namespace secddr::sim
