// Slow-vs-fast determinism: the event-driven simulation loop must be a
// pure optimization. Every statistic of every component — core cycles,
// stall accounting, cache/MSHR traffic, engine metadata fetches, DRAM
// command and latency counters, per-channel breakdowns — must be
// bit-identical to the tick-every-cycle loop, across the fig6 sweep
// configurations, DRAM timing presets (including a non-integer
// core:memory clock ratio), both scheduling policies, multi-channel
// backends (both channel-bit positions), and a run that hits the cycle
// limit. A golden test additionally pins channels=1 results to the exact
// numbers the pre-backend single-channel pipeline produced.
//
// SECDDR_CHANNELS overrides the channel count of every variant that does
// not pin one itself (ci.sh runs the determinism label with
// SECDDR_CHANNELS=2 as a dedicated step).
//
// Fig6SweepBitIdenticalAcrossLoops covers the whole fig6 sweep, built by
// the bench harness as fig6_performance builds it, and compares the
// encoded RunResult bytes of the two loops point by point.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "../bench/sweep.h"
#include "fleet/checkpoint.h"
#include "secmem/params.h"
#include "sim/system.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

namespace secddr::sim {
namespace {

struct Variant {
  std::string name;
  secmem::SecurityParams security;
  dram::Timings timings = dram::Timings::ddr4_3200();
  dram::SchedulingPolicy scheduling = dram::SchedulingPolicy::kFrFcfs;
  unsigned channels = 0;  ///< 0 = default (1, or $SECDDR_CHANNELS)
  dram::ChannelInterleave interleave = dram::ChannelInterleave::kLine;
};

std::vector<Variant> sweep_variants() {
  return {
      {"tree64", secmem::SecurityParams::baseline_tree_ctr()},
      {"secddr_ctr", secmem::SecurityParams::secddr_ctr()},
      {"enc_ctr", secmem::SecurityParams::encrypt_only_ctr()},
      {"secddr_xts", secmem::SecurityParams::secddr_xts()},
      {"enc_xts", secmem::SecurityParams::encrypt_only_xts()},
      // Non-integer 3:8 memory:core clock ratio (InvisiMem's derated
      // channel) exercises the clock-accumulator inversion.
      {"invisimem_2400",
       secmem::SecurityParams::invisimem(secmem::Encryption::kXts),
       dram::Timings::ddr4_2400()},
      {"tree64_fcfs", secmem::SecurityParams::baseline_tree_ctr(),
       dram::Timings::ddr4_3200(), dram::SchedulingPolicy::kFcfs},
      // Multi-channel backends: line-interleaved 2-channel, and
      // row-interleaved 4-channel (the other channel-bit position).
      {"secddr_ctr_2ch", secmem::SecurityParams::secddr_ctr(),
       dram::Timings::ddr4_3200(), dram::SchedulingPolicy::kFrFcfs, 2,
       dram::ChannelInterleave::kLine},
      {"tree64_4ch_row", secmem::SecurityParams::baseline_tree_ctr(),
       dram::Timings::ddr4_3200(), dram::SchedulingPolicy::kFrFcfs, 4,
       dram::ChannelInterleave::kRow},
  };
}

unsigned env_channels() {
  const char* s = std::getenv("SECDDR_CHANNELS");
  const unsigned ch = s ? static_cast<unsigned>(std::strtoul(s, nullptr, 10)) : 1;
  // The channel selector needs a power of two; reject garbage loudly
  // instead of mis-routing in Release builds.
  EXPECT_TRUE(ch != 0 && (ch & (ch - 1)) == 0)
      << "SECDDR_CHANNELS=" << (s ? s : "") << " is not a power of two";
  return (ch != 0 && (ch & (ch - 1)) == 0) ? ch : 1;
}

RunResult run_variant(const workloads::WorkloadDesc& desc, const Variant& v,
                      bool event_driven, Cycle max_cycles = 2'000'000'000) {
  SystemConfig cfg;
  cfg.mem.cores = 2;
  cfg.security = v.security;
  cfg.timings = v.timings;
  cfg.scheduling = v.scheduling;
  cfg.geometry.channels = v.channels ? v.channels : env_channels();
  cfg.geometry.channel_interleave = v.interleave;
  cfg.data_bytes = 4ull << 30;  // two cores at 2GB trace stride
  cfg.event_driven = event_driven;
  workloads::SyntheticTrace t0(desc, 0), t1(desc, 1);
  System sys(cfg, {&t0, &t1});
  return sys.run(3000, max_cycles, /*warmup=*/800);
}

void expect_identical(const RunResult& slow, const RunResult& fast) {
  ASSERT_EQ(slow.cores.size(), fast.cores.size());
  for (std::size_t i = 0; i < slow.cores.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(i));
    EXPECT_EQ(slow.cores[i].instructions, fast.cores[i].instructions);
    EXPECT_EQ(slow.cores[i].cycles, fast.cores[i].cycles);
    EXPECT_EQ(slow.cores[i].loads, fast.cores[i].loads);
    EXPECT_EQ(slow.cores[i].stores, fast.cores[i].stores);
    EXPECT_EQ(slow.cores[i].load_stall_cycles, fast.cores[i].load_stall_cycles);
  }
  EXPECT_EQ(slow.cycles, fast.cycles);
  EXPECT_EQ(slow.hit_cycle_limit, fast.hit_cycle_limit);
  // Derived doubles come from identical integers, so exact equality holds.
  EXPECT_EQ(slow.total_ipc, fast.total_ipc);
  EXPECT_EQ(slow.llc_mpki, fast.llc_mpki);
  EXPECT_EQ(slow.metadata_miss_rate, fast.metadata_miss_rate);
  EXPECT_EQ(slow.metadata_accesses, fast.metadata_accesses);

  EXPECT_EQ(slow.mem.l1_accesses, fast.mem.l1_accesses);
  EXPECT_EQ(slow.mem.l1_misses, fast.mem.l1_misses);
  EXPECT_EQ(slow.mem.llc_demand_accesses, fast.mem.llc_demand_accesses);
  EXPECT_EQ(slow.mem.llc_demand_misses, fast.mem.llc_demand_misses);
  EXPECT_EQ(slow.mem.llc_writebacks, fast.mem.llc_writebacks);
  EXPECT_EQ(slow.mem.prefetch_fills, fast.mem.prefetch_fills);
  EXPECT_EQ(slow.mem.llc_demand_misses_per_core,
            fast.mem.llc_demand_misses_per_core);

  EXPECT_EQ(slow.engine.data_reads, fast.engine.data_reads);
  EXPECT_EQ(slow.engine.data_writes, fast.engine.data_writes);
  EXPECT_EQ(slow.engine.counter_fetches, fast.engine.counter_fetches);
  EXPECT_EQ(slow.engine.mac_line_fetches, fast.engine.mac_line_fetches);
  EXPECT_EQ(slow.engine.tree_node_fetches, fast.engine.tree_node_fetches);
  EXPECT_EQ(slow.engine.meta_writebacks, fast.engine.meta_writebacks);
  EXPECT_EQ(slow.engine.reads_with_tree_walk, fast.engine.reads_with_tree_walk);

  EXPECT_EQ(slow.dram.reads_enqueued, fast.dram.reads_enqueued);
  EXPECT_EQ(slow.dram.writes_enqueued, fast.dram.writes_enqueued);
  EXPECT_EQ(slow.dram.reads_completed, fast.dram.reads_completed);
  EXPECT_EQ(slow.dram.writes_completed, fast.dram.writes_completed);
  EXPECT_EQ(slow.dram.row_hits, fast.dram.row_hits);
  EXPECT_EQ(slow.dram.row_misses, fast.dram.row_misses);
  EXPECT_EQ(slow.dram.activates, fast.dram.activates);
  EXPECT_EQ(slow.dram.precharges, fast.dram.precharges);
  EXPECT_EQ(slow.dram.refreshes, fast.dram.refreshes);
  EXPECT_EQ(slow.dram.write_forwards, fast.dram.write_forwards);
  EXPECT_EQ(slow.dram.data_bus_busy_cycles, fast.dram.data_bus_busy_cycles);
  EXPECT_EQ(slow.dram.total_read_latency, fast.dram.total_read_latency);

  // Per-channel breakdowns must match channel by channel, not just in sum.
  ASSERT_EQ(slow.engine_per_channel.size(), fast.engine_per_channel.size());
  ASSERT_EQ(slow.dram_per_channel.size(), fast.dram_per_channel.size());
  for (std::size_t c = 0; c < slow.engine_per_channel.size(); ++c) {
    SCOPED_TRACE("channel " + std::to_string(c));
    const auto& se = slow.engine_per_channel[c];
    const auto& fe = fast.engine_per_channel[c];
    EXPECT_EQ(se.data_reads, fe.data_reads);
    EXPECT_EQ(se.data_writes, fe.data_writes);
    EXPECT_EQ(se.counter_fetches, fe.counter_fetches);
    EXPECT_EQ(se.mac_line_fetches, fe.mac_line_fetches);
    EXPECT_EQ(se.tree_node_fetches, fe.tree_node_fetches);
    EXPECT_EQ(se.meta_writebacks, fe.meta_writebacks);
    const auto& sd = slow.dram_per_channel[c];
    const auto& fd = fast.dram_per_channel[c];
    EXPECT_EQ(sd.reads_enqueued, fd.reads_enqueued);
    EXPECT_EQ(sd.writes_enqueued, fd.writes_enqueued);
    EXPECT_EQ(sd.reads_completed, fd.reads_completed);
    EXPECT_EQ(sd.writes_completed, fd.writes_completed);
    EXPECT_EQ(sd.row_hits, fd.row_hits);
    EXPECT_EQ(sd.row_misses, fd.row_misses);
    EXPECT_EQ(sd.activates, fd.activates);
    EXPECT_EQ(sd.precharges, fd.precharges);
    EXPECT_EQ(sd.refreshes, fd.refreshes);
    EXPECT_EQ(sd.data_bus_busy_cycles, fd.data_bus_busy_cycles);
    EXPECT_EQ(sd.total_read_latency, fd.total_read_latency);
  }

  // Power/thermal reports (all-default when accounting is off) are part
  // of the bit-identity contract too: energy totals, command counts, and
  // the fixed-point temperature trajectories.
  ASSERT_EQ(slow.power_per_channel.size(), fast.power_per_channel.size());
  for (std::size_t c = 0; c < slow.power_per_channel.size(); ++c) {
    SCOPED_TRACE("power channel " + std::to_string(c));
    const auto& sp = slow.power_per_channel[c];
    const auto& fp = fast.power_per_channel[c];
    EXPECT_EQ(sp.enabled, fp.enabled);
    EXPECT_EQ(sp.energy.act_fj, fp.energy.act_fj);
    EXPECT_EQ(sp.energy.pre_fj, fp.energy.pre_fj);
    EXPECT_EQ(sp.energy.rd_fj, fp.energy.rd_fj);
    EXPECT_EQ(sp.energy.wr_fj, fp.energy.wr_fj);
    EXPECT_EQ(sp.energy.ref_fj, fp.energy.ref_fj);
    EXPECT_EQ(sp.energy.background_fj, fp.energy.background_fj);
    EXPECT_EQ(sp.counts.act, fp.counts.act);
    EXPECT_EQ(sp.counts.pre, fp.counts.pre);
    EXPECT_EQ(sp.counts.rd, fp.counts.rd);
    EXPECT_EQ(sp.counts.wr, fp.counts.wr);
    EXPECT_EQ(sp.counts.ref, fp.counts.ref);
    EXPECT_EQ(sp.windows, fp.windows);
    EXPECT_EQ(sp.throttled_windows, fp.throttled_windows);
    EXPECT_EQ(sp.remap_swaps, fp.remap_swaps);
    ASSERT_EQ(sp.ranks.size(), fp.ranks.size());
    for (std::size_t r = 0; r < sp.ranks.size(); ++r) {
      EXPECT_EQ(sp.ranks[r].energy_fj, fp.ranks[r].energy_fj);
      EXPECT_EQ(sp.ranks[r].temp_mc, fp.ranks[r].temp_mc);
      EXPECT_EQ(sp.ranks[r].peak_mc, fp.ranks[r].peak_mc);
    }
  }
}

TEST(SimFastPathDeterminism, BitIdenticalAcrossSweepConfigs) {
  for (const char* wl : {"mcf", "povray", "lbm"}) {
    const auto* desc = workloads::find(wl);
    ASSERT_NE(desc, nullptr);
    for (const Variant& v : sweep_variants()) {
      SCOPED_TRACE(std::string(wl) + " / " + v.name);
      expect_identical(run_variant(*desc, v, /*event_driven=*/false),
                       run_variant(*desc, v, /*event_driven=*/true));
    }
  }
}

TEST(SimFastPathDeterminism, BitIdenticalUnderWriteDrainPressure) {
  // Small MSHR pool + small LLC + write-heavy high-MPKI traffic keeps the
  // write queue crossing the drain watermarks and the MSHRs saturated —
  // the regime that exercises the drain-flip events and the
  // blocked-issue retry replay.
  // A synthetic stress workload (random, high MPKI, write-heavy) on top
  // of the suite's worst cases.
  workloads::WorkloadDesc stress{
      "drain-stress", 120.0, 400.0, 0.5, 1ull << 30,
      workloads::Pattern::kRandom, true, 7};
  std::vector<workloads::WorkloadDesc> descs{stress, *workloads::find("lbm"),
                                             *workloads::find("mcf")};
  for (const auto& desc : descs) {
    auto run = [&](bool event_driven) {
      SystemConfig cfg;
      cfg.mem.cores = 4;
      cfg.mem.mshrs = 16;
      cfg.mem.llc_bytes = 1ull << 20;
      cfg.security = secmem::SecurityParams::encrypt_only_xts();
      cfg.data_bytes = 8ull << 30;  // four cores at 2GB trace stride
      cfg.event_driven = event_driven;
      workloads::SyntheticTrace t0(desc, 0), t1(desc, 1), t2(desc, 2),
          t3(desc, 3);
      System sys(cfg, {&t0, &t1, &t2, &t3});
      return sys.run(30000, 2'000'000'000, /*warmup=*/5000);
    };
    SCOPED_TRACE(desc.name);
    expect_identical(run(false), run(true));
  }
}

TEST(SimFastPathDeterminism, BitIdenticalWhenCycleLimitHits) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  const Variant v{"tree64", secmem::SecurityParams::baseline_tree_ctr()};
  const RunResult slow =
      run_variant(*desc, v, /*event_driven=*/false, /*max_cycles=*/3000);
  const RunResult fast =
      run_variant(*desc, v, /*event_driven=*/true, /*max_cycles=*/3000);
  ASSERT_TRUE(slow.hit_cycle_limit) << "limit chosen too high for the test";
  expect_identical(slow, fast);
}

TEST(SimFastPathDeterminism, CycleLimitDrainsAllChannels) {
  // Regression (multi-channel cycle-limit path): when the limit fires,
  // every channel must have been ticked up to the limit cycle — no
  // completion may be stranded in a non-ticked channel — and both loops
  // must agree on the truncated state, channel by channel.
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  Variant v{"secddr_ctr_2ch", secmem::SecurityParams::secddr_ctr()};
  v.channels = 2;
  const RunResult slow =
      run_variant(*desc, v, /*event_driven=*/false, /*max_cycles=*/3000);
  const RunResult fast =
      run_variant(*desc, v, /*event_driven=*/true, /*max_cycles=*/3000);
  ASSERT_TRUE(slow.hit_cycle_limit) << "limit chosen too high for the test";
  ASSERT_EQ(slow.dram_per_channel.size(), 2u);
  expect_identical(slow, fast);
  // Both channels saw traffic before the limit (line interleave spreads
  // consecutive lines), so a stranded channel would show up as enqueued
  // but never-completed work on exactly one side.
  for (const auto& d : fast.dram_per_channel)
    EXPECT_GT(d.reads_enqueued, 0u);
}

TEST(SimFastPathDeterminism, HitCycleLimitAggregatesAcrossPhases) {
  // A warmup phase that runs into max_cycles must be reported even when
  // the measured phase finishes under the limit: the result covers fewer
  // warmup instructions than requested.
  const auto* desc = workloads::find("povray");
  ASSERT_NE(desc, nullptr);
  SystemConfig cfg;
  cfg.mem.cores = 2;
  cfg.security = secmem::SecurityParams::encrypt_only_xts();
  cfg.data_bytes = 4ull << 30;
  workloads::SyntheticTrace t0(*desc, 0), t1(*desc, 1);
  System sys(cfg, {&t0, &t1});
  // povray needs ~45000 cycles for 20000 warmup instructions per core, so
  // a 40000-cycle limit truncates the warmup; the measured phase
  // (remaining budget + 100, fresh cycle counter, warm caches) then
  // finishes in ~5000 cycles — well under its own limit.
  const RunResult r = sys.run(100, /*max_cycles=*/40000,
                              /*warmup_instructions=*/20000);
  EXPECT_LT(r.cycles, 40000u) << "measured phase unexpectedly hit the limit "
                                 "— warmup aggregation is untested";
  EXPECT_TRUE(r.hit_cycle_limit) << "warmup hit the limit but was not "
                                    "reported";
}

TEST(SimFastPathDeterminism, Fig6SweepBitIdenticalAcrossLoops) {
  // Every suite workload x the five fig6 configurations, at 1 and 2
  // channels: the event-driven loop's encoded RunResult (every stat,
  // per-channel breakdowns and power reports included) must equal the
  // per-cycle loop's byte for byte.
  const std::vector<secmem::SecurityParams> configs = {
      secmem::SecurityParams::baseline_tree_ctr(),
      secmem::SecurityParams::secddr_ctr(),
      secmem::SecurityParams::encrypt_only_ctr(),
      secmem::SecurityParams::secddr_xts(),
      secmem::SecurityParams::encrypt_only_xts(),
  };
  for (const unsigned channels : {1u, 2u}) {
    bench::BenchOptions opt;
    opt.instructions = 2000;
    opt.warmup = 500;
    opt.cores = 2;
    opt.channels = channels;
    const auto points = bench::cross_sweep(workloads::suite(), configs, opt);
    ASSERT_EQ(points.size(), workloads::suite().size() * configs.size());
    const auto encoded = bench::sweep_map(points.size(), [&](std::size_t i) {
      std::array<std::vector<std::uint8_t>, 2> out;  // [per-cycle, event]
      for (const bool event_driven : {false, true}) {
        const auto traces =
            bench::make_trace_sources(points[i].workload, opt.cores);
        std::vector<TraceSource*> ptrs;
        for (const auto& t : traces) ptrs.push_back(t.get());
        SystemConfig cfg = bench::make_system_config(
            opt, points[i].security, points[i].timings);
        cfg.event_driven = event_driven;
        System sys(cfg, ptrs);
        out[event_driven] = fleet::checkpoint::encode_result(
            sys.run(opt.instructions, 4'000'000'000ull, opt.warmup));
      }
      return out;
    });
    for (std::size_t i = 0; i < points.size(); ++i)
      EXPECT_EQ(encoded[i][0], encoded[i][1])
          << points[i].workload.name << " / " << points[i].security.name
          << " / " << channels << "ch";
  }
}

// Golden pre-backend results: the multi-channel MemoryBackend refactor
// must leave channels=1 runs bit-identical to the single-channel pipeline
// it replaced. These numbers were captured from the tree at the commit
// before the backend existed (event-driven loop, which the determinism
// tests above tie to the per-cycle loop). All-integer fields only, so
// they are exact on any platform.
TEST(SimFastPathDeterminism, Channels1MatchesPreBackendGolden) {
  struct Golden {
    const char* workload;
    secmem::SecurityParams security;
    std::uint64_t cycles, llc_misses, data_reads, counter_fetches,
        tree_node_fetches, reads_enqueued, reads_completed, row_hits,
        row_misses, activates, precharges, refreshes, data_bus_busy_cycles,
        total_read_latency, metadata_accesses, core0_cycles,
        core0_load_stalls, core1_cycles, core1_load_stalls;
  };
  const std::vector<Golden> goldens = {
      {"mcf", secmem::SecurityParams::secddr_ctr(), 18817, 1100, 1106, 855,
       0, 1961, 1961, 171, 1790, 2094, 2094, 2, 7844, 567909, 1106, 18818,
       18352, 18714, 18251},
      {"lbm", secmem::SecurityParams::baseline_tree_ctr(), 11876, 523, 761,
       11, 21, 793, 793, 737, 56, 62, 68, 2, 3172, 193221, 982, 11877,
       11409, 9214, 8743},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.workload);
    Variant v{"golden", g.security};
    v.channels = 1;  // golden numbers are channels=1 by definition
    const auto* desc = workloads::find(g.workload);
    ASSERT_NE(desc, nullptr);
    const RunResult r = run_variant(*desc, v, /*event_driven=*/true);
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.mem.llc_demand_misses, g.llc_misses);
    EXPECT_EQ(r.engine.data_reads, g.data_reads);
    EXPECT_EQ(r.engine.counter_fetches, g.counter_fetches);
    EXPECT_EQ(r.engine.tree_node_fetches, g.tree_node_fetches);
    EXPECT_EQ(r.dram.reads_enqueued, g.reads_enqueued);
    EXPECT_EQ(r.dram.reads_completed, g.reads_completed);
    EXPECT_EQ(r.dram.row_hits, g.row_hits);
    EXPECT_EQ(r.dram.row_misses, g.row_misses);
    EXPECT_EQ(r.dram.activates, g.activates);
    EXPECT_EQ(r.dram.precharges, g.precharges);
    EXPECT_EQ(r.dram.refreshes, g.refreshes);
    EXPECT_EQ(r.dram.data_bus_busy_cycles, g.data_bus_busy_cycles);
    EXPECT_EQ(r.dram.total_read_latency, g.total_read_latency);
    EXPECT_EQ(r.metadata_accesses, g.metadata_accesses);
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_EQ(r.cores[0].cycles, g.core0_cycles);
    EXPECT_EQ(r.cores[0].load_stall_cycles, g.core0_load_stalls);
    EXPECT_EQ(r.cores[1].cycles, g.core1_cycles);
    EXPECT_EQ(r.cores[1].load_stall_cycles, g.core1_load_stalls);
    // The aggregate equals the sole channel's breakdown.
    ASSERT_EQ(r.dram_per_channel.size(), 1u);
    EXPECT_EQ(r.dram_per_channel[0].reads_completed, g.reads_completed);
  }
}

// Golden results captured at the PR 3 commit (global-deque controller,
// serial backend): the per-bank request queues must reproduce them bit
// for bit, single- and multi-channel, both channel-bit positions, and at
// the saturated 4-core configuration.
// All-integer fields only, so they are exact on any platform.
TEST(SimFastPathDeterminism, PerBankQueuesMatchPr3Golden) {
  struct Golden {
    const char* workload;
    secmem::SecurityParams security;
    unsigned channels;
    dram::ChannelInterleave interleave;
    unsigned cores;
    std::uint64_t cycles, llc_misses, data_reads, counter_fetches,
        tree_node_fetches, reads_enqueued, reads_completed, writes_completed,
        row_hits, row_misses, activates, precharges, refreshes,
        data_bus_busy_cycles, total_read_latency, metadata_accesses,
        core0_cycles, core0_load_stalls;
  };
  const std::vector<Golden> goldens = {
      {"mcf", secmem::SecurityParams::secddr_ctr(), 2,
       dram::ChannelInterleave::kLine, 2, 12145, 1099, 1106, 856, 0, 1962,
       1962, 0, 153, 1809, 1941, 1941, 2, 7848, 359277, 1106, 11442, 10973},
      {"lbm", secmem::SecurityParams::baseline_tree_ctr(), 4,
       dram::ChannelInterleave::kRow, 2, 7642, 547, 759, 11, 22, 792, 792, 0,
       752, 40, 41, 37, 4, 3168, 136303, 921, 7643, 7172},
      {"mcf", secmem::SecurityParams::secddr_ctr(), 1,
       dram::ChannelInterleave::kLine, 4, 38230, 2257, 2280, 1741, 0, 4021,
       4021, 0, 359, 3662, 4364, 4364, 3, 16084, 1207386, 2280, 23249,
       22789},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(g.workload) + "/" +
                 std::to_string(g.channels) + "ch/" +
                 std::to_string(g.cores) + "cores");
    SystemConfig cfg;
    cfg.mem.cores = g.cores;
    cfg.security = g.security;
    cfg.geometry.channels = g.channels;
    cfg.geometry.channel_interleave = g.interleave;
    cfg.data_bytes = static_cast<std::uint64_t>(g.cores) * (2ull << 30);
    std::vector<std::unique_ptr<workloads::SyntheticTrace>> traces;
    std::vector<TraceSource*> ptrs;
    const auto* desc = workloads::find(g.workload);
    ASSERT_NE(desc, nullptr);
    for (unsigned i = 0; i < g.cores; ++i) {
      traces.push_back(std::make_unique<workloads::SyntheticTrace>(*desc, i));
      ptrs.push_back(traces.back().get());
    }
    System sys(cfg, ptrs);
    const RunResult r = sys.run(3000, 2'000'000'000, /*warmup=*/800);
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.mem.llc_demand_misses, g.llc_misses);
    EXPECT_EQ(r.engine.data_reads, g.data_reads);
    EXPECT_EQ(r.engine.counter_fetches, g.counter_fetches);
    EXPECT_EQ(r.engine.tree_node_fetches, g.tree_node_fetches);
    EXPECT_EQ(r.dram.reads_enqueued, g.reads_enqueued);
    EXPECT_EQ(r.dram.reads_completed, g.reads_completed);
    EXPECT_EQ(r.dram.writes_completed, g.writes_completed);
    EXPECT_EQ(r.dram.row_hits, g.row_hits);
    EXPECT_EQ(r.dram.row_misses, g.row_misses);
    EXPECT_EQ(r.dram.activates, g.activates);
    EXPECT_EQ(r.dram.precharges, g.precharges);
    EXPECT_EQ(r.dram.refreshes, g.refreshes);
    EXPECT_EQ(r.dram.data_bus_busy_cycles, g.data_bus_busy_cycles);
    EXPECT_EQ(r.dram.total_read_latency, g.total_read_latency);
    EXPECT_EQ(r.metadata_accesses, g.metadata_accesses);
    ASSERT_GE(r.cores.size(), 1u);
    EXPECT_EQ(r.cores[0].cycles, g.core0_cycles);
    EXPECT_EQ(r.cores[0].load_stall_cycles, g.core0_load_stalls);
  }
}

TEST(SimFastPathDeterminism, EpochDecoupledBitIdentical) {
  // The epoch-decoupled fast path (bounded-lookahead windows, channels
  // run ahead on local clocks, fills drained at epoch boundaries) against
  // the per-cycle serial reference, under memory pressure that keeps
  // every window-bound ingredient live: in-flight reads, queued reads
  // behind write drains, write forwarding, deferred issues, and matured
  // completion flags. The event-driven run must reproduce the reference
  // exactly — including the per-channel stat breakdowns expect_identical
  // covers.
  workloads::WorkloadDesc stress{
      "epoch-stress", 120.0, 400.0, 0.5, 1ull << 30,
      workloads::Pattern::kRandom, true, 11};
  std::vector<workloads::WorkloadDesc> descs{stress, *workloads::find("mcf")};
  for (const auto& desc : descs) {
    auto run = [&](bool event_driven) {
      SystemConfig cfg;
      cfg.mem.cores = 4;
      cfg.mem.mshrs = 16;
      cfg.mem.llc_bytes = 1ull << 20;
      cfg.security = secmem::SecurityParams::secddr_ctr();
      cfg.geometry.channels = 4;
      cfg.data_bytes = 8ull << 30;  // four cores at 2GB trace stride
      cfg.event_driven = event_driven;
      workloads::SyntheticTrace t0(desc, 0), t1(desc, 1), t2(desc, 2),
          t3(desc, 3);
      System sys(cfg, {&t0, &t1, &t2, &t3});
      return sys.run(20000, 2'000'000'000, /*warmup=*/4000);
    };
    SCOPED_TRACE(desc.name);
    expect_identical(run(/*event_driven=*/false),
                     run(/*event_driven=*/true));
  }
}

// Event-driven core fast-path for compute phases: a workload whose
// non-memory batches dwarf the ROB exercises the closed-form bulk
// retirement (compute_replayable_ticks / advance_compute). The fast loop
// must replay fetch + retirement math exactly — instructions, cycles,
// per-core stats — across the budget boundary between warmup and the
// measured phase.
TEST(SimFastPathDeterminism, BitIdenticalOnComputePhases) {
  // ~1 memory instruction per 2000 instructions and near-zero MPKI: the
  // ROB spends nearly all its time holding one giant batch, which is the
  // pure-compute state the closed form replays.
  const workloads::WorkloadDesc compute_heavy{
      "compute-heavy", 0.05, 0.5, 0.2, 64ull << 20,
      workloads::Pattern::kMixed, false, 11};
  const workloads::WorkloadDesc compute_pure{
      "compute-pure", 0.01, 0.1, 0.0, 16ull << 20,
      workloads::Pattern::kStreaming, false, 12};
  for (const auto& desc : {compute_heavy, compute_pure}) {
    SCOPED_TRACE(desc.name);
    const Variant v{"secddr_ctr", secmem::SecurityParams::secddr_ctr()};
    const RunResult slow = run_variant(desc, v, /*event_driven=*/false);
    const RunResult fast = run_variant(desc, v, /*event_driven=*/true);
    expect_identical(slow, fast);
    // The fast loop must actually have exercised the bulk-retire path:
    // with ~2000-instruction batches and a 224-entry ROB the run is
    // compute-dominated, so instructions vastly outnumber memory ops.
    ASSERT_GT(fast.cores[0].instructions, 1000u);
  }
}

}  // namespace
}  // namespace secddr::sim
