// DRAM substrate: timing presets, address mapping, bank state machine,
// and controller scheduling properties under randomized request streams.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/controller.h"
#include "dram/system.h"
#include "dram/timings.h"

namespace secddr::dram {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.ranks = 2;
  g.bank_groups = 4;
  g.banks_per_group = 4;
  g.rows_per_bank = 1 << 10;
  g.columns_per_row = 128;
  return g;
}

// ---------------------------------------------------------------- timings

TEST(Timings, Table1Defaults) {
  const Timings t = Timings::ddr4_3200();
  EXPECT_EQ(t.tCL, 22u);
  EXPECT_EQ(t.tRCD, 22u);
  EXPECT_EQ(t.tRP, 22u);
  EXPECT_EQ(t.tRAS, 56u);
  EXPECT_EQ(t.tCCD_S, 4u);
  EXPECT_EQ(t.tCCD_L, 10u);
  EXPECT_EQ(t.tCWL, 16u);
  EXPECT_EQ(t.tWTR_S, 4u);
  EXPECT_EQ(t.tWTR_L, 12u);
  EXPECT_DOUBLE_EQ(t.clock_mhz, 1600.0);
}

TEST(Timings, EwcrcExtendsWriteBurstOnly) {
  const Timings base = Timings::ddr4_3200();
  const Timings e = base.with_ewcrc_burst();
  EXPECT_EQ(e.write_burst_cycles, base.write_burst_cycles + 1);  // BL8->BL10
  EXPECT_EQ(e.read_burst_cycles, base.read_burst_cycles);
  EXPECT_EQ(e.tCL, base.tCL);
}

TEST(Timings, Ddr42400KeepsWallClockLatency) {
  const Timings full = Timings::ddr4_3200();
  const Timings derated = Timings::ddr4_2400();
  EXPECT_DOUBLE_EQ(derated.clock_mhz, 1200.0);
  // Same (or slightly larger, due to ceil) nanosecond latency.
  const double full_ns = full.tCL * full.ns_per_cycle();
  const double derated_ns = derated.tCL * derated.ns_per_cycle();
  EXPECT_GE(derated_ns, full_ns - 1e-9);
  EXPECT_LE(derated_ns, full_ns + derated.ns_per_cycle());
}

TEST(Timings, GeometryCapacity) {
  Geometry g;  // 2 ranks x 16 banks x 64K rows x 128 cols x 64B = 16GB
  EXPECT_EQ(g.capacity_bytes(), 16ull << 30);
  EXPECT_EQ(g.total_banks(), 32u);
}

// ---------------------------------------------------------------- address

TEST(AddressMapping, DecodeEncodeRoundTrip) {
  const Geometry g = small_geometry();
  const AddressMapping m(g, /*xor_banks=*/true);
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const Addr a = line_base(rng.next() % g.capacity_bytes());
    const DecodedAddr d = m.decode(a);
    EXPECT_LT(d.rank, g.ranks);
    EXPECT_LT(d.bank_group, g.bank_groups);
    EXPECT_LT(d.bank, g.banks_per_group);
    EXPECT_LT(d.row, g.rows_per_bank);
    EXPECT_LT(d.column, g.columns_per_row);
    EXPECT_EQ(m.encode(d), a);
  }
}

TEST(AddressMapping, RejectsNonPowerOfTwoGeometryInEveryBuild) {
  EXPECT_NO_THROW(AddressMapping{small_geometry()});
  for (int dim = 0; dim < 5; ++dim) {
    SCOPED_TRACE("dimension " + std::to_string(dim));
    Geometry g = small_geometry();
    switch (dim) {
      case 0: g.columns_per_row = 96; break;
      case 1: g.bank_groups = 3; break;
      case 2: g.banks_per_group = 0; break;
      case 3: g.ranks = 3; break;
      default: g.rows_per_bank = 1000; break;
    }
    EXPECT_THROW(AddressMapping{g}, std::invalid_argument);
  }
}

TEST(AddressMapping, SequentialLinesShareRow) {
  const Geometry g = small_geometry();
  const AddressMapping m(g, true);
  const DecodedAddr d0 = m.decode(0);
  const DecodedAddr d1 = m.decode(64);
  EXPECT_EQ(d0.row, d1.row);
  EXPECT_EQ(d0.flat_bank(g), d1.flat_bank(g));
  EXPECT_EQ(d0.column + 1, d1.column);
}

TEST(AddressMapping, XorSpreadsConflictStreams) {
  // Addresses that differ only in row bits should not all land in the
  // same bank when XOR permutation is on.
  const Geometry g = small_geometry();
  const AddressMapping m(g, true);
  std::set<unsigned> banks;
  const Addr row_stride = static_cast<Addr>(g.columns_per_row) * kLineSize *
                          g.bank_groups * g.banks_per_group * g.ranks;
  for (Addr r = 0; r < 16; ++r)
    banks.insert(m.decode(r * row_stride).flat_bank(g));
  EXPECT_GT(banks.size(), 4u);
}

// ---------------------------------------------------------------- bank

TEST(Bank, ActivateOpensRowAndSetsTimings) {
  Bank b;
  EXPECT_FALSE(b.is_open());
  b.activate(42, 100, 22, 56);
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.open_row, 42);
  EXPECT_EQ(b.next_read, 122u);
  EXPECT_EQ(b.next_precharge, 156u);
  b.precharge(200, 22);
  EXPECT_FALSE(b.is_open());
  EXPECT_EQ(b.next_activate, 222u);
}

// ---------------------------------------------------------------- controller

struct Harness {
  Geometry g = small_geometry();
  Timings t = Timings::ddr4_3200();
  Controller c{g, t};
  Cycle now = 0;
  std::map<std::uint64_t, Completion> done;

  void run_until_drained(Cycle limit = 2'000'000) {
    while (c.pending() > 0 && now < limit) {
      c.tick(now);
      for (const auto& comp : c.completions()) done[comp.tag] = comp;
      c.completions().clear();
      ++now;
    }
  }
};

TEST(Controller, SingleReadCompletesWithActRcdClBl) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x1000, false, 1, 0));
  h.run_until_drained();
  ASSERT_TRUE(h.done.count(1));
  // Cold read: ACT @1? (tick0 issues ACT) + tRCD + tCL + BL.
  const Cycle latency = h.done[1].finish - h.done[1].arrival;
  EXPECT_GE(latency, static_cast<Cycle>(h.t.tRCD + h.t.tCL +
                                        h.t.read_burst_cycles));
  EXPECT_LE(latency, static_cast<Cycle>(h.t.tRCD + h.t.tCL +
                                        h.t.read_burst_cycles + 4));
}

TEST(Controller, RowHitFasterThanRowMiss) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x0, false, 1, 0));
  h.run_until_drained();
  const Cycle cold = h.done[1].finish - h.done[1].arrival;
  // Same row again: hit.
  const Cycle t0 = h.now;
  ASSERT_TRUE(h.c.enqueue(64, false, 2, t0));
  h.run_until_drained();
  const Cycle hit = h.done[2].finish - h.done[2].arrival;
  EXPECT_LT(hit, cold);
  EXPECT_GE(hit, static_cast<Cycle>(h.t.tCL + h.t.read_burst_cycles));
}

TEST(Controller, AllRequestsEventuallyComplete) {
  Harness h;
  Xoshiro256 rng(7);
  std::uint64_t tag = 0;
  unsigned enqueued = 0;
  for (Cycle cyc = 0; cyc < 100000 && enqueued < 3000; ++cyc) {
    if (rng.chance(0.25)) {
      const Addr a = line_base(rng.next() % h.g.capacity_bytes());
      const bool w = rng.chance(0.3);
      if ((w && h.c.can_accept_write()) || (!w && h.c.can_accept_read())) {
        ASSERT_TRUE(h.c.enqueue(a, w, ++tag, cyc));
        ++enqueued;
      }
    }
    h.c.tick(cyc);
    for (const auto& comp : h.c.completions()) h.done[comp.tag] = comp;
    h.c.completions().clear();
    h.now = cyc + 1;
  }
  h.run_until_drained();
  EXPECT_EQ(h.c.pending(), 0u);
  EXPECT_EQ(h.c.stats().reads_completed + h.c.stats().writes_completed,
            enqueued);
}

TEST(Controller, ReadLatencyBoundedUnderLoad) {
  // Even under saturation no read should exceed a generous bound
  // (queue depth x worst-case service time) — catches starvation bugs.
  Harness h;
  Xoshiro256 rng(11);
  std::uint64_t tag = 0;
  for (Cycle cyc = 0; cyc < 50000; ++cyc) {
    if (h.c.can_accept_read() && rng.chance(0.5)) {
      const Addr a = line_base(rng.next() % h.g.capacity_bytes());
      h.c.enqueue(a, false, ++tag, cyc);
    }
    h.c.tick(cyc);
    for (const auto& comp : h.c.completions()) {
      EXPECT_LT(comp.finish - comp.arrival, 20000u)
          << "read starved: tag " << comp.tag;
    }
    h.c.completions().clear();
    h.now = cyc + 1;
  }
}

TEST(Controller, WriteForwardingServesReadsFromWriteQueue) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x4000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x4000, false, 2, 0));  // same line read
  h.run_until_drained();
  EXPECT_GE(h.c.stats().write_forwards, 1u);
  ASSERT_TRUE(h.done.count(2));
  // Forwarded read is fast (no DRAM access).
  EXPECT_LE(h.done[2].finish - h.done[2].arrival, h.t.tCL + 1);
}

TEST(Controller, WriteMergingCoalescesSameLine) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 2, 0));
  h.run_until_drained();
  EXPECT_EQ(h.c.stats().writes_enqueued, 2u);
  // Only one write burst hits the bus.
  EXPECT_EQ(h.c.stats().writes_completed, 2u);
  EXPECT_LE(h.c.stats().data_bus_busy_cycles,
            static_cast<std::uint64_t>(h.t.write_burst_cycles));
}

TEST(Controller, WriteMergeCompletesEachTagExactlyOnce) {
  // Three writes to one line merge into a single queue entry. Each
  // logical write must be counted and completed exactly once: the
  // superseded writes at merge time, the survivor when it issues.
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 2, 0));
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 3, 0));
  std::map<std::uint64_t, unsigned> completions_per_tag;
  Cycle cyc = 0;
  while ((h.c.pending() > 0 || cyc == 0) && cyc < 100000) {
    h.c.tick(cyc);
    for (const auto& comp : h.c.completions()) {
      EXPECT_TRUE(comp.is_write);
      ++completions_per_tag[comp.tag];
    }
    h.c.completions().clear();
    ++cyc;
  }
  EXPECT_EQ(completions_per_tag[1], 1u);
  EXPECT_EQ(completions_per_tag[2], 1u);
  EXPECT_EQ(completions_per_tag[3], 1u);
  EXPECT_EQ(h.c.stats().writes_enqueued, 3u);
  EXPECT_EQ(h.c.stats().writes_completed, 3u);
  // Only the surviving entry touches the bus.
  EXPECT_EQ(h.c.stats().data_bus_busy_cycles,
            static_cast<std::uint64_t>(h.t.write_burst_cycles));
}

TEST(Controller, ForwardedReadsAreNotCountedAsEnqueued) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x4000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x4000, false, 2, 0));  // forwarded
  EXPECT_EQ(h.c.stats().reads_enqueued, 0u)
      << "a forwarded read never enters the read queue";
  EXPECT_EQ(h.c.stats().write_forwards, 1u);
  EXPECT_EQ(h.c.stats().reads_completed, 1u);
  // A read that actually queues still counts.
  ASSERT_TRUE(h.c.enqueue(0x20000, false, 3, 0));
  EXPECT_EQ(h.c.stats().reads_enqueued, 1u);
  h.run_until_drained();
  EXPECT_EQ(h.c.stats().reads_completed, 2u);
}

TEST(Controller, NextEventCycleNeverMissesAStateChange) {
  // Property behind the event-driven loop: whenever next_event_cycle()
  // says "nothing before cycle N", every tick strictly before N must
  // leave all statistics unchanged and produce no completions.
  Harness h;
  Xoshiro256 rng(17);
  std::uint64_t tag = 0;
  const auto snapshot = [&] {
    const ControllerStats& s = h.c.stats();
    return std::make_tuple(s.reads_enqueued, s.writes_enqueued,
                           s.reads_completed, s.writes_completed, s.row_hits,
                           s.row_misses, s.activates, s.precharges,
                           s.refreshes, s.write_forwards,
                           s.data_bus_busy_cycles, s.total_read_latency,
                           h.c.pending());
  };
  for (Cycle cyc = 0; cyc < 30000; ++cyc) {
    if (rng.chance(0.05)) {
      const Addr a = line_base(rng.next() % h.g.capacity_bytes());
      const bool w = rng.chance(0.4);
      if ((w && h.c.can_accept_write()) || (!w && h.c.can_accept_read()))
        h.c.enqueue(a, w, ++tag, cyc);
      h.c.completions().clear();  // enqueue may forward/merge-complete
    }
    const Cycle next_event = h.c.next_event_cycle(cyc);
    const auto before = snapshot();
    h.c.tick(cyc);
    if (next_event > cyc) {
      EXPECT_EQ(before, snapshot()) << "state changed at " << cyc
                                    << " despite next event " << next_event;
      EXPECT_TRUE(h.c.completions().empty());
    }
    h.c.completions().clear();
  }
}

TEST(Controller, RefreshesHappenAtTrefiRate) {
  Harness h;
  const Cycle horizon = static_cast<Cycle>(h.t.tREFI) * 10;
  for (Cycle cyc = 0; cyc < horizon; ++cyc) {
    h.c.tick(cyc);
    h.c.completions().clear();
  }
  // ~10 refreshes per rank expected (staggered start).
  EXPECT_GE(h.c.stats().refreshes, 8u * h.g.ranks);
  EXPECT_LE(h.c.stats().refreshes, 12u * h.g.ranks);
}

TEST(Controller, RowHitRateHighForSequentialStream) {
  Harness h;
  std::uint64_t tag = 0;
  Cycle cyc = 0;
  // Stream through one row: 128 sequential lines.
  for (unsigned i = 0; i < 128; ++i) {
    while (!h.c.can_accept_read()) {
      h.c.tick(cyc);
      h.c.completions().clear();
      ++cyc;
    }
    h.c.enqueue(i * 64, false, ++tag, cyc);
  }
  h.now = cyc;
  h.run_until_drained();
  EXPECT_GT(h.c.stats().row_hit_rate(), 0.9);
}

TEST(Controller, RandomStreamHasLowerRowHitRate) {
  Harness h;
  Xoshiro256 rng(13);
  std::uint64_t tag = 0;
  Cycle cyc = 0;
  for (unsigned i = 0; i < 512; ++i) {
    while (!h.c.can_accept_read()) {
      h.c.tick(cyc);
      h.c.completions().clear();
      ++cyc;
    }
    h.c.enqueue(line_base(rng.next() % h.g.capacity_bytes()), false, ++tag,
                cyc);
  }
  h.now = cyc;
  h.run_until_drained();
  EXPECT_LT(h.c.stats().row_hit_rate(), 0.5);
}

TEST(Controller, QueueFullRejects) {
  Harness h;
  unsigned accepted = 0;
  for (unsigned i = 0; i < 200; ++i)
    accepted += h.c.enqueue(i * 64 * 131, false, i, 0);  // distinct rows
  EXPECT_EQ(accepted, 64u);  // Table I read queue size
}

TEST(Controller, LongerWriteBurstIncreasesBusBusy) {
  // The eWCRC cost: same writes, BL10 occupies 25% more bus cycles.
  auto run_writes = [](const Timings& t) {
    Geometry g = small_geometry();
    Controller c(g, t);
    std::uint64_t tag = 0;
    Cycle cyc = 0;
    for (unsigned i = 0; i < 256; ++i) {
      while (!c.can_accept_write()) {
        c.tick(cyc);
        c.completions().clear();
        ++cyc;
      }
      c.enqueue(i * 64 * 257, true, ++tag, cyc);
    }
    while (c.pending() > 0 && cyc < 1000000) {
      c.tick(cyc);
      c.completions().clear();
      ++cyc;
    }
    return c.stats().data_bus_busy_cycles;
  };
  const auto bl8 = run_writes(Timings::ddr4_3200());
  const auto bl10 = run_writes(Timings::ddr4_3200().with_ewcrc_burst());
  EXPECT_EQ(bl10, bl8 / 4 * 5);  // 4 -> 5 cycles per write burst
}

// Property + regression: the per-bank request queues must preserve exact
// FR-FCFS semantics — scheduling order, arrival-order (seq) tie-breaking,
// write merging/forwarding, and can_accept_read/write backpressure —
// under randomized address streams. Each stream's full observable
// behaviour (every Completion field in drain order, final stats, and the
// drain time, which depends on backpressure) is folded into an FNV-1a
// hash and compared against hashes captured at the PR 3 commit, whose
// controller still scanned global arrival-ordered deques. Any
// reordering, timing drift, or backpressure change perturbs the hash.
TEST(Controller, PerBankQueuesMatchPr3GoldenStreams) {
  struct Lcg {
    std::uint64_t s;
    std::uint64_t next() {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return s >> 11;
    }
  };
  struct StreamCfg {
    const char* name;
    std::uint64_t seed;
    SchedulingPolicy policy;
    unsigned space_bits;  ///< address space spans 1<<bits lines
    unsigned write_pct;   ///< % of requests that are writes
    unsigned burst;       ///< max enqueue attempts per cycle
    unsigned cycles;      ///< driven cycles before the drain phase
    std::uint64_t golden; ///< hash captured at the PR 3 commit
  };
  const std::vector<StreamCfg> streams = {
      {"frfcfs_mixed", 1, SchedulingPolicy::kFrFcfs, 14, 30, 2, 30000,
       0xb33ca9850041babaull},
      {"frfcfs_hot", 2, SchedulingPolicy::kFrFcfs, 6, 30, 3, 30000,
       0x5359aa359ad4651bull},
      {"frfcfs_writeheavy", 3, SchedulingPolicy::kFrFcfs, 12, 70, 3, 30000,
       0x1f6fd8ad5d0b7033ull},
      {"frfcfs_sparse", 4, SchedulingPolicy::kFrFcfs, 20, 20, 1, 30000,
       0x5b10ffc69c3d3518ull},
      {"fcfs_mixed", 5, SchedulingPolicy::kFcfs, 14, 30, 2, 30000,
       0xa9b94dacf4f85fc7ull},
      {"fcfs_hot", 6, SchedulingPolicy::kFcfs, 6, 50, 3, 30000,
       0x1cbd3468f788fdebull},
  };
  for (const StreamCfg& cfg : streams) {
    SCOPED_TRACE(cfg.name);
    Geometry g;  // default (full Table I) geometry, as captured
    Controller ctrl(g, Timings::ddr4_3200(), 64, 64, cfg.policy);
    Lcg rng{cfg.seed};
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    const auto mix = [&](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    std::uint64_t tag = 0;
    const std::uint64_t space = (1ull << cfg.space_bits) * 64ull;
    Cycle now = 0;
    const auto drive = [&](bool inject) {
      if (inject) {
        const unsigned n = static_cast<unsigned>(rng.next() % (cfg.burst + 1));
        for (unsigned i = 0; i < n; ++i) {
          const bool is_write = rng.next() % 100 < cfg.write_pct;
          const Addr addr = (rng.next() % space) & ~Addr{63};
          if (is_write ? ctrl.can_accept_write() : ctrl.can_accept_read())
            ctrl.enqueue(addr, is_write, tag++, now);
        }
      }
      ctrl.tick(now);
      for (const auto& done : ctrl.completions()) {
        mix(done.tag);
        mix(done.addr);
        mix(done.is_write ? 1 : 0);
        mix(done.arrival);
        mix(done.finish);
      }
      ctrl.completions().clear();
      ++now;
    };
    for (Cycle i = 0; i < cfg.cycles; ++i) drive(true);
    while (ctrl.pending() > 0 && now < cfg.cycles + 200000) drive(false);
    const auto& s = ctrl.stats();
    mix(s.reads_enqueued);
    mix(s.writes_enqueued);
    mix(s.reads_completed);
    mix(s.writes_completed);
    mix(s.row_hits);
    mix(s.row_misses);
    mix(s.activates);
    mix(s.precharges);
    mix(s.refreshes);
    mix(s.write_forwards);
    mix(s.data_bus_busy_cycles);
    mix(s.total_read_latency);
    mix(now);
    EXPECT_EQ(h, cfg.golden) << "per-bank queues diverged from the PR 3 "
                                "global-deque controller on this stream";
    EXPECT_EQ(ctrl.pending(), 0u) << "stream failed to drain";
  }
}

// ---------------------------------------------------------------- system

TEST(DramSystem, ClockDomainRatioExact) {
  // 3200MHz core, 1600MHz memory: exactly 1 memory tick per 2 core ticks.
  DramSystem sys(small_geometry(), Timings::ddr4_3200(), 3200.0);
  for (int i = 0; i < 1000; ++i) sys.tick_core_cycle();
  EXPECT_EQ(sys.memory_cycle(), 500u);
  // 1200MHz memory: 3 per 8.
  DramSystem sys2(small_geometry(), Timings::ddr4_2400(), 3200.0);
  for (int i = 0; i < 8000; ++i) sys2.tick_core_cycle();
  EXPECT_EQ(sys2.memory_cycle(), 3000u);
}

TEST(DramSystem, CompletionsArriveInCoreCycles) {
  DramSystem sys(small_geometry(), Timings::ddr4_3200(), 3200.0);
  ASSERT_TRUE(sys.enqueue(0x1000, false, 77));
  std::vector<Completion> got;
  for (int i = 0; i < 10000 && got.empty(); ++i) {
    sys.tick_core_cycle();
    auto v = sys.drain_completions();
    got.insert(got.end(), v.begin(), v.end());
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].tag, 77u);
  // Roughly 2x the memory-cycle latency in core cycles.
  EXPECT_GT(got[0].finish, 2u * (22 + 22));
  EXPECT_LT(got[0].finish, 400u);
}

}  // namespace
}  // namespace secddr::dram
