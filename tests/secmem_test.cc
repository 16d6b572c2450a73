// Secure-memory timing models: metadata layout, metadata cache, and the
// per-configuration traffic/latency semantics of the SecurityEngine.
#include <gtest/gtest.h>

#include <stdexcept>

#include "dram/system.h"
#include "secmem/layout.h"
#include "secmem/metadata_cache.h"
#include "secmem/model.h"
#include "secmem/params.h"

namespace secddr::secmem {
namespace {

constexpr std::uint64_t kDataBytes = 1ull << 30;  // 1GB data region

dram::Geometry small_geometry() {
  dram::Geometry g;
  g.rows_per_bank = 1 << 14;  // 4GB capacity: room for metadata
  return g;
}

// Harness: engine + DRAM, driven in core cycles.
struct Rig {
  explicit Rig(SecurityParams p)
      : params(std::move(p)),
        layout(params, kDataBytes),
        dram(small_geometry(),
             params.ewcrc ? dram::Timings::ddr4_3200().with_ewcrc_burst()
                          : dram::Timings::ddr4_3200(),
             3200.0),
        engine(params, layout, dram) {}

  // Runs until all outstanding work drains; returns ready reads.
  std::vector<ReadReady> drain(Cycle limit = 1'000'000) {
    std::vector<ReadReady> out;
    while (engine.outstanding() > 0 && now < limit) {
      ++now;
      dram.tick_core_cycle();
      engine.tick(now);
      for (const auto& r : engine.ready()) out.push_back(r);
      engine.ready().clear();
    }
    return out;
  }

  SecurityParams params;
  MetadataLayout layout;
  dram::DramSystem dram;
  SecurityEngine engine;
  Cycle now = 0;
};

// ---------------------------------------------------------------- params

TEST(Params, NamedConfigsAreDistinct) {
  EXPECT_EQ(SecurityParams::baseline_tree_ctr().rap, Rap::kIntegrityTree);
  EXPECT_EQ(SecurityParams::secddr_ctr().rap, Rap::kSecDdr);
  EXPECT_TRUE(SecurityParams::secddr_ctr().ewcrc);
  EXPECT_TRUE(SecurityParams::secddr_xts().ewcrc);
  EXPECT_FALSE(SecurityParams::encrypt_only_xts().verify_mac);
  EXPECT_EQ(SecurityParams::invisimem(Encryption::kXts).rap,
            Rap::kAuthChannel);
  EXPECT_TRUE(SecurityParams::hash_tree8_xts().hash_tree_over_macs);
  EXPECT_FALSE(SecurityParams::hash_tree8_xts().macs_in_ecc);
}

// ---------------------------------------------------------------- layout

TEST(Layout, CounterRegionSizedByPacking) {
  for (unsigned pack : {8u, 64u, 128u}) {
    MetadataLayout l(SecurityParams::encrypt_only_ctr(pack), kDataBytes);
    EXPECT_EQ(l.counter_lines(), kDataBytes / kLineSize / pack);
  }
}

TEST(Layout, TreeLevelsShrinkByArity) {
  const MetadataLayout l(SecurityParams::baseline_tree_ctr(64, 64),
                         kDataBytes);
  // 1GB data, 64 counters/line -> 256K counter lines; 64-ary:
  // L1=4096, L2=64, then 1 (root, on-chip). => 2 stored levels.
  EXPECT_EQ(l.counter_lines(), (kDataBytes / kLineSize) / 64);
  ASSERT_EQ(l.tree_levels(), 2u);
  EXPECT_EQ(l.tree_nodes(1), 4096u);
  EXPECT_EQ(l.tree_nodes(2), 64u);
}

TEST(Layout, HashTreeIsMuchDeeper) {
  const MetadataLayout hash(SecurityParams::hash_tree8_xts(), kDataBytes);
  const MetadataLayout ctr64(SecurityParams::baseline_tree_ctr(64, 64),
                             kDataBytes);
  // 1GB: MAC lines = 2M; 8-ary: 256K, 32K, 4K, 512, 64, 8 -> 6 levels.
  EXPECT_EQ(hash.mac_lines(), (kDataBytes / kLineSize) / 8);
  EXPECT_GT(hash.tree_levels(), ctr64.tree_levels() + 2);
}

TEST(Layout, RegionsAreDisjointAndOrdered) {
  const MetadataLayout l(SecurityParams::baseline_tree_ctr(), kDataBytes);
  const Addr ctr = l.counter_line_addr(0);
  EXPECT_GE(ctr, kDataBytes);
  const Addr n1 = l.tree_node_addr(1, 0);
  const Addr n2 = l.tree_node_addr(2, 0);
  EXPECT_GT(n1, ctr);
  EXPECT_GT(n2, n1);
  EXPECT_LE(l.end_of_memory(),
            kDataBytes + l.metadata_bytes() + kLineSize);
}

TEST(Layout, AdjacentLinesShareCounterLine) {
  const MetadataLayout l(SecurityParams::encrypt_only_ctr(64), kDataBytes);
  EXPECT_EQ(l.counter_line_addr(0), l.counter_line_addr(63 * kLineSize));
  EXPECT_NE(l.counter_line_addr(0), l.counter_line_addr(64 * kLineSize));
}

TEST(Layout, TreePathIsConsistent) {
  const MetadataLayout l(SecurityParams::baseline_tree_ctr(), kDataBytes);
  // Data lines covered by the same counter line share the whole path.
  for (unsigned level = 1; level <= l.tree_levels(); ++level) {
    EXPECT_EQ(l.tree_node_addr(level, 0),
              l.tree_node_addr(level, 63 * kLineSize));
  }
}

// ---------------------------------------------------------------- cache

TEST(MetadataCacheTest, LookupMissThenInstallHit) {
  MetadataCache mc(4096, 4);
  EXPECT_FALSE(mc.lookup(0x1000));
  mc.install(0x1000, false);
  EXPECT_TRUE(mc.lookup(0x1000));
  EXPECT_EQ(mc.accesses(), 2u);
  EXPECT_EQ(mc.misses(), 1u);
}

TEST(MetadataCacheTest, DirtyVictimSurfacesOnInstall) {
  MetadataCache mc(128, 2);  // 1 set, 2 ways
  mc.install(0, false);
  EXPECT_TRUE(mc.mark_dirty(0));
  mc.install(64, false);
  const auto v = mc.install(128, false);
  EXPECT_TRUE(v.evicted);
  EXPECT_TRUE(v.victim_dirty);
  EXPECT_EQ(v.victim_addr, 0u);
}

// ---------------------------------------------------------------- engine

TEST(Engine, XtsReadIssuesExactlyOneDramRead) {
  Rig rig(SecurityParams::encrypt_only_xts());
  rig.engine.start_read(0x1000, 1, 0);
  const auto ready = rig.drain();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(rig.engine.stats().data_reads, 1u);
  EXPECT_EQ(rig.engine.stats().meta_reads(), 0u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 1u);
}

TEST(Engine, XtsReadLatencyIncludesAesLatency) {
  Rig rig(SecurityParams::encrypt_only_xts());
  rig.engine.start_read(0x1000, 1, 0);
  const auto ready = rig.drain();
  ASSERT_EQ(ready.size(), 1u);
  // AES latency (40 core cycles) beyond the raw DRAM completion.
  EXPECT_GE(ready[0].at, 40u);
}

TEST(Engine, CtrColdReadFetchesCounterLine) {
  Rig rig(SecurityParams::encrypt_only_ctr());
  rig.engine.start_read(0x1000, 1, 0);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 2u);  // data + counter
}

TEST(Engine, CtrWarmReadHitsCounterCache) {
  Rig rig(SecurityParams::encrypt_only_ctr());
  rig.engine.start_read(0x1000, 1, 0);
  rig.drain();
  // Second read of a line sharing the counter line: counter cached.
  rig.engine.start_read(0x1040, 2, rig.now);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 3u);
}

TEST(Engine, SecDdrAddsNoMetadataTrafficOverEncryptOnly) {
  // The paper's core claim in traffic terms: SecDDR+XTS == encrypt-only
  // XTS on the memory bus.
  Rig secddr(SecurityParams::secddr_xts());
  Rig enc(SecurityParams::encrypt_only_xts());
  for (int i = 0; i < 50; ++i) {
    secddr.engine.start_read(static_cast<Addr>(i) * 4096, i, 0);
    enc.engine.start_read(static_cast<Addr>(i) * 4096, i, 0);
  }
  secddr.drain();
  enc.drain();
  EXPECT_EQ(secddr.dram.stats().reads_completed,
            enc.dram.stats().reads_completed);
  EXPECT_EQ(secddr.engine.stats().meta_reads(), 0u);
}

TEST(Engine, TreeColdReadWalksToRoot) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_read(0x2000, 1, 0);
  rig.drain();
  // Cold: counter + both stored levels fetched (root on-chip).
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u);
  EXPECT_EQ(rig.engine.stats().reads_with_tree_walk, 1u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 4u);
}

TEST(Engine, TreeWalkTerminatesAtCachedNode) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_read(0x2000, 1, 0);
  rig.drain();
  // A different counter line under the SAME L1 node: walk stops at L1.
  // Counter lines cover 64*64B = 4KB; L1 nodes cover 64 counter lines
  // = 256KB. 8KB away => same L1 node, different counter line.
  rig.engine.start_read(0x2000 + 8192, 2, rig.now);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 2u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u)
      << "no additional node fetches: L1 hit terminates the walk";
}

TEST(Engine, TreeCachedCounterSkipsWalkEntirely) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_read(0x2000, 1, 0);
  rig.drain();
  rig.engine.start_read(0x2040, 2, rig.now);  // same counter line
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u);
}

TEST(Engine, TreeWriteDirtiesEveryLevel) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_write(0x3000, 0);
  rig.drain();
  // Write fetched counter + all levels (RMW) and issued the data write.
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u);
  EXPECT_EQ(rig.dram.stats().writes_completed, 1u);
  // Now evict the dirtied metadata by touching many distinct regions:
  // dirty writebacks must eventually reach DRAM. (128KB cache, 8-way.)
  for (int i = 0; i < 40000; ++i)
    rig.engine.start_read(static_cast<Addr>(i) * 4096, 100 + i, rig.now);
  rig.drain(20'000'000);
  EXPECT_GT(rig.engine.stats().meta_writebacks, 0u);
}

TEST(Engine, HashTreeReadFetchesMacLine) {
  Rig rig(SecurityParams::hash_tree8_xts());
  rig.engine.start_read(0x4000, 1, 0);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().mac_line_fetches, 1u);
  EXPECT_GT(rig.engine.stats().tree_node_fetches, 3u);
}

TEST(Engine, AuthChannelAddsLatencyNotTraffic) {
  Rig inv(SecurityParams::invisimem(Encryption::kXts));
  Rig enc(SecurityParams::encrypt_only_xts());
  inv.engine.start_read(0x5000, 1, 0);
  enc.engine.start_read(0x5000, 1, 0);
  const auto r_inv = inv.drain();
  const auto r_enc = enc.drain();
  ASSERT_EQ(r_inv.size(), 1u);
  ASSERT_EQ(r_enc.size(), 1u);
  EXPECT_EQ(inv.dram.stats().reads_completed, 1u);
  // 2x MAC latency (80 cycles) dominates the XTS 40: +40 over enc-only.
  EXPECT_EQ(r_inv[0].at - r_enc[0].at, 40u);
}

TEST(Engine, SecDdrReadReadyAfterMacLatency) {
  Rig secddr(SecurityParams::secddr_xts());
  Rig enc(SecurityParams::encrypt_only_xts());
  secddr.engine.start_read(0x6000, 1, 0);
  enc.engine.start_read(0x6000, 1, 0);
  const auto r1 = secddr.drain();
  const auto r2 = enc.drain();
  ASSERT_EQ(r1.size(), 1u);
  // MAC verify (40) runs in parallel with XTS decrypt (40): same ready
  // time as encrypt-only — the <1% claim's latency half.
  EXPECT_EQ(r1[0].at, r2[0].at);
}

TEST(Engine, MetaArrivalStampsDramFinishNotTickTime) {
  // Metadata done times must come from the DRAM completion's finish
  // cycle (as the data path's data_done already does), so the verified
  // ready time cannot drift with how often the engine is ticked.
  const auto ready_at = [](Cycle step) {
    Rig rig(SecurityParams::encrypt_only_ctr());
    rig.engine.start_read(0x1000, 1, 0);
    std::vector<ReadReady> out;
    while (rig.engine.outstanding() > 0 && rig.now < 100000) {
      ++rig.now;
      rig.dram.tick_core_cycle();
      if (rig.now % step == 0) {
        rig.engine.tick(rig.now);
        for (const auto& r : rig.engine.ready()) out.push_back(r);
        rig.engine.ready().clear();
      }
    }
    EXPECT_EQ(out.size(), 1u);
    return out.empty() ? Cycle{0} : out[0].at;
  };
  const Cycle fine = ready_at(1);
  EXPECT_GT(fine, 0u);
  EXPECT_EQ(ready_at(7), fine);
  EXPECT_EQ(ready_at(13), fine);
}

// ------------------------------------------------------- ready_bound

// Lines the fill reads never touch (the fill uses 4KB-strided lines
// below 256KB).
constexpr Addr kLineX = 0x3000'0040;
constexpr Addr kLineY = 0x2000'0080;

// Fills the 64-entry DRAM read queue at cycle `rig.now` with XTS data
// reads (no metadata), so every later read is deferred in the engine.
void fill_read_queue(Rig& rig) {
  for (std::uint64_t i = 0; rig.dram.can_accept_read(); ++i)
    rig.engine.start_read(static_cast<Addr>(i) * 4096, i, rig.now);
  ASSERT_EQ(rig.dram.queued_reads(), 64u);
}

// The tCL column floor every queued or deferred read is held to.
Cycle column_bound(const Rig& rig) {
  return rig.now + rig.dram.core_cycles_until_mem(rig.dram.memory_cycle() +
                                                  rig.dram.timings().tCL);
}

TEST(EngineReadyBound, DeferredReadBehindDeferredSameLineWriteIsNowPlus2) {
  Rig rig(SecurityParams::encrypt_only_xts());
  fill_read_queue(rig);
  rig.engine.start_read(kLineY, 100, rig.now);  // deferred: queue full
  rig.engine.start_write(kLineX, rig.now);      // deferred behind it
  rig.engine.start_read(kLineX, 101, rig.now);  // forwarded once it lands
  ASSERT_EQ(rig.dram.pending(), 64u);  // all three deferred
  ASSERT_GT(column_bound(rig), rig.now + 2);
  EXPECT_EQ(rig.engine.ready_bound(rig.now), rig.now + 2);
}

TEST(EngineReadyBound, DeferredReadOfLineInDramWriteQueueIsNowPlus2) {
  Rig rig(SecurityParams::encrypt_only_xts());
  fill_read_queue(rig);
  rig.engine.start_write(kLineX, rig.now);  // straight into the write queue
  rig.engine.start_read(kLineX, 100, rig.now);  // deferred: queue full
  ASSERT_EQ(rig.dram.pending(), 65u);
  ASSERT_GT(column_bound(rig), rig.now + 2);
  EXPECT_EQ(rig.engine.ready_bound(rig.now), rig.now + 2);
}

TEST(EngineReadyBound, DeferredReadsWithoutSameLineWriteGiveColumnBound) {
  Rig rig(SecurityParams::encrypt_only_xts());
  fill_read_queue(rig);
  rig.engine.start_read(kLineY, 100, rig.now);
  // A same-line write queued *behind* the read cannot forward it.
  rig.engine.start_read(kLineX, 101, rig.now);
  rig.engine.start_write(kLineX, rig.now);
  ASSERT_EQ(rig.dram.inflight_read_finish(), kNoEvent);
  EXPECT_EQ(rig.engine.ready_bound(rig.now), column_bound(rig));

  // Mid-run, with reads in flight: the min of the in-flight arrival and
  // the column floor, as long as the deferred reads stay unforwardable.
  while (rig.dram.inflight_read_finish() == kNoEvent) {
    ++rig.now;
    rig.dram.tick_core_cycle();
    rig.engine.tick(rig.now);
  }
  ASSERT_FALSE(rig.dram.has_undrained_completions());
  const Cycle inflight =
      rig.now + rig.dram.core_cycles_until_mem(rig.dram.inflight_read_finish());
  EXPECT_EQ(rig.engine.ready_bound(rig.now),
            std::min(inflight, column_bound(rig)));
}

TEST(EngineReadyBound, OnlyDeferredWritesIsNoEvent) {
  Rig rig(SecurityParams::encrypt_only_xts());
  for (std::uint64_t i = 0; rig.dram.can_accept_write(); ++i)
    rig.engine.start_write(static_cast<Addr>(i) * 4096, rig.now);
  rig.engine.start_write(kLineX, rig.now);  // deferred: write queue full
  rig.engine.start_write(kLineY, rig.now);
  ASSERT_EQ(rig.engine.outstanding(), 64u + 2u);
  ASSERT_EQ(rig.dram.queued_reads(), 0u);
  ASSERT_EQ(rig.dram.inflight_read_finish(), kNoEvent);
  EXPECT_EQ(rig.engine.ready_bound(rig.now), kNoEvent);
}

TEST(EngineReadyBound, SaveLoadWithDeferredReadsKeepsBoundAndBytes) {
  const auto save = [](const Rig& rig) {
    serial::Sink s;
    rig.dram.save(s);
    rig.engine.save(s);
    return s.take();
  };
  for (const bool in_write_queue : {false, true}) {
    Rig donor(SecurityParams::encrypt_only_xts());
    fill_read_queue(donor);
    if (!in_write_queue) donor.engine.start_read(kLineY, 100, donor.now);
    donor.engine.start_write(kLineX, donor.now);
    donor.engine.start_read(kLineX, 101, donor.now);
    donor.engine.start_read(kLineY + 4096, 102, donor.now);
    const Cycle bound = donor.engine.ready_bound(donor.now);
    ASSERT_EQ(bound, donor.now + 2);
    const std::vector<std::uint8_t> bytes = save(donor);

    Rig restored(SecurityParams::encrypt_only_xts());
    serial::Source src(bytes);
    restored.dram.load(src);
    restored.engine.load(src);
    EXPECT_EQ(restored.engine.ready_bound(donor.now), bound) << in_write_queue;
    EXPECT_EQ(save(restored), bytes) << in_write_queue;
  }
}

TEST(Engine, TickUntilPastReadyBoundThrows) {
  // The epoch-window contract holds in every build: a window sized past
  // ready_bound() lets a fill surface early, which must not pass silently.
  Rig rig(SecurityParams::encrypt_only_xts());
  rig.engine.start_read(0x1000, 1, rig.now);
  while (rig.dram.inflight_read_finish() == kNoEvent) {
    ++rig.now;
    rig.dram.tick_core_cycle();
    rig.engine.tick(rig.now);
  }
  const Cycle bound = rig.engine.ready_bound(rig.now);
  ASSERT_NE(bound, kNoEvent);
  EXPECT_THROW(rig.engine.tick_until(rig.now, bound + 1000), std::logic_error);
}

TEST(Engine, SharedFetchesAreDeduplicated) {
  Rig rig(SecurityParams::encrypt_only_ctr());
  // Two reads under the same counter line, back to back.
  rig.engine.start_read(0x1000, 1, 0);
  rig.engine.start_read(0x1040, 2, 0);
  const auto ready = rig.drain();
  EXPECT_EQ(ready.size(), 2u);
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u)
      << "concurrent misses on one counter line must share the fetch";
}

}  // namespace
}  // namespace secddr::secmem
