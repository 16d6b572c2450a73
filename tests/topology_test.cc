// Multi-channel memory topology: the ChannelSelector address round-trip,
// per-channel metadata layout isolation, and MemoryBackend routing.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.h"
#include "dram/address.h"
#include "secmem/layout.h"
#include "secmem/params.h"
#include "sim/backend.h"

namespace secddr {
namespace {

dram::Geometry make_geometry(unsigned channels,
                             dram::ChannelInterleave interleave) {
  dram::Geometry g;
  g.channels = channels;
  g.channel_interleave = interleave;
  return g;
}

// ---------------------------------------------------------------- selector

TEST(ChannelSelector, RoundTripAcrossChannelCountsAndBitPositions) {
  Xoshiro256 rng(42);
  for (const auto interleave :
       {dram::ChannelInterleave::kLine, dram::ChannelInterleave::kRow}) {
    for (const unsigned channels : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("channels=" + std::to_string(channels) + " interleave=" +
                   std::to_string(static_cast<int>(interleave)));
      const dram::ChannelSelector sel(make_geometry(channels, interleave));
      ASSERT_EQ(sel.channels(), channels);
      for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.next() % (64ull << 30);  // arbitrary byte address
        const unsigned ch = sel.channel_of(a);
        ASSERT_LT(ch, channels);
        // (channel, local) -> global is the exact inverse of the split.
        ASSERT_EQ(sel.to_global(ch, sel.to_local(a)), a);
        // The channel bits are gone: local addresses from one channel's
        // address stream are dense (stripe i of channel ch maps to local
        // stripe i/channels... verified via the stripe index below).
        const Addr stripe = Addr{1} << sel.shift();
        ASSERT_EQ(sel.to_local(a) / stripe, (a / stripe) / channels);
        // Offsets within a stripe survive untouched.
        ASSERT_EQ(sel.to_local(a) % stripe, a % stripe);
      }
    }
  }
}

TEST(ChannelSelector, LineInterleaveRoundRobinsConsecutiveLines) {
  const dram::ChannelSelector sel(
      make_geometry(4, dram::ChannelInterleave::kLine));
  for (Addr line = 0; line < 64; ++line)
    EXPECT_EQ(sel.channel_of(line * kLineSize), line % 4);
}

TEST(ChannelSelector, RowInterleaveKeepsRowBufferStripesTogether) {
  const dram::Geometry g = make_geometry(4, dram::ChannelInterleave::kRow);
  const dram::ChannelSelector sel(g);
  const Addr row_bytes =
      static_cast<Addr>(g.columns_per_row) * kLineSize;  // 8KB
  for (Addr stripe = 0; stripe < 16; ++stripe) {
    const unsigned ch = sel.channel_of(stripe * row_bytes);
    EXPECT_EQ(ch, stripe % 4);
    // Every line of the stripe stays on the stripe's channel.
    for (Addr off = 0; off < row_bytes; off += kLineSize)
      ASSERT_EQ(sel.channel_of(stripe * row_bytes + off), ch);
  }
}

TEST(ChannelSelector, SingleChannelIsIdentity) {
  for (const auto interleave :
       {dram::ChannelInterleave::kLine, dram::ChannelInterleave::kRow}) {
    const dram::ChannelSelector sel(make_geometry(1, interleave));
    Xoshiro256 rng(7);
    for (int i = 0; i < 1000; ++i) {
      const Addr a = rng.next() % (64ull << 30);
      EXPECT_EQ(sel.channel_of(a), 0u);
      EXPECT_EQ(sel.to_local(a), a);
      EXPECT_EQ(sel.to_global(0, a), a);
    }
  }
}

TEST(ChannelSelector, RejectsNonPowerOfTwoGeometryInEveryBuild) {
  for (const unsigned channels : {0u, 3u, 6u}) {
    SCOPED_TRACE("channels=" + std::to_string(channels));
    EXPECT_THROW(dram::ChannelSelector(make_geometry(
                     channels, dram::ChannelInterleave::kLine)),
                 std::invalid_argument);
  }
  dram::Geometry g = make_geometry(2, dram::ChannelInterleave::kRow);
  g.columns_per_row = 96;
  EXPECT_THROW(dram::ChannelSelector{g}, std::invalid_argument);
}

// ----------------------------------------------------- metadata isolation

// Each channel lays its metadata out above its local data slice; mapped
// back to the global address space, no channel's metadata region may
// overlap the global data region or any other channel's metadata.
TEST(Topology, PerChannelMetadataSlicesNeverOverlapDataOrEachOther) {
  const std::uint64_t data_bytes = 4ull << 30;
  for (const auto interleave :
       {dram::ChannelInterleave::kLine, dram::ChannelInterleave::kRow}) {
    for (const unsigned channels : {2u, 4u, 8u}) {
      SCOPED_TRACE("channels=" + std::to_string(channels) + " interleave=" +
                   std::to_string(static_cast<int>(interleave)));
      const dram::Geometry g = make_geometry(channels, interleave);
      const dram::ChannelSelector sel(g);
      const secmem::SecurityParams params =
          secmem::SecurityParams::baseline_tree_ctr();
      const secmem::MetadataLayout layout(params, data_bytes / channels);
      ASSERT_LE(layout.end_of_memory(), g.channel_capacity_bytes());

      std::set<Addr> seen_meta;
      Xoshiro256 rng(channels * 31 + static_cast<unsigned>(interleave));
      for (int i = 0; i < 4000; ++i) {
        // A random global data address, routed like the backend routes it.
        const Addr global = line_base(rng.next() % data_bytes);
        const unsigned ch = sel.channel_of(global);
        const Addr local = sel.to_local(global);
        ASSERT_LT(local, data_bytes / channels);

        std::vector<Addr> meta{layout.counter_line_addr(local)};
        for (unsigned level = 1; level <= layout.tree_levels(); ++level)
          meta.push_back(layout.tree_node_addr(level, local));
        for (const Addr m : meta) {
          // Metadata lives above the channel's data slice...
          ASSERT_TRUE(layout.is_metadata(m));
          // ...and on the same channel as the data it covers.
          const Addr m_global = sel.to_global(ch, m);
          ASSERT_EQ(sel.channel_of(m_global), ch);
          // Its global image never falls into the global data region
          // (which is exactly the image of every channel's local data).
          ASSERT_GE(sel.to_local(m_global), data_bytes / channels);
          seen_meta.insert(m_global);
        }
      }
      // Distinct (channel, local metadata line) pairs map to distinct
      // global lines: cross-channel collisions are impossible.
      for (const Addr m : seen_meta) {
        const unsigned ch = sel.channel_of(m);
        ASSERT_EQ(sel.to_global(ch, sel.to_local(m)), m);
      }
    }
  }
}

// ---------------------------------------------------------------- backend

// Reads issued to the backend route to the owning channel, complete, and
// aggregate stats equal the per-channel sums.
TEST(MemoryBackend, RoutesReadsAndAggregatesStats) {
  sim::BackendConfig cfg;
  cfg.geometry.channels = 4;
  cfg.security = secmem::SecurityParams::secddr_ctr();
  cfg.data_bytes = 4ull << 30;
  sim::MemoryBackend backend(cfg);
  ASSERT_EQ(backend.channels(), 4u);

  // 64 consecutive lines: line interleave spreads them 16 per channel.
  constexpr unsigned kReads = 64;
  for (unsigned i = 0; i < kReads; ++i)
    backend.start_read(static_cast<Addr>(i) * kLineSize, i, /*now=*/0);

  std::set<std::uint64_t> done;
  Cycle now = 0;
  while (done.size() < kReads && now < 1'000'000) {
    backend.tick(++now);
    for (const auto& r : backend.ready()) done.insert(r.tag);
    backend.ready().clear();
  }
  ASSERT_EQ(done.size(), kReads) << "reads lost in routing";
  EXPECT_TRUE(backend.drain_ready());

  const auto per_channel = backend.dram_stats_per_channel();
  ASSERT_EQ(per_channel.size(), 4u);
  std::uint64_t sum = 0;
  for (const auto& s : per_channel) {
    // 16 data reads each, plus that channel's counter-line fetches.
    EXPECT_GE(s.reads_enqueued, kReads / 4) << "interleave skewed";
    sum += s.reads_completed;
  }
  EXPECT_EQ(sum, backend.dram_stats().reads_completed);

  const auto engines = backend.engine_stats_per_channel();
  ASSERT_EQ(engines.size(), 4u);
  std::uint64_t engine_reads = 0;
  for (const auto& s : engines) {
    EXPECT_EQ(s.data_reads, kReads / 4) << "interleave skewed";
    engine_reads += s.data_reads;
  }
  EXPECT_EQ(engine_reads, kReads);
  EXPECT_EQ(backend.engine_stats().data_reads, kReads);
}

// drain_ready() must stay false while any single channel still holds work.
TEST(MemoryBackend, DrainReadyWaitsForEveryChannel) {
  sim::BackendConfig cfg;
  cfg.geometry.channels = 2;
  cfg.security = secmem::SecurityParams::encrypt_only_xts();
  cfg.data_bytes = 4ull << 30;
  sim::MemoryBackend backend(cfg);

  // One read on channel 1 only (line 1 under line interleave).
  backend.start_read(kLineSize, /*tag=*/0, /*now=*/0);
  EXPECT_FALSE(backend.drain_ready());
  Cycle now = 0;
  bool saw_ready = false;
  while (!saw_ready && now < 1'000'000) {
    backend.tick(++now);
    saw_ready = !backend.ready().empty();
    // Undrained work (in-flight or sitting in ready()) blocks the drain.
    EXPECT_EQ(backend.drain_ready(), false);
    if (saw_ready) backend.ready().clear();
  }
  ASSERT_TRUE(saw_ready);
  EXPECT_TRUE(backend.drain_ready());
  EXPECT_EQ(backend.dram_stats_per_channel()[0].reads_enqueued, 0u);
  EXPECT_EQ(backend.dram_stats_per_channel()[1].reads_enqueued, 1u);
}

}  // namespace
}  // namespace secddr
