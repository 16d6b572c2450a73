// Fleet checkpoint container + System save/restore (`fleet` label):
//
//  * corruption battery mirroring trace_codec's: every structural
//    violation of the container format must throw CheckpointFormatError
//    with the right path and byte offset — bad magic, version skew,
//    truncations at each structure, flipped CRCs and payload bytes,
//    oversized/reordered blocks, footer damage, trailing bytes, and a
//    config-hash mismatch;
//  * round-trip property: run a System partway, checkpoint, restore into
//    a FRESH System (freshly positioned traces), run both to completion
//    — the RunResults must be byte-identical to each other and to an
//    uninterrupted run, across channel counts x both loop modes;
//  * byte stability: golden FNV-1a hashes pin the System::save payload
//    of a mid-run 2-channel System (power off; and tree64 with both
//    thermal policies engaged), the RunResult codec of a finished
//    power-on run, and config_hash(); save -> load -> save must
//    reproduce a payload byte for byte.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fleet/checkpoint.h"
#include "fleet/node.h"
#include "secmem/params.h"
#include "sim/trace_codec.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

namespace secddr::fleet {
namespace {

namespace ck = checkpoint;

std::vector<std::uint8_t> sample_payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return p;
}

/// Asserts decode throws with the expected offset and message fragment.
void expect_error(const std::vector<std::uint8_t>& bytes,
                  std::uint64_t offset, const std::string& fragment) {
  try {
    ck::decode(bytes.data(), bytes.size(), "test.ckpt", nullptr);
    FAIL() << "expected CheckpointFormatError(" << fragment << ")";
  } catch (const CheckpointFormatError& e) {
    EXPECT_EQ(e.path(), "test.ckpt") << e.what();
    EXPECT_EQ(e.offset(), offset) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

/// Recomputes the header CRC after a deliberate header patch, so the
/// patched field (not the checksum) is what decode trips on.
void refresh_header_crc(std::vector<std::uint8_t>& bytes) {
  sim::trace_codec::put_u32(
      bytes.data() + 28, sim::trace_codec::crc32(bytes.data(), 28));
}

TEST(FleetCheckpointFormat, RoundTripsPayloadAndConfigHash) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{4097},
        ck::kBlockBytes + 177}) {
    SCOPED_TRACE(n);
    const std::vector<std::uint8_t> payload = sample_payload(n);
    const std::vector<std::uint8_t> bytes = ck::encode(0xfeedbeefcafe, payload);
    std::uint64_t hash = 0;
    EXPECT_EQ(ck::decode(bytes.data(), bytes.size(), "test.ckpt", &hash),
              payload);
    EXPECT_EQ(hash, 0xfeedbeefcafeull);
  }
}

TEST(FleetCheckpointFormat, CorruptionBattery) {
  const std::vector<std::uint8_t> payload = sample_payload(100);
  const std::vector<std::uint8_t> good = ck::encode(42, payload);
  const std::size_t foot = ck::kHeaderBytes + ck::kBlockHeaderBytes + 100;

  {  // control: the unmodified container decodes
    std::uint64_t hash = 0;
    EXPECT_EQ(ck::decode(good.data(), good.size(), "test.ckpt", &hash),
              payload);
    EXPECT_EQ(hash, 42u);
  }
  {  // truncated header
    std::vector<std::uint8_t> b(good.begin(), good.begin() + 16);
    expect_error(b, 0, "truncated header");
  }
  {  // bad magic
    std::vector<std::uint8_t> b = good;
    b[0] ^= 0xff;
    expect_error(b, 0, "bad magic");
  }
  {  // damaged header field -> checksum mismatch
    std::vector<std::uint8_t> b = good;
    b[20] ^= 0x01;  // inside config_hash
    expect_error(b, 28, "header checksum mismatch");
  }
  // Version skew (header CRC re-fixed, so the version check fires),
  // including version 1, whose backend payload carried one more counter.
  for (const std::uint32_t version : {1u, ck::kVersion + 7}) {
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + 8, version);
    refresh_header_crc(b);
    expect_error(b, 8, "unsupported version " + std::to_string(version));
  }
  {  // truncated block header
    std::vector<std::uint8_t> b(good.begin(),
                                good.begin() + ck::kHeaderBytes + 4);
    expect_error(b, ck::kHeaderBytes, "truncated block header");
  }
  {  // oversized payload_bytes (allocation guard)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + ck::kHeaderBytes,
                              ck::kMaxPayloadBytes + 1);
    expect_error(b, ck::kHeaderBytes, "oversized block");
  }
  {  // block index mismatch (reordered / replayed block)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + ck::kHeaderBytes + 4, 1);
    expect_error(b, ck::kHeaderBytes + 4, "block index mismatch");
  }
  {  // payload_bytes larger than what is actually present
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + ck::kHeaderBytes, 100000);
    expect_error(b, ck::kHeaderBytes, "truncated block payload");
  }
  {  // flipped CRC byte
    std::vector<std::uint8_t> b = good;
    b[ck::kHeaderBytes + 8] ^= 0x10;
    expect_error(b, ck::kHeaderBytes + 8, "block checksum mismatch");
  }
  {  // flipped payload byte
    std::vector<std::uint8_t> b = good;
    b[ck::kHeaderBytes + ck::kBlockHeaderBytes + 33] ^= 0x40;
    expect_error(b, ck::kHeaderBytes + 8, "block checksum mismatch");
  }
  {  // malformed footer (second word nonzero)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + foot + 4, 9);
    expect_error(b, foot + 4, "malformed footer");
  }
  {  // truncated footer (total field missing)
    std::vector<std::uint8_t> b(good.begin(),
                                good.begin() + static_cast<std::ptrdiff_t>(
                                                   foot + ck::kBlockHeaderBytes));
    expect_error(b, foot, "truncated footer");
  }
  {  // footer checksum mismatch
    std::vector<std::uint8_t> b = good;
    b[foot + ck::kBlockHeaderBytes] ^= 0x02;  // inside the total field
    expect_error(b, foot + 8, "footer checksum mismatch");
  }
  {  // footer total disagrees with the blocks (its own CRC re-fixed)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u64(b.data() + foot + ck::kBlockHeaderBytes, 99);
    sim::trace_codec::put_u32(
        b.data() + foot + 8,
        sim::trace_codec::crc32(b.data() + foot + ck::kBlockHeaderBytes,
                                ck::kFooterTotalBytes));
    expect_error(b, foot + ck::kBlockHeaderBytes,
                 "footer total disagrees with blocks");
  }
  {  // trailing bytes after the footer
    std::vector<std::uint8_t> b = good;
    b.push_back(0);
    expect_error(b, good.size(), "trailing bytes after footer");
  }
}

TEST(FleetCheckpointFormat, WriteFileIsAtomicAndReadable) {
  const std::string path = testing::TempDir() + "fleet_ckpt_atomic.ckpt";
  const std::vector<std::uint8_t> payload = sample_payload(4096);
  ck::write_file(path, 7, payload);
  // No tmp residue from the atomic rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  std::uint64_t hash = 0;
  EXPECT_EQ(ck::read_file(path, &hash), payload);
  EXPECT_EQ(hash, 7u);
  std::remove(path.c_str());
}

TEST(FleetCheckpointFormat, WriteFileObserverSeesOrderedDurabilityPoints) {
  // The WriteObserver seam must expose the real write pipeline: a torn
  // tmp prefix, the complete tmp before fsync, the fsync'd tmp before
  // rename, and the published path — in that order. The chaos harness
  // (fleet/chaos.h) injects crashes exactly here.
  struct Recorder : ck::WriteObserver {
    std::vector<std::string> calls;
    std::vector<long> sizes;
    static long file_size(const std::string& p) {
      std::FILE* f = std::fopen(p.c_str(), "rb");
      if (!f) return -1;
      std::fseek(f, 0, SEEK_END);
      const long n = std::ftell(f);
      std::fclose(f);
      return n;
    }
    void on_tmp_partial(const std::string& tmp) override {
      calls.push_back("partial");
      sizes.push_back(file_size(tmp));
    }
    void on_tmp_written(const std::string& tmp) override {
      calls.push_back("written");
      sizes.push_back(file_size(tmp));
    }
    void on_before_rename(const std::string& tmp) override {
      calls.push_back("rename");
      sizes.push_back(file_size(tmp));
    }
    void on_published(const std::string& path) override {
      calls.push_back("published");
      sizes.push_back(file_size(path));
    }
  };
  const std::string path = testing::TempDir() + "fleet_ckpt_observed.ckpt";
  std::remove(path.c_str());
  Recorder rec;
  ck::write_file(path, 3, sample_payload(5000), &rec);
  ASSERT_EQ(rec.calls, (std::vector<std::string>{"partial", "written",
                                                 "rename", "published"}));
  EXPECT_GT(rec.sizes[0], 0);
  EXPECT_LT(rec.sizes[0], rec.sizes[1]) << "on_tmp_partial saw a full file";
  EXPECT_EQ(rec.sizes[1], rec.sizes[2]);
  EXPECT_EQ(rec.sizes[2], rec.sizes[3]);
  std::uint64_t hash = 0;
  EXPECT_EQ(ck::read_file(path, &hash), sample_payload(5000));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Generational checkpoints.
// ---------------------------------------------------------------------------

TEST(FleetCheckpointGenerations, ListNextAndGcTrackTheFamily) {
  const std::string dir = testing::TempDir() + "fleet_gens";
  const std::string base = dir + "/n0.ckpt";
  const std::vector<const char*> names = {
      "n0.ckpt.1", "n0.ckpt.2",  "n0.ckpt.3", "n0.ckpt.7",
      "n0.ckpt.tmp", "n0.ckpt.7x", "n1.ckpt.9", "n0.ckpt"};
  for (const char* n : names) std::remove((dir + "/" + n).c_str());

  // Missing directory / no generations -> clean cold start.
  EXPECT_TRUE(ck::list_generations(base).empty());
  EXPECT_EQ(ck::next_generation(base), 1u);

  ASSERT_TRUE(::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST);
  for (const char* junk : names) {
    std::FILE* f = std::fopen((dir + "/" + junk).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputc('x', f);
    std::fclose(f);
  }

  // Only all-digit suffixes of THIS base count, ascending.
  std::vector<std::uint64_t> gens;
  for (const auto& g : ck::list_generations(base)) gens.push_back(g.gen);
  EXPECT_EQ(gens, (std::vector<std::uint64_t>{1, 2, 3, 7}));
  EXPECT_EQ(ck::next_generation(base), 8u);

  // GC keeps the newest `keep`, never touching neighbors.
  ck::gc_generations(base, 2);
  gens.clear();
  for (const auto& g : ck::list_generations(base)) gens.push_back(g.gen);
  EXPECT_EQ(gens, (std::vector<std::uint64_t>{3, 7}));
  EXPECT_TRUE(ck::list_generations(dir + "/n1.ckpt").size() == 1);
  std::FILE* f = std::fopen((dir + "/n0.ckpt.tmp").c_str(), "rb");
  EXPECT_NE(f, nullptr) << "gc deleted a non-generation file";
  if (f) std::fclose(f);

  ck::gc_generations(base, 1);
  ASSERT_EQ(ck::list_generations(base).size(), 1u);
  EXPECT_EQ(ck::list_generations(base)[0].gen, 7u);
  EXPECT_EQ(ck::generation_path(base, 7), base + ".7");
}

NodeConfig gen_node_config() {
  NodeConfig n;
  n.name = "mcf+gen";
  n.system.mem.cores = 2;
  n.system.security = secmem::SecurityParams::secddr_ctr();
  n.system.data_bytes = 4ull << 30;
  n.workload = "mcf";
  n.instructions = 800;
  n.warmup = 200;
  return n;
}

TEST(FleetCheckpointGenerations, RestoreFallsBackPastCorruptNewest) {
  const std::string dir = testing::TempDir() + "fleet_gen_fallback";
  ::mkdir(dir.c_str(), 0777);
  const std::string base = dir + "/node.ckpt";
  for (const auto& g : ck::list_generations(base))
    std::remove(g.path.c_str());

  const NodeConfig cfg = gen_node_config();
  Node a(cfg);
  ASSERT_TRUE(a.step(600));
  a.checkpoint_to_file(ck::generation_path(base, 1));
  ASSERT_TRUE(a.step(600));
  a.checkpoint_to_file(ck::generation_path(base, 2));

  // Newest generation corrupted: restore must fall back to gen 1 and
  // the completed run must still be bit-identical to the uninterrupted
  // one.
  {
    std::FILE* f = std::fopen(ck::generation_path(base, 2).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 48, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 48, SEEK_SET);
    std::fputc((c == EOF ? 0 : c) ^ 0x40, f);
    std::fclose(f);
  }
  Node b(cfg);
  EXPECT_EQ(b.restore_latest(base), 1u);
  while (!a.finished()) a.step(100000);
  while (!b.finished()) b.step(100000);
  EXPECT_EQ(ck::encode_result(b.result()), ck::encode_result(a.result()));

  // Both generations corrupt: a distinct, attributable error — silently
  // restarting from zero would fabricate history.
  {
    std::FILE* f = std::fopen(ck::generation_path(base, 1).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 48, SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);
  }
  Node c(cfg);
  try {
    c.restore_latest(base);
    FAIL() << "all-corrupt generations must throw";
  } catch (const CheckpointUnrecoverableError& e) {
    EXPECT_EQ(e.base(), base);
    EXPECT_EQ(e.generations(), 2u);
    EXPECT_NE(std::string(e.what()).find("unrecoverable"), std::string::npos);
  }

  // An empty family is a cold start, not an error.
  for (const auto& g : ck::list_generations(base))
    std::remove(g.path.c_str());
  Node d(cfg);
  EXPECT_EQ(d.restore_latest(base), 0u);
}

// ---------------------------------------------------------------------------
// System-level checkpoint/restore.
// ---------------------------------------------------------------------------

sim::SystemConfig small_config(unsigned channels, bool event_driven) {
  sim::SystemConfig cfg;
  cfg.mem.cores = 2;
  cfg.security = secmem::SecurityParams::secddr_ctr();
  cfg.geometry.channels = channels;
  cfg.data_bytes = 4ull << 30;  // two cores at 2GB trace stride
  cfg.event_driven = event_driven;
  return cfg;
}

struct LiveSystem {
  std::vector<std::unique_ptr<workloads::SyntheticTrace>> traces;
  std::unique_ptr<sim::System> sys;
};

LiveSystem make_system(const workloads::WorkloadDesc& desc,
                       const sim::SystemConfig& cfg) {
  LiveSystem s;
  std::vector<sim::TraceSource*> ptrs;
  for (unsigned c = 0; c < cfg.mem.cores; ++c) {
    s.traces.push_back(std::make_unique<workloads::SyntheticTrace>(desc, c));
    ptrs.push_back(s.traces.back().get());
  }
  s.sys = std::make_unique<sim::System>(cfg, ptrs);
  return s;
}

TEST(FleetSystemCheckpoint, MidRunRestoreIsBitIdenticalAcrossConfigs) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  for (const unsigned channels : {1u, 2u, 4u}) {
    for (const bool event_driven : {false, true}) {
      SCOPED_TRACE(std::to_string(channels) + "ch/event_driven=" +
                   std::to_string(event_driven));
      const sim::SystemConfig cfg = small_config(channels, event_driven);

      // Uninterrupted reference.
      LiveSystem ref = make_system(*desc, cfg);
      const std::vector<std::uint8_t> ref_bytes = ck::encode_result(
          ref.sys->run(1200, 2'000'000'000, /*warmup=*/400));

      // Interrupted run: checkpoint mid-flight (a budget that lands
      // inside the warmup or early measured phase), restore into a
      // FRESH System, finish both, compare all three byte-for-byte.
      LiveSystem a = make_system(*desc, cfg);
      a.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ASSERT_TRUE(a.sys->step(1500)) << "budget larger than the whole run";
      const std::vector<std::uint8_t> image = ck::encode_system(*a.sys);

      LiveSystem b = make_system(*desc, cfg);
      b.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ck::decode_system(*b.sys, image.data(), image.size(), "mid.ckpt");

      while (a.sys->step(kNoEvent)) {
      }
      while (b.sys->step(kNoEvent)) {
      }
      EXPECT_EQ(ck::encode_result(a.sys->result()), ref_bytes);
      EXPECT_EQ(ck::encode_result(b.sys->result()), ref_bytes);
    }
  }
}

TEST(FleetSystemCheckpoint, MidRunRestoreRoundTripsThermalState) {
  // Power accounting + both thermal policies enabled: the checkpoint
  // carries the remap table, in-window command counts, fixed-point rank
  // temperatures, and throttle engagement. A mid-run restore must finish
  // bit-identically to the uninterrupted run — across both loop modes
  // and a multi-channel backend (encode_result covers the power reports,
  // so temperature trajectories are compared too).
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  dram::PowerConfig power;
  power.enabled = true;
  power.window_cycles = 256;
  power.thermal.c_nj_per_k = 500;  // fast node: policies act inside the run
  power.throttle = true;
  power.trip_mc = 46'500;
  power.release_mc = 46'200;
  power.remap = true;
  power.remap_delta_mc = 100;
  power.remap_min_windows = 2;
  for (const unsigned channels : {1u, 2u}) {
    for (const bool event_driven : {false, true}) {
      SCOPED_TRACE(std::to_string(channels) + "ch/event_driven=" +
                   std::to_string(event_driven));
      sim::SystemConfig cfg = small_config(channels, event_driven);
      cfg.power = power;

      LiveSystem ref = make_system(*desc, cfg);
      const std::vector<std::uint8_t> ref_bytes = ck::encode_result(
          ref.sys->run(1200, 2'000'000'000, /*warmup=*/400));

      LiveSystem a = make_system(*desc, cfg);
      a.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ASSERT_TRUE(a.sys->step(1500)) << "budget larger than the whole run";
      const std::vector<std::uint8_t> image = ck::encode_system(*a.sys);

      LiveSystem b = make_system(*desc, cfg);
      b.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ck::decode_system(*b.sys, image.data(), image.size(), "thermal.ckpt");
      while (a.sys->step(kNoEvent)) {
      }
      while (b.sys->step(kNoEvent)) {
      }
      EXPECT_EQ(ck::encode_result(a.sys->result()), ref_bytes);
      EXPECT_EQ(ck::encode_result(b.sys->result()), ref_bytes);

      // A power-enabled config hashes differently from the default, so
      // this checkpoint cannot restore into a power-off System.
      LiveSystem plain =
          make_system(*desc, small_config(channels, event_driven));
      plain.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      EXPECT_THROW(ck::decode_system(*plain.sys, image.data(), image.size(),
                                     "thermal.ckpt"),
                   CheckpointFormatError);
    }
  }
}

TEST(FleetSystemCheckpoint, RestoreCrossesLoopMode) {
  // config_hash() excludes the loop mode, so a checkpoint written by the
  // per-cycle loop must restore into an event-driven System — and still
  // finish bit-identically.
  const auto* desc = workloads::find("lbm");
  ASSERT_NE(desc, nullptr);
  LiveSystem writer =
      make_system(*desc, small_config(2, /*event_driven=*/false));
  writer.sys->begin(1000, 2'000'000'000, /*warmup=*/300);
  ASSERT_TRUE(writer.sys->step(900));
  const std::vector<std::uint8_t> image = ck::encode_system(*writer.sys);
  while (writer.sys->step(kNoEvent)) {
  }

  LiveSystem reader =
      make_system(*desc, small_config(2, /*event_driven=*/true));
  reader.sys->begin(1000, 2'000'000'000, /*warmup=*/300);
  ck::decode_system(*reader.sys, image.data(), image.size(), "cross.ckpt");
  while (reader.sys->step(kNoEvent)) {
  }
  EXPECT_EQ(ck::encode_result(reader.sys->result()),
            ck::encode_result(writer.sys->result()));
}

TEST(FleetSystemCheckpoint, ConfigHashMismatchIsRejectedAtOffset16) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  LiveSystem writer =
      make_system(*desc, small_config(1, /*event_driven=*/true));
  writer.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  ASSERT_TRUE(writer.sys->step(500));
  const std::vector<std::uint8_t> image = ck::encode_system(*writer.sys);

  // A different security configuration is a different config hash.
  sim::SystemConfig other = small_config(1, /*event_driven=*/true);
  other.security = secmem::SecurityParams::baseline_tree_ctr();
  LiveSystem reader = make_system(*desc, other);
  reader.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  try {
    ck::decode_system(*reader.sys, image.data(), image.size(), "wrong.ckpt");
    FAIL() << "config-hash mismatch must throw";
  } catch (const CheckpointFormatError& e) {
    EXPECT_EQ(e.offset(), 16u) << e.what();
    EXPECT_NE(std::string(e.what()).find("different simulation configuration"),
              std::string::npos)
        << e.what();
  }

  // The loop mode is execution-equivalent and hashes identically.
  EXPECT_EQ(writer.sys->config_hash(),
            make_system(*desc, small_config(1, /*event_driven=*/false))
                .sys->config_hash());
  EXPECT_NE(writer.sys->config_hash(), reader.sys->config_hash());
}

// Byte-stability spec for the System::save payload: a mid-run 2-channel
// System (both loop modes) must serialize to exactly these bytes. Any
// change to what a component saves, or the order it saves it in, moves
// the hash; an intentional format change must bump ck::kVersion and
// recapture the goldens.
TEST(FleetSystemCheckpoint, MidRunPayloadMatchesGolden) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  struct Golden {
    bool event_driven;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  for (const Golden& g : {Golden{false, 1186452, 0x32169885ee6b619bull},
                          Golden{true, 1186452, 0x83e80c26db873d3eull}}) {
    SCOPED_TRACE("event_driven=" + std::to_string(g.event_driven));
    LiveSystem live = make_system(*desc, small_config(2, g.event_driven));
    live.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
    ASSERT_TRUE(live.sys->step(1500));
    serial::Sink s;
    live.sys->save(s);
    const std::vector<std::uint8_t> payload = s.take();
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    for (const std::uint8_t b : payload) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
    EXPECT_EQ(payload.size(), g.bytes);
    EXPECT_EQ(h, g.fnv);
  }
}

// FNV-1a 64 over a byte string: the hash the byte-stability goldens pin.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint8_t> save_payload(const sim::System& sys) {
  serial::Sink s;
  sys.save(s);
  return s.take();
}

// Power accounting with both thermal policies tuned to act inside a short
// run: the checkpoint carries the power block, throttle engagement and a
// non-identity remap table.
dram::PowerConfig engaged_power() {
  dram::PowerConfig power;
  power.enabled = true;
  power.window_cycles = 256;
  power.thermal.c_nj_per_k = 500;
  power.throttle = true;
  power.trip_mc = 46'500;
  power.release_mc = 46'200;
  power.remap = true;
  power.remap_delta_mc = 100;
  power.remap_min_windows = 2;
  return power;
}

sim::SystemConfig engaged_tree64_config(bool event_driven) {
  sim::SystemConfig cfg = small_config(2, event_driven);
  cfg.security = secmem::SecurityParams::baseline_tree_ctr(64);
  cfg.power = engaged_power();
  return cfg;
}

// Byte-stability spec for the payload parts the default-config golden
// never reaches: the controller power block, the remap table, and tree64
// transactions with tree-node fetches in flight.
TEST(FleetSystemCheckpoint, PowerRemapTree64PayloadMatchesGolden) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  struct Golden {
    bool event_driven;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  for (const Golden& g : {Golden{false, 1191139, 0xfd29e1e801348f06ull},
                          Golden{true, 1191139, 0xbe5df987c9ca91a4ull}}) {
    SCOPED_TRACE("event_driven=" + std::to_string(g.event_driven));
    LiveSystem live = make_system(*desc, engaged_tree64_config(g.event_driven));
    live.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
    ASSERT_TRUE(live.sys->step(3000));  // inside the warmup phase
    const std::vector<std::uint8_t> payload = save_payload(*live.sys);
    EXPECT_EQ(payload.size(), g.bytes);
    EXPECT_EQ(fnv1a(payload), g.fnv);

    // Transactions are open and tree walks have run at the checkpoint.
    EXPECT_GT(live.sys->engine().outstanding(), 0u);
    EXPECT_GT(live.sys->engine().stats().reads_with_tree_walk, 0u);
    // The policies really acted before the checkpoint.
    std::uint64_t throttled = 0, swaps = 0;
    for (unsigned ch = 0; ch < 2; ++ch) {
      const dram::PowerReport rep = live.sys->backend().dram(ch).power_report();
      throttled += rep.throttled_windows;
      swaps += rep.remap_swaps;
    }
    EXPECT_GT(throttled, 0u);
    EXPECT_GT(swaps, 0u);
  }
}

// Byte-stability spec for the RunResult codec: a finished 2-channel
// power-on run covers PowerReport and every per-channel stats list.
TEST(FleetSystemCheckpoint, FinishedPowerRunResultMatchesGolden) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  LiveSystem live = make_system(*desc, engaged_tree64_config(true));
  const std::vector<std::uint8_t> bytes = ck::encode_result(
      live.sys->run(1200, 2'000'000'000, /*warmup=*/400));
  EXPECT_EQ(bytes.size(), 1019u);
  EXPECT_EQ(fnv1a(bytes), 0xef40005d6468f3a9ull);
}

// save -> load into a fresh System -> save reproduces the payload byte for
// byte, for every engine flavour with the power block off and on.
TEST(FleetSystemCheckpoint, SaveLoadSaveIsByteIdentical) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  struct Flavour {
    const char* name;
    secmem::SecurityParams security;
  };
  for (const Flavour& f :
       {Flavour{"secddr_ctr", secmem::SecurityParams::secddr_ctr()},
        Flavour{"secddr_xts", secmem::SecurityParams::secddr_xts()},
        Flavour{"tree64", secmem::SecurityParams::baseline_tree_ctr(64)}}) {
    for (const bool power : {false, true}) {
      SCOPED_TRACE(std::string(f.name) + "/power=" + std::to_string(power));
      sim::SystemConfig cfg = small_config(2, /*event_driven=*/true);
      cfg.security = f.security;
      if (power) cfg.power = engaged_power();

      LiveSystem a = make_system(*desc, cfg);
      a.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      // Checkpoints inside warmup, exactly at the warmup->measured cut
      // (step() returns there early), and inside the measured phase.
      for (const Cycle budget : {Cycle{1500}, kNoEvent, Cycle{1000}}) {
        ASSERT_TRUE(a.sys->step(budget));
        const std::vector<std::uint8_t> first = save_payload(*a.sys);

        LiveSystem b = make_system(*desc, cfg);
        b.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
        serial::Source src(first);
        b.sys->load(src);
        EXPECT_TRUE(src.done());
        EXPECT_EQ(save_payload(*b.sys), first);
      }
    }
  }
}

// config_hash() keeps its own field list; pin it so that list cannot
// drift silently.
TEST(FleetSystemCheckpoint, ConfigHashMatchesGolden) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(make_system(*desc, sim::SystemConfig{}).sys->config_hash(),
            0x6ffb956be1ed62d8ull);
  sim::SystemConfig power;
  power.power = engaged_power();
  EXPECT_EQ(make_system(*desc, power).sys->config_hash(),
            0x2025206566fb4232ull);
}

// ---------------------------------------------------------------------------
// Controller load-time validation. The payload stores a few derived values
// (row-hit counts, queue sizes, the in-flight minimum) and the remap
// table; load() recomputes each and rejects a payload that disagrees, and
// the container reports that as CheckpointFormatError.
// ---------------------------------------------------------------------------

std::uint64_t get_u64(const std::vector<std::uint8_t>& p, std::size_t at) {
  return serial::Source(p.data() + at, 8).u64();
}
std::uint32_t get_u32(const std::vector<std::uint8_t>& p, std::size_t at) {
  return serial::Source(p.data() + at, 4).u32();
}
void put_u64(std::vector<std::uint8_t>& p, std::size_t at, std::uint64_t v) {
  serial::Sink s;
  s.u64(v);
  std::copy(s.data().begin(), s.data().end(), p.begin() + at);
}
void put_u32(std::vector<std::uint8_t>& p, std::size_t at, std::uint32_t v) {
  serial::Sink s;
  s.u32(v);
  std::copy(s.data().begin(), s.data().end(), p.begin() + at);
}

/// Byte offsets inside the channel-0 controller block of a 1-channel
/// System payload, found by walking the layout Controller::fields writes.
struct ControllerOffsets {
  std::size_t remap = 0;  ///< first remap_ entry (power + remap only)
  std::vector<std::size_t> open_row;
  std::vector<std::size_t> first_entry[2];  ///< 0 when the FIFO is empty
  std::vector<std::size_t> match_count[2];
  std::size_t q_size[2] = {0, 0};
  std::size_t inflight_min = 0;
};

ControllerOffsets walk_controller(const std::vector<std::uint8_t>& p,
                                  const sim::SystemConfig& cfg) {
  const unsigned ranks = cfg.geometry.ranks;
  const unsigned banks = cfg.geometry.total_banks();
  ControllerOffsets at;
  std::size_t o = 4;  // backend channel count
  if (cfg.power.enabled) {
    // Window start, per-rank counts, per-bank activity, per-rank thermal
    // state + energy, energy and command totals, four counters, throttle.
    o += 8 + 40 * ranks + 8 * banks + 24 * ranks + 48 + 40 + 32 + 1;
    if (cfg.power.remap) {
      at.remap = o;
      o += 4 * banks;
    }
  }
  EXPECT_EQ(get_u64(p, o), banks);
  o += 8;
  for (unsigned b = 0; b < banks; ++b, o += 40) at.open_row.push_back(o);
  EXPECT_EQ(get_u64(p, o), ranks);
  o += 8;
  for (unsigned r = 0; r < ranks; ++r)
    o += 8 + 8 * get_u64(p, o) + 8 + 1 + 4 + 8 + 1;
  for (unsigned dir = 0; dir < 2; ++dir) {
    for (unsigned b = 0; b < banks; ++b) {
      const std::uint64_t n = get_u64(p, o);
      at.first_entry[dir].push_back(n ? o + 8 : 0);
      o += 8 + 33 * n;
      at.match_count[dir].push_back(o);
      o += 4;
    }
    at.q_size[dir] = o;
    o += 4;
  }
  o += 8 + 1;  // next_seq, draining_writes
  o += 8 + 41 * get_u64(p, o);
  at.inflight_min = o;
  return at;
}

struct CorruptibleCheckpoint {
  sim::SystemConfig cfg;
  std::vector<std::uint8_t> payload;
  ControllerOffsets at;
  std::uint64_t hash = 0;

  explicit CorruptibleCheckpoint(const sim::SystemConfig& config)
      : cfg(config) {
    LiveSystem live = make_system(*workloads::find("mcf"), cfg);
    live.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
    EXPECT_TRUE(live.sys->step(1500));
    payload = save_payload(*live.sys);
    hash = live.sys->config_hash();
    at = walk_controller(payload, cfg);
  }

  /// A bank that is open with a nonempty read FIFO.
  unsigned open_busy_bank() const {
    for (unsigned b = 0; b < at.open_row.size(); ++b)
      if (static_cast<std::int64_t>(get_u64(payload, at.open_row[b])) >= 0 &&
          at.first_entry[0][b] != 0)
        return b;
    ADD_FAILURE() << "no open bank with queued reads at the checkpoint";
    return 0;
  }

  /// Restores `bytes` into a fresh System; expects a CheckpointFormatError
  /// naming `fragment`.
  void expect_rejected(const std::vector<std::uint8_t>& bytes,
                       const std::string& fragment) const {
    LiveSystem fresh = make_system(*workloads::find("mcf"), cfg);
    fresh.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
    const std::vector<std::uint8_t> image = ck::encode(hash, bytes);
    try {
      ck::decode_system(*fresh.sys, image.data(), image.size(), "bad.ckpt");
      FAIL() << "corrupt " << fragment << " must be rejected";
    } catch (const CheckpointFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  }
};

TEST(FleetControllerValidation, UnmodifiedPayloadRestores) {
  const CorruptibleCheckpoint ck(small_config(1, /*event_driven=*/true));
  LiveSystem fresh = make_system(*workloads::find("mcf"), ck.cfg);
  fresh.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
  serial::Source src(ck.payload);
  fresh.sys->load(src);
  EXPECT_EQ(save_payload(*fresh.sys), ck.payload);
}

TEST(FleetControllerValidation, RowHitCountMismatchIsRejected) {
  // A stored row-hit count above the FIFO's real one would put the bank
  // in the column index with no row hit to issue.
  const CorruptibleCheckpoint ck(small_config(1, /*event_driven=*/true));
  const unsigned bank = ck.open_busy_bank();
  std::vector<std::uint8_t> bad = ck.payload;
  const std::size_t at = ck.at.match_count[0][bank];
  put_u32(bad, at, get_u32(bad, at) + 1);
  ck.expect_rejected(bad, "row-hit count");
}

TEST(FleetControllerValidation, QueueSizeMismatchIsRejected) {
  const CorruptibleCheckpoint ck(small_config(1, /*event_driven=*/true));
  std::vector<std::uint8_t> bad = ck.payload;
  put_u32(bad, ck.at.q_size[0], get_u32(bad, ck.at.q_size[0]) + 1);
  ck.expect_rejected(bad, "queue size");
  // A size beyond the queue capacity is rejected even when it matches.
  bad = ck.payload;
  put_u32(bad, ck.at.q_size[1], 1000);
  ck.expect_rejected(bad, "queue size");
}

TEST(FleetControllerValidation, InflightMinimumMismatchIsRejected) {
  const CorruptibleCheckpoint ck(small_config(1, /*event_driven=*/true));
  std::vector<std::uint8_t> bad = ck.payload;
  ASSERT_NE(get_u64(bad, ck.at.inflight_min), kNoEvent)
      << "no read in flight at the checkpoint";
  put_u64(bad, ck.at.inflight_min, get_u64(bad, ck.at.inflight_min) + 1);
  ck.expect_rejected(bad, "in-flight finish");
}

TEST(FleetControllerValidation, RequestInTheWrongBankIsRejected) {
  const CorruptibleCheckpoint ck(small_config(1, /*event_driven=*/true));
  const unsigned bank = ck.open_busy_bank();
  const dram::AddressMapping mapping(ck.cfg.geometry);
  std::vector<std::uint8_t> bad = ck.payload;
  const std::size_t at = ck.at.first_entry[0][bank];
  dram::DecodedAddr d = mapping.decode(get_u64(bad, at));
  d.bank = (d.bank + 1) % ck.cfg.geometry.banks_per_group;
  put_u64(bad, at, mapping.encode(d));
  ck.expect_rejected(bad, "wrong bank");
}

TEST(FleetControllerValidation, RemapTableThatIsNotAPermutationIsRejected) {
  sim::SystemConfig cfg = small_config(1, /*event_driven=*/true);
  cfg.power = engaged_power();
  const CorruptibleCheckpoint ck(cfg);
  ASSERT_NE(ck.at.remap, 0u);
  std::vector<std::uint8_t> bad = ck.payload;
  put_u32(bad, ck.at.remap + 4, get_u32(bad, ck.at.remap));  // duplicate
  ck.expect_rejected(bad, "not a permutation");
  bad = ck.payload;
  put_u32(bad, ck.at.remap, cfg.geometry.total_banks());
  ck.expect_rejected(bad, "out of range");
}

TEST(FleetSystemCheckpoint, TruncatedSystemPayloadReportsOffset) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  LiveSystem writer =
      make_system(*desc, small_config(1, /*event_driven=*/true));
  writer.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  ASSERT_TRUE(writer.sys->step(500));
  serial::Sink s;
  writer.sys->save(s);
  std::vector<std::uint8_t> payload = s.take();
  payload.resize(payload.size() / 2);  // cut the state mid-stream
  const std::vector<std::uint8_t> image =
      ck::encode(writer.sys->config_hash(), payload);

  LiveSystem reader =
      make_system(*desc, small_config(1, /*event_driven=*/true));
  reader.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  try {
    ck::decode_system(*reader.sys, image.data(), image.size(), "cut.ckpt");
    FAIL() << "truncated system payload must throw";
  } catch (const CheckpointFormatError& e) {
    EXPECT_EQ(e.path(), "cut.ckpt");
    // The offset points into the (container-framed) payload, past the
    // header and at or before the truncation point.
    EXPECT_GE(e.offset(), ck::kHeaderBytes);
    EXPECT_LE(e.offset(), ck::kHeaderBytes + payload.size());
  }
}

}  // namespace
}  // namespace secddr::fleet
