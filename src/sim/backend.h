// Multi-channel memory backend: the single seam the cache hierarchy talks
// to, owning `channels` x (DRAM channel + security engine + metadata
// layout slice).
//
// SecDDR's E-MAC/eWCRC protection is per-DDR-interface, so every channel
// carries its own SecurityEngine (and metadata cache) in front of its own
// DramSystem. Global physical addresses are routed by the address-
// interleaved ChannelSelector; each channel then operates on its dense
// local address space, with its metadata region carved above its local
// data slice — channel-local metadata never crosses the interface it
// protects.
//
// `channels == 1` (the default) is the identity configuration: one
// engine, one controller, addresses unchanged — bit-identical to the
// pre-backend single-channel pipeline (asserted by the
// SimFastPathDeterminism golden tests).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serial.h"
#include "dram/address.h"
#include "dram/system.h"
#include "secmem/layout.h"
#include "secmem/model.h"

namespace secddr::sim {

/// Everything the backend needs to build its channels. The geometry's
/// `ranks`..`columns_per_row` describe one channel; `geometry.channels`
/// replicates it.
struct BackendConfig {
  dram::Geometry geometry;
  dram::Timings timings = dram::Timings::ddr4_3200();
  dram::SchedulingPolicy scheduling = dram::SchedulingPolicy::kFrFcfs;
  secmem::SecurityParams security = secmem::SecurityParams::baseline_tree_ctr();
  double core_mhz = 3200.0;
  /// Size of the (global) data region; each channel lays its metadata out
  /// above its `data_bytes / channels` local slice.
  std::uint64_t data_bytes = 8ull << 30;
  bool event_driven = true;
  /// Per-channel dynamic power/thermal accounting + policies (off by
  /// default; accounting alone never perturbs timing).
  dram::PowerConfig power;
};

/// See file comment.
class MemoryBackend {
 public:
  /// Throws std::invalid_argument when the geometry is not a power of two
  /// in every dimension (channels included), when data_bytes is not a
  /// whole number of interleave stripes per channel,
  /// or when a channel's data slice plus its metadata exceeds the
  /// channel's capacity.
  explicit MemoryBackend(const BackendConfig& config);
  MemoryBackend(const MemoryBackend&) = delete;
  MemoryBackend& operator=(const MemoryBackend&) = delete;

  unsigned channels() const { return static_cast<unsigned>(channels_.size()); }

  /// Starts a secure data-line read; `tag` is reported via ready() when
  /// the decrypted and verified line is available. Routed to the owning
  /// channel's engine.
  void start_read(Addr addr, std::uint64_t tag, Cycle now);
  /// Posted secure data-line write, routed to the owning channel.
  void start_write(Addr addr, Cycle now);

  /// Advances one core cycle: every channel's DRAM clock domain and
  /// engine tick, gathering finished reads into ready().
  void tick(Cycle now);

  // --- epoch-decoupled execution --------------------------------------
  /// Advances every channel through core cycles (from, to] in one epoch:
  /// each channel runs to the horizon with a channel-local clock
  /// (event-driven skips applied locally). The caller guarantees no
  /// start_read/start_write lands inside the window and that `to` does
  /// not exceed ready_window(from) — that makes the run-ahead
  /// rollback-free and bit-identical to per-cycle ticking. Finished
  /// reads are gathered into ready() in fixed channel order at the end.
  void run_window(Cycle from, Cycle to);
  /// Safe horizon: the earliest core cycle (> now) at which any channel
  /// could push into ready(), i.e. produce output the MemorySystem can
  /// observe (min over channels of SecurityEngine::ready_bound).
  /// Absent new inputs, ticking everything up to this cycle is
  /// externally invisible, so it bounds a rollback-free epoch. kNoEvent
  /// when no channel holds a read anywhere in its pipeline.
  Cycle ready_window(Cycle now) const;
  /// Epoch telemetry: epochs dispatched and core cycles they covered
  /// since the last reset_stats(). cycles/epochs is the mean window
  /// width (1 in per-cycle mode; the event-driven loop drives it up).
  std::uint64_t dispatch_epochs() const { return dispatch_epochs_; }
  std::uint64_t dispatch_cycles() const { return dispatch_cycles_; }

  /// Ready reads since the last drain, across all channels (caller clears).
  std::vector<secmem::ReadReady>& ready() { return ready_; }

  /// Engine-event query for the event-driven loop: min over channels (a
  /// deferred issue retry on any channel means the next tick can act).
  Cycle next_event_cycle(Cycle now) const;
  /// True while any channel holds a completion that must surface on the
  /// very next tick (skipping would stamp it late).
  bool has_undrained_completions() const;
  /// Upcoming core cycles every channel's DRAM guarantees are no-ops
  /// (min over channels); kNoEvent when all are fully idle.
  Cycle idle_core_cycles() const;
  /// Fast-forwards `cycles` ticks previously reported idle: advances every
  /// channel's clock domains without running no-op ticks.
  void advance_idle(Cycle cycles);

  /// True when no channel holds outstanding work of any kind — the drain
  /// condition for tests and harness drain loops.
  bool drain_ready() const { return outstanding() == 0; }
  /// Outstanding transactions summed over channels.
  std::size_t outstanding() const;

  // --- statistics -----------------------------------------------------
  /// Aggregate over channels (integer sums; equals channel 0's stats when
  /// channels == 1).
  secmem::EngineStats engine_stats() const;
  dram::ControllerStats dram_stats() const;
  std::vector<secmem::EngineStats> engine_stats_per_channel() const;
  std::vector<dram::ControllerStats> dram_stats_per_channel() const;
  /// Per-channel power/thermal reports (empty-report entries when power
  /// accounting is disabled). Non-const: catches lazy window accounting
  /// up to each channel's current memory cycle (behavior-neutral).
  std::vector<dram::PowerReport> power_reports();
  /// Metadata-cache traffic summed over the per-channel caches.
  std::uint64_t metadata_accesses() const;
  double metadata_miss_rate() const;
  /// Clears statistics after warmup; cache/queue state is preserved.
  void reset_stats();

  /// Checkpoint hooks: every channel's DRAM system + security engine (in
  /// channel order), the gathered ready list, and the epoch telemetry.
  /// Safe to call between epochs only. load() requires a backend built
  /// from the identical config.
  void save(serial::Sink& s) const;
  void load(serial::Source& s);

  // --- per-channel access (tests, analyses) ---------------------------
  const dram::ChannelSelector& selector() const { return selector_; }
  secmem::SecurityEngine& engine(unsigned channel = 0) {
    return *channels_[channel].engine;
  }
  dram::DramSystem& dram(unsigned channel = 0) {
    return *channels_[channel].dram;
  }
  const secmem::MetadataLayout& layout(unsigned channel = 0) const {
    return *channels_[channel].layout;
  }

 private:
  struct Channel {
    std::unique_ptr<secmem::MetadataLayout> layout;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<secmem::SecurityEngine> engine;
  };

  /// Runs every channel through core cycles (from, to]: plain per-cycle
  /// ticks for width-1 windows and the per-cycle reference loop, the
  /// engines' batched tick_until (channel-local clock + event-driven
  /// skips) for wider epoch windows.
  void tick_range(Cycle from, Cycle to);
  template <class Ar>
  void fields(Ar& ar);
  /// Common epoch dispatch behind tick()/run_window(): ticks the window,
  /// then gathers ready() in channel order.
  void dispatch(Cycle from, Cycle to);

  dram::ChannelSelector selector_;
  std::vector<Channel> channels_;
  std::vector<secmem::ReadReady> ready_;
  bool event_driven_ = false;
  std::uint64_t dispatch_epochs_ = 0;
  std::uint64_t dispatch_cycles_ = 0;
};

}  // namespace secddr::sim
