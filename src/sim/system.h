// Whole-system simulator: cores + memory hierarchy + security engine +
// DRAM, equivalent to the paper's Scarab + Ramulator setup (Table I).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serial.h"
#include "sim/backend.h"
#include "sim/core.h"
#include "sim/memory_system.h"
#include "sim/trace.h"

namespace secddr::sim {

struct SystemConfig {
  CoreConfig core;
  MemConfig mem;
  double core_mhz = 3200.0;
  /// Memory topology: `geometry.channels` (default 1) shards the backend
  /// into that many independent DDR channels, each with its own
  /// controller and security engine; `geometry.channel_interleave` picks
  /// the channel-bit position.
  dram::Geometry geometry;
  dram::Timings timings = dram::Timings::ddr4_3200();
  dram::SchedulingPolicy scheduling = dram::SchedulingPolicy::kFrFcfs;
  secmem::SecurityParams security = secmem::SecurityParams::baseline_tree_ctr();
  /// Size of the data region; metadata is laid out above it.
  std::uint64_t data_bytes = 8ull << 30;
  /// Run the epoch-decoupled loop (batched windows no core can act in)
  /// instead of ticking every core cycle. Produces bit-identical
  /// RunResults (asserted by the SimFastPathDeterminism tests, over the
  /// whole fig6 sweep in Fig6SweepBitIdenticalAcrossLoops); turn off to
  /// cross-check against the per-cycle reference loop.
  bool event_driven = true;
  /// Always 1: the memory backend ticks its channels serially on the
  /// calling thread. Any other value makes System::System throw
  /// std::invalid_argument. Kept only for callers that still assign it.
  unsigned mem_threads = 1;
  /// Per-channel dynamic power/thermal accounting + thermal-aware
  /// policies (dram::PowerConfig; everything off by default). Enabling
  /// accounting alone never changes timing; the throttle/remap policies
  /// do (deterministically, identically in every loop mode).
  dram::PowerConfig power;
};

struct RunResult {
  std::vector<CoreStats> cores;
  Cycle cycles = 0;  ///< core cycles until the last core finished
  double total_ipc = 0.0;  ///< sum of per-core IPC
  double llc_mpki = 0.0;   ///< demand LLC misses per kilo-instruction
  double metadata_miss_rate = 0.0;
  std::uint64_t metadata_accesses = 0;
  MemStats mem;
  secmem::EngineStats engine;      ///< aggregated over channels
  dram::ControllerStats dram;      ///< aggregated over channels
  /// Per-channel breakdowns (one entry per channel; index = channel id).
  std::vector<secmem::EngineStats> engine_per_channel;
  std::vector<dram::ControllerStats> dram_per_channel;
  /// Per-channel energy/thermal reports (entries carry `enabled = false`
  /// when power accounting is off, keeping the default result bytes
  /// stable).
  std::vector<dram::PowerReport> power_per_channel;
  /// True when any phase (warmup or measured) ran into `max_cycles`.
  bool hit_cycle_limit = false;

  /// The fleet wire/result format (fleet::checkpoint::encode_result).
  template <class Ar>
  void fields(Ar& ar) {
    ar.seq(cores, 40);
    ar.u64(cycles);
    ar.f64(total_ipc);
    ar.f64(llc_mpki);
    ar.f64(metadata_miss_rate);
    ar.u64(metadata_accesses);
    mem.fields(ar);
    engine.fields(ar);
    dram.fields(ar);
    ar.seq(engine_per_channel, 56);
    ar.seq(dram_per_channel, 96);
    ar.seq(power_per_channel, 121);
    ar.b(hit_cycle_limit);
  }
};

/// Owns every component and runs the simulation loop.
///
/// The loop is exposed two ways: `run()` drives a whole experiment in one
/// call, and the `begin()` / `step()` / `result()` stepper executes the
/// identical loop in bounded slices so a driver can interleave many
/// Systems, checkpoint between slices, or stop exactly at the
/// warmup->measured boundary (warm-start). Slicing is bit-identical to an
/// uninterrupted run: a slice boundary only clamps the event-driven skip
/// window, and any window no larger than the components' safe horizon
/// produces the same results as per-cycle ticking (the PR 7 epoch
/// invariant) — `run()` itself is just begin + step-to-completion.
class System {
 public:
  /// `traces` supplies one trace per core (config.mem.cores entries).
  /// Throws std::invalid_argument when the trace count differs from
  /// config.mem.cores, when config.mem_threads != 1, or when MemoryBackend
  /// rejects the memory configuration.
  System(const SystemConfig& config,
         std::vector<TraceSource*> traces);

  /// Runs until every core has retired `instructions_per_core` (or its
  /// trace ends), or `max_cycles` elapses. When `warmup_instructions` is
  /// non-zero, that many instructions per core execute first to warm the
  /// caches and metadata state; all statistics are then reset before the
  /// measured region (SimPoint-style warmup).
  RunResult run(std::uint64_t instructions_per_core,
                Cycle max_cycles = 2'000'000'000,
                std::uint64_t warmup_instructions = 0);

  // --- sliced execution -------------------------------------------------
  /// Arms the run() loop without executing any cycles.
  void begin(std::uint64_t instructions_per_core,
             Cycle max_cycles = 2'000'000'000,
             std::uint64_t warmup_instructions = 0);
  /// Executes at most `budget` cycles of the armed run. Returns false
  /// once the run is complete (then call result()). Additionally returns
  /// early — with work remaining — right after the warmup->measured
  /// transition, so the caller can checkpoint the exact post-warmup
  /// state.
  bool step(Cycle budget);
  /// True between begin() and the step() that returned false.
  bool running() const { return st_.active; }
  /// Cycle index within the current phase (what result().cycles reports
  /// once the measured phase ends).
  Cycle phase_cycle() const { return st_.cycle; }
  /// Assembles the RunResult exactly as run() returns it.
  RunResult result() const;

  // --- checkpoint hooks -------------------------------------------------
  /// Serializes the complete simulation state: backend (DRAM + engines
  /// per channel), cores (ROBs, trace positions), memory hierarchy
  /// (caches, MSHRs — waiter pointers encoded as (core, rob-index)
  /// tokens), and the stepper's RunState. Call between step() slices
  /// only (never mid-cycle).
  void save(serial::Sink& s) const;
  /// Restores state saved by save() into a System built from the
  /// identical config whose traces are freshly positioned at their first
  /// record. Throws std::runtime_error on any structural mismatch.
  void load(serial::Source& s);
  /// FNV-1a hash over every result-affecting config field. Excludes
  /// event_driven (a bit-identical loop mode), mem_threads (fixed at 1)
  /// and cosmetic names, so a checkpoint restores into either loop mode.
  std::uint64_t config_hash() const;

  MemoryBackend& backend() { return *backend_; }
  /// Channel-0 conveniences (single-channel tests/analyses).
  secmem::SecurityEngine& engine() { return backend_->engine(0); }
  dram::DramSystem& dram() { return backend_->dram(0); }

 private:
  /// Progress of an armed run: which phase is executing and where the
  /// per-phase loop stands (the per-phase locals of the pre-stepper
  /// run(), hoisted so slices can resume them).
  struct RunState {
    bool active = false;
    std::uint64_t instructions = 0;  ///< measured instructions per core
    std::uint64_t warmup = 0;
    Cycle max_cycles = 0;
    unsigned phase = 1;  ///< 0 = warmup, 1 = measured
    Cycle cycle = 0;     ///< within the current phase
    unsigned deny_streak = 0;
    unsigned attempt_pause = 0;
    bool hit_limit = false;
  };

  /// Closes the current phase (at the cycle limit or with every core
  /// finished). Performs the warmup->measured transition (stat resets +
  /// raised budgets); returns false when the measured phase just ended.
  bool finish_phase(bool at_limit);
  template <class Ar>
  void fields(Ar& ar);

  SystemConfig config_;
  std::unique_ptr<MemoryBackend> backend_;
  std::unique_ptr<MemorySystem> memory_;
  std::vector<std::unique_ptr<Core>> cores_;
  RunState st_;
};

}  // namespace secddr::sim
