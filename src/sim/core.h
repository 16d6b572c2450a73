// Trace-driven out-of-order-approximation core model.
//
// USIMM-style: a 224-entry ROB with 6-wide retire (Table I). Loads issue
// to the memory hierarchy as soon as they enter the ROB (exposing
// memory-level parallelism up to the ROB size) and block retirement at the
// head until their data returns. Stores are posted. Non-memory
// instructions retire at the pipeline width. This preserves the property
// the evaluation depends on: IPC is sensitive to both memory latency and
// bandwidth, scaled by each workload's memory intensity.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>

#include "common/serial.h"
#include "common/types.h"
#include "sim/trace.h"

namespace secddr::sim {

/// The core's window into the memory hierarchy (implemented by
/// MemorySystem). Issue methods return false when resources (MSHRs) are
/// exhausted; the core retries next cycle.
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;
  /// Issues a load; `*done` is set (possibly in a later cycle) when data
  /// is ready. `done` must stay valid until set.
  virtual bool issue_load(unsigned core_id, Addr addr, bool* done) = 0;
  /// Posts a store (write-allocate into L1).
  virtual bool issue_store(unsigned core_id, Addr addr) = 0;
};

struct CoreConfig {
  unsigned rob_size = 224;
  unsigned retire_width = 6;
};

struct CoreStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_stall_cycles = 0;  ///< head-of-ROB blocked on a load

  template <class Ar>
  void fields(Ar& ar) {
    ar.u64(instructions);
    ar.u64(cycles);
    ar.u64(loads);
    ar.u64(stores);
    ar.u64(load_stall_cycles);
  }

  double ipc() const {
    return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

class Core {
 public:
  Core(unsigned id, const CoreConfig& config, TraceSource& trace,
       MemoryPort& memory);

  /// Runs one core cycle (fetch + issue + retire). No-op once finished.
  void tick();

  /// Event query for the event-driven simulation loop. `now` is the cycle
  /// of the most recent tick(); returns the earliest cycle at which the
  /// core could make progress that advance_idle() cannot replay:
  /// `now + 1` when it has an un-issued memory op to (re)try or the next
  /// tick's effect is not expressible in closed form, `now + 1 + k` when
  /// the next `k` ticks are pure compute (the ROB holds only non-memory
  /// batches and fetch can only supply more of them — see
  /// compute_replayable_ticks), and kNoEvent when it is finished or the
  /// ROB head is blocked on an outstanding load (the memory system's
  /// completion queue bounds that wait). While the query reports a cycle
  /// past `now + 1` (or kNoEvent), tick() up to that cycle would change
  /// nothing except the retirement/stall accounting that advance_idle()
  /// replays.
  Cycle next_event_cycle(Cycle now) const;

  /// Accounts `cycles` skipped ticks taken while next_event_cycle()
  /// reported them replayable — exactly what `cycles` calls to tick()
  /// would have recorded. Blocked states bump `stats_.cycles` and, when
  /// the ROB head is an outstanding load, `stats_.load_stall_cycles`;
  /// pure-compute states replay fetch + bulk retirement in closed form
  /// (instructions, trace gap, ROB occupancy). No-op once finished.
  /// Also used for skipped blocked_on_issue() ticks, whose only other
  /// effect (the failing issue call) MemorySystem replays.
  void advance_idle(Cycle cycles);

  /// True when the core's only possible activity next cycle is retrying
  /// the issue of one memory op (fetch and retire are both stalled);
  /// *addr receives that op's address. The memory system decides whether
  /// the retry is guaranteed to keep failing (see
  /// MemorySystem::issue_blocked_for), making the cycle skippable.
  bool blocked_on_issue(Addr* addr) const;

  /// Stops fetching after this many instructions (0 = trace length).
  /// Raising the budget resumes a budget-finished core.
  void set_instruction_budget(std::uint64_t budget) {
    budget_ = budget;
    if (!trace_exhausted_ &&
        (budget_ == 0 || fetched_instructions_ < budget_))
      finished_ = false;
  }

  /// Clears statistics (e.g. after cache warmup) without touching
  /// architectural progress.
  void reset_stats() { stats_ = CoreStats{}; }

  bool finished() const { return finished_; }
  const CoreStats& stats() const { return stats_; }
  unsigned id() const { return id_; }

  // --- checkpoint hooks -----------------------------------------------
  /// Full architectural state: ROB contents (including done flags as
  /// values), fetch/budget progress, the pending trace record, and stats.
  void save(serial::Sink& s) const;
  /// Restores the saved state. The bound trace source must be freshly
  /// positioned at its first record: load() fast-forwards it by the
  /// consumed-record count, re-deriving the identical stream position in
  /// a fresh process (all trace sources are deterministic). Throws
  /// std::runtime_error if the trace ends before the saved position.
  void load(serial::Source& s);
  /// Trace records successfully consumed so far (what load() replays).
  std::uint64_t trace_records_consumed() const { return trace_records_; }
  /// ROB index of the entry whose done flag is `flag`, or -1 when the
  /// pointer is not into this core's ROB. The MemorySystem serializes its
  /// MSHR waiter pointers as (core, index) pairs through these two hooks.
  /// done_flag_at() throws std::runtime_error for an index past the ROB
  /// (a corrupt token).
  std::int64_t done_flag_index(const bool* flag) const;
  bool* done_flag_at(std::uint64_t idx) {
    if (idx >= rob_.size())
      throw std::runtime_error("completion-flag token names a bad ROB entry");
    return &rob_[idx].done;
  }

 private:
  enum class Kind : std::uint8_t { kBatch, kLoad, kStore };
  struct RobEntry {
    Kind kind;
    std::uint32_t remaining;  ///< instructions left in a batch (1 for mem)
    Addr addr;
    bool issued;
    bool done;  ///< set by the memory system for loads
  };

  void fetch();
  void issue_pending();
  void retire();
  bool budget_reached() const {
    return budget_ != 0 && fetched_instructions_ >= budget_;
  }
  /// True when the ROB holds only non-memory batches (every entry issued
  /// and done) — the state whose ticks are pure retirement math.
  bool pure_compute() const { return mem_ops_in_rob_ == 0 && !rob_.empty(); }
  /// Outcome of simulate_compute(): how far the scalar compute model
  /// advanced and what it consumed/retired along the way.
  struct ComputeReplay {
    Cycle ticks = 0;               ///< replayable ticks advanced
    std::uint64_t retired = 0;     ///< instructions retired across them
    std::uint64_t consumed = 0;    ///< batch instructions fetched from the
                                   ///< pending record's gap
    std::uint64_t occupancy = 0;   ///< ROB occupancy afterwards
  };
  /// Single source of truth for the pure-compute closed form: advances a
  /// scalar model (ROB occupancy, pending-record gap, fetch budget) by at
  /// most `max_ticks` ticks, stopping at the first tick that would not be
  /// exactly replayable (a memory op or unknown trace record would enter
  /// the ROB, or retirement would empty it). Both the planner
  /// (compute_replayable_ticks) and the replayer (advance_compute) run
  /// this same stepper, so they cannot drift apart.
  ComputeReplay simulate_compute(Cycle max_ticks) const;
  /// How many upcoming ticks are pure compute and exactly replayable in
  /// closed form. 0 when the next trace record is unknown or the very
  /// next tick breaks the state.
  Cycle compute_replayable_ticks() const {
    return simulate_compute(kNoEvent).ticks;
  }
  /// Replays `ticks` pure-compute ticks (ticks <= compute_replayable_ticks
  /// by contract): per tick, fetch tops the ROB up from the pending
  /// record's batch gap and retirement drains `retire_width` instructions,
  /// all in closed form. Afterwards the ROB is re-canonicalized as a
  /// single batch entry — retirement treats contiguous batch instructions
  /// identically regardless of entry grouping, so behaviour is unchanged.
  void advance_compute(Cycle ticks);
  template <class Ar>
  void fields(Ar& ar);

  unsigned id_;
  CoreConfig config_;
  TraceSource& trace_;
  MemoryPort& memory_;

  std::deque<RobEntry> rob_;
  /// Index of the first ROB entry issue_pending() has not yet issued.
  /// Issue is strictly in program order, so everything before the cursor
  /// is issued and the cursor only moves forward (minus head retires).
  std::size_t issue_cursor_ = 0;
  std::uint64_t rob_occupancy_ = 0;  ///< instructions currently in the ROB
  std::size_t mem_ops_in_rob_ = 0;   ///< load/store entries in the ROB
  std::uint64_t fetched_instructions_ = 0;
  std::uint64_t trace_records_ = 0;  ///< successful trace_.next() calls
  std::uint64_t budget_ = 0;
  bool trace_exhausted_ = false;
  bool finished_ = false;
  bool have_pending_record_ = false;
  TraceRecord pending_record_{};

  CoreStats stats_;
};

}  // namespace secddr::sim
