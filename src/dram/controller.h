// Cycle-level DDR memory controller: FR-FCFS scheduling, per-bank read
// and write request FIFOs with watermark-based write draining,
// bank/rank/channel timing constraints, and per-rank refresh.
//
// Requests are organized per (bank, direction): each entry carries a
// global arrival sequence number, so FR-FCFS age ordering is recovered by
// comparing `seq` across bank FIFO heads instead of walking one global
// deque. The issue and next-event scans therefore visit O(active banks)
// records instead of O(queue depth) entries — a bank whose FIFO is empty
// costs nothing, and a bank with fifty queued row hits costs the same as
// a bank with one.
//
// Queue sizes follow Table I (64 read + 64 write entries, totals across
// banks). The data-bus occupancy of writes is `Timings::write_burst_cycles`,
// which is where SecDDR's eWCRC burst extension (BL8 -> BL10) costs
// bandwidth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/serial.h"
#include "common/types.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/power.h"
#include "dram/timings.h"

namespace secddr::dram {

/// A completed memory transaction, reported to the owner via `tag`.
struct Completion {
  std::uint64_t tag = 0;
  Addr addr = 0;
  bool is_write = false;
  Cycle arrival = 0;
  Cycle finish = 0;  ///< cycle the last data beat left the bus

  template <class Ar>
  void fields(Ar& ar) {
    ar.u64(tag);
    ar.u64(addr);
    ar.b(is_write);
    ar.u64(arrival);
    ar.u64(finish);
  }
};

/// Controller statistics.
struct ControllerStats {
  std::uint64_t reads_enqueued = 0;
  std::uint64_t writes_enqueued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t write_forwards = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  std::uint64_t total_read_latency = 0;  ///< sum over completed reads

  double row_hit_rate() const {
    const std::uint64_t n = row_hits + row_misses;
    return n ? static_cast<double>(row_hits) / static_cast<double>(n) : 0.0;
  }
  double avg_read_latency() const {
    return reads_completed ? static_cast<double>(total_read_latency) /
                                 static_cast<double>(reads_completed)
                           : 0.0;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.u64(reads_enqueued);
    ar.u64(writes_enqueued);
    ar.u64(reads_completed);
    ar.u64(writes_completed);
    ar.u64(row_hits);
    ar.u64(row_misses);
    ar.u64(activates);
    ar.u64(precharges);
    ar.u64(refreshes);
    ar.u64(write_forwards);
    ar.u64(data_bus_busy_cycles);
    ar.u64(total_read_latency);
  }

  /// Accumulates another channel's counters (multi-channel aggregation).
  ControllerStats& operator+=(const ControllerStats& o) {
    reads_enqueued += o.reads_enqueued;
    writes_enqueued += o.writes_enqueued;
    reads_completed += o.reads_completed;
    writes_completed += o.writes_completed;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    activates += o.activates;
    precharges += o.precharges;
    refreshes += o.refreshes;
    write_forwards += o.write_forwards;
    data_bus_busy_cycles += o.data_bus_busy_cycles;
    total_read_latency += o.total_read_latency;
    return *this;
  }
};

/// Scheduler scan-cost accounting, kept out of ControllerStats on purpose:
/// the per-cycle and event-driven loops run different numbers of scans, so
/// these counters are loop-mode-dependent and must never enter RunResult
/// (which the determinism tests compare bit-for-bit). perfbench reports
/// entries visited per issued command from them (`dram.entries_per_cmd`),
/// and `Controller.PerBankScanCostWithinGlobalDequeProxy` bounds it.
struct ScanStats {
  std::uint64_t issue_scans = 0;      ///< try_issue_* invocations
  std::uint64_t entries_visited = 0;  ///< bank/entry records examined
  std::uint64_t queue_depth_sum = 0;  ///< direction queue depth per scan
                                      ///< (what a global-deque scan costs)
  std::uint64_t commands_issued = 0;  ///< scans that issued a command

  ScanStats& operator+=(const ScanStats& o) {
    issue_scans += o.issue_scans;
    entries_visited += o.entries_visited;
    queue_depth_sum += o.queue_depth_sum;
    commands_issued += o.commands_issued;
    return *this;
  }
};

/// Request-scheduling policy.
enum class SchedulingPolicy {
  kFrFcfs,  ///< first-ready FCFS: oldest row hit first (default)
  kFcfs,    ///< strict arrival order (ablation baseline)
};

/// Read-only tap on the DRAM command stream the controller issues, in
/// issue order. This is the *ground truth* an on-bus observer would see
/// before any tampering: the fuzz campaign's TrackerGroundTruth property
/// tests replay it into core::TrackingInterposer and require the
/// attacker's open-row model to agree with the controller's — including
/// mid-stream attachment, where a bank whose ACTIVATE predates the
/// observer must resolve as *unknown*, never as a concrete (wrong) row.
/// Observers must not mutate controller state.
class CommandObserver {
 public:
  virtual ~CommandObserver() = default;
  virtual void on_activate(const DecodedAddr& /*d*/, Cycle /*now*/) {}
  virtual void on_precharge(unsigned /*rank*/, unsigned /*bank_group*/,
                            unsigned /*bank*/, Cycle /*now*/) {}
  virtual void on_column(const DecodedAddr& /*d*/, bool /*is_write*/,
                         Cycle /*now*/) {}
  virtual void on_refresh(unsigned /*rank*/, Cycle /*now*/) {}
};

/// Single-channel memory controller.
class Controller {
 public:
  Controller(const Geometry& geometry, const Timings& timings,
             unsigned read_queue_size = 64, unsigned write_queue_size = 64,
             SchedulingPolicy policy = SchedulingPolicy::kFrFcfs,
             const PowerConfig& power = {});

  /// True if a read (write) can be enqueued this cycle.
  bool can_accept_read() const { return q_size_[0] < rq_size_; }
  bool can_accept_write() const { return q_size_[1] < wq_size_; }

  /// Enqueues a transaction; returns false if the queue is full.
  /// Reads that hit a pending write are forwarded and complete quickly.
  bool enqueue(Addr addr, bool is_write, std::uint64_t tag, Cycle now);

  /// Advances one memory-clock cycle: issues at most one DRAM command and
  /// retires finished transactions into the completion list.
  void tick(Cycle now);

  /// Conservative next-event query for the event-driven loop: the
  /// earliest memory cycle >= `now` at which tick() could change any
  /// state or statistic (command issue, read retirement, or a refresh
  /// transition). Every tick strictly before the returned cycle is a
  /// guaranteed no-op; the returned cycle itself may still be one (the
  /// estimate errs early, never late). Refresh keeps this finite
  /// (<= ~tREFI away) even for an idle controller. Memoized: recomputed
  /// only after a state change, O(1) on the no-op fast path.
  Cycle next_event_cycle(Cycle now) const;

  /// Completions since the last call (caller drains and clears).
  std::vector<Completion>& completions() { return completions_; }
  bool has_undrained_completions() const { return !completions_.empty(); }

  const ControllerStats& stats() const { return stats_; }
  const ScanStats& scan_stats() const { return scan_stats_; }
  /// Clears statistics after warmup; bank/queue state is preserved. Power
  /// accounting zeroes its cumulative totals but keeps physical state
  /// (temperatures, in-window counts, throttle engagement, remap table).
  void reset_stats() {
    stats_ = ControllerStats{};
    scan_stats_ = ScanStats{};
    if (power_on_) reset_power_stats();
  }

  // --- dynamic power / thermal (inert unless PowerConfig::enabled) -----
  const PowerConfig& power_config() const { return power_cfg_; }
  /// Processes accounting windows that have fully elapsed by `now`. With
  /// policies off the window bookkeeping is lazy (elided event-driven
  /// ticks issue no commands, so late processing is arithmetic-identical);
  /// owners must call this before reset_stats() so the cumulative totals
  /// cut over at the same window in every loop mode.
  void catch_up_power(Cycle now) {
    if (power_on_) power_advance(now);
  }
  /// Cumulative energy/thermal report. Catches accounting up to `now`
  /// first, which is behavior-neutral (the same window closes would run
  /// at the next tick anyway, with identical arithmetic).
  PowerReport power_report(Cycle now);
  const Timings& timings() const { return timings_; }
  const Geometry& geometry() const { return geometry_; }
  const AddressMapping& mapping() const { return mapping_; }

  /// Outstanding queued transactions (for drain checks in tests/harness).
  std::size_t pending() const {
    return q_size_[0] + q_size_[1] + inflight_reads_.size();
  }

  // --- lookahead-window queries (epoch-decoupled execution) -----------
  // The backend's safe-horizon computation bounds the earliest cycle this
  // channel could hand a finished read back to the cores; these expose
  // the three facts that bound it without running a tick.
  /// Min data-arrival cycle over in-flight reads (kNoEvent when none):
  /// the earliest retirement upcoming ticks could produce.
  Cycle inflight_read_finish() const { return inflight_min_finish_; }
  /// Read entries sitting in the request queues (not yet issued).
  std::size_t queued_reads() const { return q_size_[0]; }
  /// Flat bank of `addr` before the thermal remap permutation. A pure
  /// function of the address, so callers may cache it across remaps.
  unsigned logical_bank(Addr addr) const {
    return mapping_.decode(addr).flat_bank(geometry_);
  }
  /// True when a queued write covers `addr`'s line — the predicate
  /// enqueue() applies when it forwards an arriving read from write data.
  /// `bank` is logical_bank(addr); the current permutation is applied
  /// here, so no address is decoded.
  bool has_queued_write_to_line(Addr addr, unsigned bank) const;

  /// Installs (or clears, with nullptr) the command-stream tap.
  void set_command_observer(CommandObserver* obs) { observer_ = obs; }

  /// Checkpoint hooks: the full scheduler state (power/thermal block when
  /// enabled, bank timing, rank windows, per-bank FIFOs, in-flight reads,
  /// undrained completions, bus history, stats). load() re-decodes
  /// `Request::d` through the restored remap table, rebuilds the
  /// candidate indexes and drops the next-event memo. It throws
  /// std::runtime_error on a geometry mismatch or when a stored derived
  /// value (row-hit count, queue size, in-flight minimum, remap
  /// permutation, a request's bank) disagrees with its recomputation.
  void save(serial::Sink& s) const;
  void load(serial::Source& s);

 private:
  struct InflightRead {
    Request entry;
    Cycle finish;
  };
  struct RankState {
    std::deque<Cycle> act_window;  ///< ACT timestamps for tFAW
    Cycle last_act = 0;
    bool have_last_act = false;
    unsigned last_act_bg = 0;
    Cycle next_refresh_due = 0;
    bool refresh_pending = false;
  };

  bool try_issue_column(bool is_write, Cycle now);
  bool try_issue_bank_prep(bool is_write, Cycle now);
  bool handle_refresh(Cycle now);
  void issue_column(unsigned flat, std::size_t pos, bool is_write, Cycle now);
  /// Earliest cycle a column command for an open row hit in `e`'s bank
  /// satisfies every timing constraint (bank column timing, tCCD, data-bus
  /// availability + turnaround). Bank-level: every same-bank row hit
  /// shares it. Single source of truth: both the issue predicate
  /// (allowed == now >= bound) and the memoized next-event bounds derive
  /// from it, so they cannot drift apart.
  Cycle column_ready_at(const Request& e, bool is_write) const;
  /// Earliest cycle an ACT for `e` (a closed bank) satisfies tRC/tFAW/tRRD;
  /// kNoEvent while the rank's refresh gates activates (refresh events are
  /// tracked separately).
  Cycle act_ready_at(const Request& e) const;
  void apply_write_to_read_penalty(const Request& e, Cycle data_end);
  Cycle compute_next_event_cycle(Cycle now) const;
  /// Whether the next tick would serve write columns (same predicate the
  /// tick uses, against the current drain flag and queue states).
  bool serving_writes() const {
    return draining_writes_ || (q_size_[0] == 0 && q_size_[1] != 0);
  }
  /// Earliest cycle at which `e` could act given current bank state
  /// (column for a row hit, precharge for a conflict, activate for a
  /// closed bank); kNoEvent when gated by a pending refresh (whose own
  /// events are tracked separately).
  Cycle entry_event_bound(const Request& e, bool is_write) const;
  /// Folds a possibly-earlier event into the memoized next-event cache.
  /// Mutations made *inside* tick() never need this: a mutating tick only
  /// runs once the cached event time has been reached, so the cache
  /// expires and the next query recomputes. Only out-of-tick mutations
  /// (enqueue) can create an event earlier than a still-live cache.
  void observe_event_candidate(Cycle at) const {
    if (next_event_valid_ && at < next_event_cache_) next_event_cache_ = at;
  }

  // Scan-invariant timing floors, primed once per bank scan. Each scan
  // visits O(active banks) records; the channel/rank-level parts of
  // column_ready_at()/act_ready_at() (tCCD vs the last column, bus
  // turnaround, tFAW/tRRD vs the last activate) are identical for every
  // bank of a rank, so hoisting them leaves one max() over two or three
  // precomputed values per bank. The primed forms are exact value-level
  // equivalents of the *_ready_at functions.
  void prime_col_floors(bool is_write) const;
  void prime_act_floors() const;
  Cycle column_ready_primed(const Bank& bank, const DecodedAddr& d,
                            bool is_write) const {
    Cycle at = is_write ? bank.next_write : bank.next_read;
    if (have_last_col_)
      at = std::max(at, d.bank_group == last_col_bg_ &&
                                d.rank == last_col_rank_
                            ? col_ccd_same_
                            : col_ccd_diff_);
    return std::max(at, col_bus_floor_[d.rank]);
  }
  Cycle act_ready_primed(const Bank& bank, const DecodedAddr& d) const {
    const ActFloor& f = act_floor_[d.rank];
    if (f.gated) return kNoEvent;
    return std::max(bank.next_activate,
                    d.bank_group == ranks_[d.rank].last_act_bg ? f.same_bg
                                                               : f.diff_bg);
  }

  /// Re-derives `flat`'s membership in the candidate indexes of `dir`
  /// (column / precharge / closed-per-rank) from its FIFO and bank state.
  void sync_indexes(unsigned dir, unsigned flat);
  /// Closes a bank via PRECHARGE and re-syncs its index membership.
  void close_bank(unsigned flat, Cycle now);
  /// Oldest entry (min seq) across the direction's bank FIFO heads: the
  /// strict-FCFS candidate. Returns the owning flat bank or -1 when empty.
  int oldest_bank(unsigned dir) const;
  /// Recounts open-row matches for both of `flat`'s FIFOs (after ACT).
  void recount_bank(unsigned flat);

  // --- dynamic power / thermal internals -------------------------------
  /// Decodes `addr` and applies the logical->physical bank permutation
  /// (identity unless the remap policy is enabled).
  DecodedAddr map_addr(Addr addr) const;
  /// Closes every accounting window that has fully elapsed by `now`.
  void power_advance(Cycle now);
  /// Converts the current window's counts to energy, steps the per-rank
  /// thermal nodes, and evaluates the throttle/remap policies.
  void close_power_window();
  /// Swaps the busiest idle bank of the hottest rank with the least busy
  /// idle bank of the coolest rank (window-close policy hook).
  void maybe_remap();
  void reset_power_stats();
  template <class Ar>
  void fields(Ar& ar);

  Geometry geometry_;
  Timings timings_;
  AddressMapping mapping_;
  SchedulingPolicy policy_;
  unsigned rq_size_, wq_size_;
  unsigned drain_low_, drain_high_;
  bool draining_writes_ = false;

  std::vector<Bank> banks_;
  std::vector<RankState> ranks_;

  // Per-bank request FIFOs, indexed [is_write][flat_bank], plus the
  // ready-bank index: the flat ids of banks with a nonempty FIFO
  // (unordered; selection is by min `seq`, so order cannot matter) and
  // each bank's position in that list for O(1) removal.
  std::vector<BankQueue> queues_[2];

  /// Swap-pop membership list over flat bank ids (order arbitrary —
  /// selection is always by min seq or min bound, so order cannot
  /// matter).
  struct BankIndex {
    std::vector<unsigned> items;
    std::vector<std::int32_t> pos;
    void init(unsigned banks) {
      pos.assign(banks, -1);
      items.clear();
      items.reserve(banks);
    }
    void set(unsigned flat, bool want) {
      std::int32_t& p = pos[flat];
      if (want == (p >= 0)) return;
      if (want) {
        p = static_cast<std::int32_t>(items.size());
        items.push_back(flat);
      } else {
        const unsigned last = items.back();
        items[static_cast<std::size_t>(p)] = last;
        pos[last] = p;
        items.pop_back();
        p = -1;
      }
    }
  };
  // Bank indexes, per direction: every bank with a nonempty FIFO
  // (strict-FCFS head lookup), banks a column scan can pick from (open,
  // >= 1 queued row hit), banks a precharge can serve (open, >= 1 queued
  // conflict), and closed banks with pending entries grouped by rank —
  // so a rank whose tFAW/tRRD floor blocks every ACT is skipped as one
  // comparison instead of one per bank.
  BankIndex active_[2];
  BankIndex col_idx_[2];
  BankIndex pre_idx_[2];
  std::vector<BankIndex> closed_idx_[2];  ///< [dir][rank]
  unsigned q_size_[2] = {0, 0};
  std::uint64_t next_seq_ = 0;

  std::vector<InflightRead> inflight_reads_;
  /// Min finish over inflight_reads_ (kNoEvent when empty), maintained on
  /// push and during tick()'s retire pass so compute_next_event_cycle()
  /// reads it in O(1).
  Cycle inflight_min_finish_ = kNoEvent;
  std::vector<Completion> completions_;

  // Channel-level constraints.
  Cycle bus_free_at_ = 0;
  bool bus_last_was_write_ = false;
  unsigned bus_last_rank_ = 0;
  Cycle last_col_cmd_ = 0;
  bool have_last_col_ = false;
  unsigned last_col_bg_ = 0;
  unsigned last_col_rank_ = 0;

  // next_event_cycle() memo (valid until the next state mutation).
  mutable Cycle next_event_cache_ = 0;
  mutable bool next_event_valid_ = false;

  // Primed-floor scratch (see prime_col_floors / prime_act_floors).
  struct ActFloor {
    Cycle same_bg = 0, diff_bg = 0;
    bool gated = false;
  };
  mutable Cycle col_ccd_same_ = 0, col_ccd_diff_ = 0;
  mutable std::vector<Cycle> col_bus_floor_;  ///< per rank
  mutable std::vector<ActFloor> act_floor_;   ///< per rank

  ControllerStats stats_;
  ScanStats scan_stats_;
  CommandObserver* observer_ = nullptr;

  // --- dynamic power / thermal state (all inert when power_on_ false) --
  PowerConfig power_cfg_;
  bool power_on_ = false;      ///< power_cfg_.enabled
  bool any_policy_ = false;    ///< power_cfg_.any_policy()
  bool remap_active_ = false;  ///< enabled && remap
  std::uint64_t throttle_period_ = 1;  ///< clamped >= 1
  analysis::EnergyModel energy_model_;
  Cycle power_window_start_ = 0;
  /// Commands per rank in the (single) window currently accumulating.
  /// Lazy processing cannot mix windows: every tick/enqueue closes all
  /// elapsed windows *before* the command taps run, so nonzero counts
  /// always belong to the oldest unprocessed window, and windows with no
  /// ticks at all had no commands to record.
  std::vector<analysis::CommandCounts> window_counts_;
  std::vector<std::uint64_t> bank_activity_;  ///< per flat bank, this window
  std::vector<analysis::ThermalNode> thermal_;      ///< per rank
  std::vector<std::uint64_t> rank_energy_fj_;       ///< since stats reset
  analysis::EnergyBreakdown energy_total_;          ///< since stats reset
  analysis::CommandCounts counts_total_;            ///< since stats reset
  std::uint64_t power_windows_ = 0;
  std::uint64_t throttled_windows_ = 0;
  std::uint64_t remap_swaps_ = 0;
  std::uint64_t windows_since_swap_ = 0;
  bool throttle_engaged_ = false;
  std::vector<std::uint32_t> remap_;      ///< logical flat -> physical flat
  std::vector<std::uint32_t> remap_inv_;  ///< physical flat -> logical flat
};

}  // namespace secddr::dram
