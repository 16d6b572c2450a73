// The memory hierarchy: private L1 data caches, a shared LLC with MSHRs
// and a stream prefetcher, in front of the multi-channel MemoryBackend.
//
// All LLC fills and dirty writebacks flow through the backend (which
// routes them to the owning channel's SecurityEngine), so every
// configuration's metadata traffic and crypto latency lands on the same
// DRAM model the paper's Ramulator setup used.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/cache.h"
#include "common/serial.h"
#include "common/types.h"
#include "sim/backend.h"
#include "sim/core.h"
#include "sim/prefetcher.h"

namespace secddr::sim {

struct MemConfig {
  unsigned cores = 4;
  std::uint64_t l1_bytes = 32 * 1024;
  unsigned l1_assoc = 4;
  unsigned l1_latency = 4;  ///< core cycles
  std::uint64_t llc_bytes = 4ull * 1024 * 1024;
  unsigned llc_assoc = 16;
  unsigned llc_latency = 30;  ///< core cycles
  unsigned mshrs = 64;
  bool prefetch = true;
  PrefetcherConfig prefetcher;
};

struct MemStats {
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t llc_demand_accesses = 0;
  std::uint64_t llc_demand_misses = 0;
  std::uint64_t llc_writebacks = 0;
  std::uint64_t prefetch_fills = 0;
  std::vector<std::uint64_t> llc_demand_misses_per_core;

  template <class Ar>
  void fields(Ar& ar) {
    ar.u64(l1_accesses);
    ar.u64(l1_misses);
    ar.u64(llc_demand_accesses);
    ar.u64(llc_demand_misses);
    ar.u64(llc_writebacks);
    ar.u64(prefetch_fills);
    ar.seq(llc_demand_misses_per_core, 8,
           [&ar](std::uint64_t& v) { ar.u64(v); });
  }
};

class MemorySystem final : public MemoryPort {
 public:
  MemorySystem(const MemConfig& config, MemoryBackend& backend);

  // MemoryPort:
  bool issue_load(unsigned core_id, Addr addr, bool* done) override;
  bool issue_store(unsigned core_id, Addr addr) override;

  /// Advances one core cycle (drives every channel's DRAM clock too).
  void tick();

  /// Number of upcoming cycles guaranteed to be no-op ticks: no pending
  /// load completion matures, no channel's security engine has deferred
  /// issues to retry, and no channel's DRAM controller has an event.
  /// kNoEvent when fully idle (cores then bound the skip).
  Cycle idle_cycles() const;

  /// Fast-forwards `cycles` ticks previously reported idle by
  /// idle_cycles(): advances this clock and the DRAM clock domains.
  void advance_idle(Cycle cycles);

  // --- epoch-decoupled execution --------------------------------------
  /// Largest number of ticks advance_window() may batch into one epoch:
  /// no channel can surface a finished read and no pending completion
  /// flag matures strictly before the window's final tick, so executing
  /// the whole window channel-locally and draining at the boundary is
  /// bit-identical to per-cycle ticking. Always >= 1 when finite
  /// (unlike idle_cycles(), which reports ticks that need not run at
  /// all); kNoEvent when nothing is outstanding anywhere.
  Cycle window_bound() const;

  /// Runs the next `ticks` cycles as one backend epoch (`ticks` must not
  /// exceed window_bound()): every channel advances to the horizon with
  /// its local clock, then ready fills and matured completion flags are
  /// drained at the boundary exactly as the final per-cycle tick would.
  void advance_window(Cycle ticks);

  /// True when an issue of `addr` by `core_id` is guaranteed to keep
  /// failing until a memory event: the line misses everywhere (its L1,
  /// the LLC, the in-flight MSHRs) and no MSHR is free. All of that state
  /// only changes on core activity or MSHR-fill events, so the per-cycle
  /// retry is a pure stat bump that account_blocked_retries() replays.
  bool issue_blocked_for(unsigned core_id, Addr addr) const;

  /// Replays the statistics `retries` skipped failing issue calls would
  /// have recorded (one L1 access+miss and one LLC access each).
  void account_blocked_retries(std::uint64_t retries) {
    stats_.l1_accesses += retries;
    stats_.l1_misses += retries;
    stats_.llc_demand_accesses += retries;
  }

  const MemStats& stats() const { return stats_; }
  MemoryBackend& backend() { return backend_; }
  Cycle now() const { return now_; }

  /// Clears statistics after warmup; cache/MSHR state is preserved.
  void reset_stats() {
    stats_ = MemStats{};
    stats_.llc_demand_misses_per_core.assign(config_.cores, 0);
  }

  /// Outstanding fills (for drain loops in tests).
  std::size_t outstanding_fills() const {
    return mshrs_.size() - mshr_free_.size();
  }

  // --- checkpoint hooks -----------------------------------------------
  // MSHR waiter pointers and pending-done flags point into the cores'
  // ROBs, so the owner supplies the codec: the encoder maps a live flag
  // pointer to a stable (core, rob-index) token, the decoder maps the
  // token back into the restored ROBs. Does NOT cover the backend (the
  // owner serializes it separately). The lookup-acceleration structures
  // (MSHR hash table, blocked-issue memo) are re-derived on load; the
  // memo reset is exact because hit and recompute paths record identical
  // statistics.
  using FlagEncoder = std::function<std::uint64_t(bool*)>;
  using FlagDecoder = std::function<bool*(std::uint64_t)>;
  void save(serial::Sink& s, const FlagEncoder& encode_flag) const;
  void load(serial::Source& s, const FlagDecoder& decode_flag);

 private:
  struct Mshr {
    bool valid = false;
    Addr line = 0;
    bool demand = false;
    std::vector<bool*> waiters;
  };
  struct PendingDone {
    Cycle at;
    bool* flag;
    bool operator>(const PendingDone& o) const { return at > o.at; }
  };

  /// Returns false if the access could not be started (MSHR pressure).
  bool access_llc(unsigned core_id, Addr line, bool dirty, bool* done);
  /// Epoch-boundary drain shared by tick() and advance_window(): ready
  /// fills wake their waiters, matured completion flags are raised.
  void drain_boundary();
  void issue_prefetches(Addr line);
  int find_mshr(Addr line) const;
  int alloc_mshr(Addr line);
  void release_mshr(std::size_t idx);
  void complete_at(Cycle at, bool* flag);
  /// `flag` is the save-side FlagEncoder or the load-side FlagDecoder.
  template <class Ar, class FlagCodec>
  void fields(Ar& ar, const FlagCodec& flag);

  MemConfig config_;
  MemoryBackend& backend_;

  std::vector<SetAssocCache> l1s_;
  SetAssocCache llc_;
  StreamPrefetcher prefetcher_;
  /// line -> MSHR index map, open-addressed with linear probing and
  /// backward-shift deletion. At most `mshrs` entries live at <= 25% load,
  /// so lookups are one or two cache lines — this sits on the per-cycle
  /// issue path where std::unordered_map's node allocations showed up in
  /// profiles.
  struct MshrTable {
    struct Slot {
      Addr line = 0;
      unsigned idx = 0;
      bool used = false;
    };
    std::vector<Slot> slots;
    std::uint64_t mask = 0;

    void init(unsigned mshrs) {
      std::size_t cap = 8;
      while (cap < 4ull * mshrs) cap <<= 1;
      slots.assign(cap, Slot{});
      mask = cap - 1;
    }
    static std::uint64_t hash(Addr line) {
      return (line * 0x9E3779B97F4A7C15ull) >> 17;
    }
    int find(Addr line) const {
      for (std::uint64_t i = hash(line) & mask;; i = (i + 1) & mask) {
        const Slot& s = slots[i];
        if (!s.used) return -1;
        if (s.line == line) return static_cast<int>(s.idx);
      }
    }
    void insert(Addr line, unsigned idx) {
      for (std::uint64_t i = hash(line) & mask;; i = (i + 1) & mask) {
        if (!slots[i].used) {
          slots[i] = {line, idx, true};
          return;
        }
      }
    }
    void erase(Addr line) {
      std::uint64_t i = hash(line) & mask;
      for (;; i = (i + 1) & mask) {
        if (!slots[i].used) return;
        if (slots[i].line == line) break;
      }
      // Backward-shift deletion keeps every remaining probe chain intact
      // without tombstones.
      std::uint64_t j = i;
      for (;;) {
        slots[i].used = false;
        for (;;) {
          j = (j + 1) & mask;
          if (!slots[j].used) return;
          const std::uint64_t k = hash(slots[j].line) & mask;
          // Element at j may fill the hole at i unless its ideal slot k
          // lies cyclically within (i, j].
          const bool stays = i <= j ? (k > i && k <= j)
                                    : (k > i || k <= j);
          if (!stays) break;
        }
        slots[i] = slots[j];
        i = j;
      }
    }
  };

  std::vector<Mshr> mshrs_;
  MshrTable mshr_map_;               ///< line -> MSHR index
  std::vector<unsigned> mshr_free_;  ///< free indices (LIFO)

  /// Bumped whenever the inputs of issue_blocked_for can change in the
  /// unblocking direction (MSHR alloc/release, LLC line installs), so the
  /// per-core memo below stays exact. Starts at 1 so default-initialized
  /// memo slots can never produce a false hit.
  std::uint64_t fill_version_ = 1;
  struct BlockedMemo {
    std::uint64_t version = 0;
    Addr line = 0;
    bool blocked = false;
  };
  mutable std::vector<BlockedMemo> blocked_memo_;

  std::priority_queue<PendingDone, std::vector<PendingDone>,
                      std::greater<PendingDone>>
      done_q_;

  Cycle now_ = 0;
  MemStats stats_;
};

}  // namespace secddr::sim
