// The secure-memory timing engine.
//
// Every LLC miss and dirty eviction is routed through this engine, which
// turns one data access into the data transaction plus whatever metadata
// traffic and crypto latency the configured mechanism requires:
//
//   encrypt-only XTS   : data only; +AES on reads.
//   encrypt-only CTR   : + counter-line fetches (RMW on writes).
//   SecDDR (CTR/XTS)   : like encrypt-only + MAC verify latency on reads;
//                        eWCRC lengthens the write burst (DRAM timing).
//   InvisiMem          : like encrypt-only + 2x MAC latency per read
//                        (DIMM-side generate + processor-side verify).
//   integrity tree     : counter (or MAC-line) fetch misses trigger a
//                        parallel upward walk that stops at the first
//                        cached (= trusted) node; writes must update every
//                        level to the root, fetching missing nodes.
//
// A hit in the 128KB metadata cache terminates verification; the root is
// on-chip and never fetched. Dirty metadata evictions become DRAM writes.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/serial.h"
#include "common/types.h"
#include "dram/system.h"
#include "secmem/layout.h"
#include "secmem/metadata_cache.h"
#include "secmem/params.h"

namespace secddr::secmem {

/// A data read whose plaintext is ready for the LLC fill at cycle `at`.
struct ReadReady {
  std::uint64_t tag;
  Cycle at;

  template <class Ar>
  void fields(Ar& ar) {
    ar.u64(tag);
    ar.u64(at);
  }
};

struct EngineStats {
  std::uint64_t data_reads = 0;
  std::uint64_t data_writes = 0;
  std::uint64_t counter_fetches = 0;
  std::uint64_t mac_line_fetches = 0;
  std::uint64_t tree_node_fetches = 0;
  std::uint64_t meta_writebacks = 0;
  std::uint64_t reads_with_tree_walk = 0;

  std::uint64_t meta_reads() const {
    return counter_fetches + mac_line_fetches + tree_node_fetches;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.u64(data_reads);
    ar.u64(data_writes);
    ar.u64(counter_fetches);
    ar.u64(mac_line_fetches);
    ar.u64(tree_node_fetches);
    ar.u64(meta_writebacks);
    ar.u64(reads_with_tree_walk);
  }

  /// Accumulates another channel's counters (multi-channel aggregation).
  EngineStats& operator+=(const EngineStats& o) {
    data_reads += o.data_reads;
    data_writes += o.data_writes;
    counter_fetches += o.counter_fetches;
    mac_line_fetches += o.mac_line_fetches;
    tree_node_fetches += o.tree_node_fetches;
    meta_writebacks += o.meta_writebacks;
    reads_with_tree_walk += o.reads_with_tree_walk;
    return *this;
  }
};

/// See file comment. One engine instance per simulated channel.
class SecurityEngine {
 public:
  SecurityEngine(const SecurityParams& params, const MetadataLayout& layout,
                 dram::DramSystem& dram);

  /// Starts a data-line read; `tag` is reported via ready() when the
  /// decrypted and verified line is available.
  void start_read(Addr addr, std::uint64_t tag, Cycle now);

  /// Posted data-line write (LLC dirty eviction / metadata update source).
  void start_write(Addr addr, Cycle now);

  /// Advances internal state: drains DRAM completions, retries issues.
  void tick(Cycle now);

  /// Event query for the event-driven loop: the engine acts on its own
  /// only while deferred DRAM issues are waiting (retried every tick);
  /// everything else is driven by DRAM completions, which the DRAM
  /// system's own next-event query covers. A deferred issue whose target
  /// queue is full is a guaranteed no-op retry until the controller
  /// drains an entry — a DRAM event — so it reports kNoEvent too. `now`
  /// is the engine's last tick time.
  Cycle next_event_cycle(Cycle now) const {
    if (issue_q_.empty()) return kNoEvent;
    const PendingIssue& p = issue_q_.front();
    const bool would_fail =
        p.is_write ? !dram_.can_accept_write() : !dram_.can_accept_read();
    return would_fail ? kNoEvent : now + 1;
  }

  /// Batched advance for epoch-decoupled execution: runs this channel's
  /// core ticks (from, to] locally — DRAM clock plus engine tick per
  /// cycle — applying the same event-driven skip the serial loop uses
  /// (provable no-op spans advance only the clocks). The caller promises
  /// no start_read/start_write lands inside the window and drains
  /// ready() afterwards; ready_bound() is how it sizes such a window.
  /// Throws std::logic_error if a read becomes ready before `to` (a
  /// window past the bound would reorder fills).
  void tick_until(Cycle from, Cycle to);

  /// Earliest core cycle (> now) at which a future tick could push into
  /// ready(), assuming no new start_read/start_write arrives: the safe
  /// horizon for this channel in the epoch-decoupled backend. Only read
  /// completions finish transactions, so the bound is the min over
  ///   - an undrained completion buffer (surfaces next tick),
  ///   - the earliest in-flight read's data arrival (exact, via the
  ///     accumulator inversion),
  ///   - queued/deferred reads: conservatively the core tick reaching
  ///     mem_cycle + tCL, or now + 2 when write-forwarding is possible
  ///     (a deferred read enqueued at now+1 can complete at now+2).
  /// kNoEvent when no read exists anywhere in the pipeline. Metadata
  /// chains (arrival -> writeback -> forward) cannot beat these bounds:
  /// an arrival at cycle t only issues new DRAM traffic at t >= bound.
  ///
  /// Cost: O(1) unless a deferred read exists and the in-flight and
  /// column bounds both lie beyond now + 2 — the only case where write
  /// forwarding can lower the result. Only then does one in-order pass
  /// over the deferred-issue queue look for a forwardable read: O(deferred
  /// reads) bank-FIFO scans, no address decode, plus a check against the
  /// deferred writes ahead of each read. The deferred-read count and each
  /// deferred read's logical bank are derived state: not serialized,
  /// rebuilt by load().
  Cycle ready_bound(Cycle now) const;

  /// Ready reads since the last drain (caller clears).
  std::vector<ReadReady>& ready() { return ready_; }

  const EngineStats& stats() const { return stats_; }
  /// Clears statistics after warmup; metadata-cache contents survive.
  void reset_stats() {
    stats_ = EngineStats{};
    meta_cache_.reset_stats();
  }
  MetadataCache& metadata_cache() { return meta_cache_; }
  const MetadataLayout& layout() const { return layout_; }
  const SecurityParams& params() const { return params_; }

  /// Outstanding transactions of any kind (for drain loops).
  std::size_t outstanding() const {
    return txns_.size() + issue_q_.size() + dram_.pending();
  }

  /// Checkpoint hooks: metadata cache, open transactions and outstanding
  /// metadata fetches (both maps in sorted key order), the deferred-issue
  /// queue, undrained ready reads, and stats. Does NOT cover the DRAM
  /// system (the owner serializes it separately).
  void save(serial::Sink& s) const;
  void load(serial::Source& s);

 private:
  enum class Role : std::uint8_t { kCounter, kMacLine, kTreeNode };
  enum class TagKind : std::uint64_t {
    kDataRead = 1,
    kDataWrite = 2,
    kMetaFetch = 3,
    kMetaWriteback = 4,
  };

  struct Txn {
    std::uint64_t tag = 0;  ///< caller tag (reads only)
    Addr addr = 0;
    bool is_write = false;
    Cycle start = 0;
    bool data_pending = false;
    Cycle data_done = 0;
    unsigned meta_outstanding = 0;
    Cycle meta_done = 0;  ///< max arrival over tree/mac fetches
    bool counter_pending = false;
    Cycle counter_done = 0;
    bool mac_line_pending = false;
    Cycle mac_line_done = 0;
    bool tree_walked = false;
    bool write_data_issued = false;
  };

  struct MetaFetch {
    std::vector<std::pair<std::uint64_t, Role>> waiters;  ///< (txn id, role)
  };

  static std::uint64_t make_tag(TagKind kind, std::uint64_t id) {
    return (static_cast<std::uint64_t>(kind) << 56) | id;
  }

  void issue_dram(Addr addr, bool is_write, std::uint64_t tag);
  /// True when some deferred read will be served by write forwarding:
  /// its line is in the DRAM write queue, or a deferred write to its line
  /// is queued ahead of it (FIFO retry order lands the write first).
  bool deferred_read_forwards() const;
  void request_meta_line(Txn& txn, std::uint64_t txn_id, Addr line, Role role,
                         Cycle now);
  void gather_read_needs(Txn& txn, std::uint64_t txn_id, Cycle now);
  void gather_write_needs(Txn& txn, std::uint64_t txn_id, Cycle now);
  /// `finish` is the DRAM completion's finish cycle (stamps done times);
  /// `now` is the engine tick observing it (drives dependent finishes).
  void on_meta_arrival(Addr line, Cycle finish, Cycle now);
  void maybe_finish(std::uint64_t txn_id, Cycle now);
  Cycle read_ready_time(const Txn& txn) const;
  void writeback_victim(const SetAssocCache::Result& victim);

  SecurityParams params_;
  MetadataLayout layout_;
  dram::DramSystem& dram_;
  MetadataCache meta_cache_;

  std::unordered_map<std::uint64_t, Txn> txns_;
  std::uint64_t next_txn_id_ = 1;
  std::unordered_map<Addr, MetaFetch> meta_fetches_;

  struct PendingIssue {
    Addr addr;
    bool is_write;
    std::uint64_t tag;
    /// Reads only: DramSystem::logical_bank(addr), cached so ready_bound
    /// never decodes. Logical, not physical: the remap policy can move
    /// the physical bank while the read waits.
    unsigned bank = 0;
  };
  /// Appends to issue_q_, filling the derived fields.
  void defer(PendingIssue p);
  template <class Ar>
  void fields(Ar& ar);

  std::deque<PendingIssue> issue_q_;
  std::size_t deferred_reads_ = 0;  ///< reads in issue_q_
  /// deferred_read_forwards() scratch: deferred write lines seen so far.
  mutable std::vector<Addr> write_lines_;

  std::vector<ReadReady> ready_;
  EngineStats stats_;
};

}  // namespace secddr::secmem
