// Per-bank DRAM state machine and per-bank request FIFO.
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.h"
#include "dram/address.h"

namespace secddr::dram {

/// Timing state of one DRAM bank. The controller consults the `next_*`
/// earliest-allowed cycles before issuing a command and updates them on
/// issue; the bank itself only tracks the open row.
struct Bank {
  static constexpr std::int64_t kClosed = -1;

  std::int64_t open_row = kClosed;
  Cycle next_activate = 0;
  Cycle next_read = 0;
  Cycle next_write = 0;
  Cycle next_precharge = 0;

  bool is_open() const { return open_row != kClosed; }

  /// Applies an ACTIVATE issued at `now`.
  void activate(std::uint64_t row, Cycle now, unsigned tRCD, unsigned tRAS) {
    open_row = static_cast<std::int64_t>(row);
    next_read = std::max(next_read, now + tRCD);
    next_write = std::max(next_write, now + tRCD);
    next_precharge = std::max(next_precharge, now + tRAS);
  }

  /// Applies a PRECHARGE issued at `now`.
  void precharge(Cycle now, unsigned tRP) {
    open_row = kClosed;
    next_activate = std::max(next_activate, now + tRP);
  }
};

/// One queued controller transaction. `seq` is the global arrival order
/// (unique, monotone), which is what FR-FCFS ages and tie-breaks on now
/// that entries live in per-bank FIFOs instead of one global deque.
struct Request {
  Addr addr;
  DecodedAddr d;
  std::uint64_t tag;
  Cycle arrival;
  std::uint64_t seq;
  bool activated_for = false;  ///< an ACT was issued on this entry's behalf

  /// Checkpoint fields. `d` is a pure function of the address (through
  /// the remap table), so the controller re-decodes it on load.
  template <class Ar>
  void fields(Ar& ar) {
    ar.u64(addr);
    ar.u64(tag);
    ar.u64(arrival);
    ar.u64(seq);
    ar.b(activated_for);
  }
};

/// Per-(bank, direction) request FIFO. Entries stay in arrival order, so
/// the FIFO head is the bank's oldest request and `seq` comparisons across
/// banks reconstruct the global arrival order exactly.
///
/// `match_count` caches how many queued entries target the currently open
/// row; it is only meaningful while the bank is open (the controller
/// recounts on ACTIVATE and ignores it while the bank is closed). It lets
/// the issue and next-event scans classify a bank as "has row hits" /
/// "has conflicts" in O(1) instead of walking the FIFO.
struct BankQueue {
  std::deque<Request> q;
  unsigned match_count = 0;

  bool empty() const { return q.empty(); }
  std::size_t size() const { return q.size(); }
  /// Queued entries that do NOT target the open row (valid while open).
  std::size_t mismatch_count() const { return q.size() - match_count; }

  /// Index of the oldest entry targeting `row`, or -1. The caller reports
  /// entries examined via `visited` (scan-cost accounting).
  int first_match(std::uint64_t row, std::uint64_t* visited) const;
  /// Index of the oldest entry NOT targeting `row`, or -1.
  int first_mismatch(std::uint64_t row, std::uint64_t* visited) const;
  /// Recomputes `match_count` against `open_row` (called on ACTIVATE).
  void recount(std::int64_t open_row);
};

}  // namespace secddr::dram
