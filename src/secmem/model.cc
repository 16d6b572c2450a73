#include "secmem/model.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace secddr::secmem {

SecurityEngine::SecurityEngine(const SecurityParams& params,
                               const MetadataLayout& layout,
                               dram::DramSystem& dram)
    : params_(params),
      layout_(layout),
      dram_(dram),
      meta_cache_(params.metadata_cache_bytes, params.metadata_cache_assoc) {}

void SecurityEngine::issue_dram(Addr addr, bool is_write, std::uint64_t tag) {
  // Preserve ordering: if anything is already queued, queue behind it.
  if (!issue_q_.empty() || !dram_.enqueue(addr, is_write, tag))
    defer({addr, is_write, tag});
}

void SecurityEngine::defer(PendingIssue p) {
  if (!p.is_write) {
    p.bank = dram_.logical_bank(p.addr);
    ++deferred_reads_;
  }
  issue_q_.push_back(p);
}

void SecurityEngine::writeback_victim(const SetAssocCache::Result& victim) {
  if (victim.evicted && victim.victim_dirty) {
    ++stats_.meta_writebacks;
    issue_dram(victim.victim_addr, true,
               make_tag(TagKind::kMetaWriteback, 0));
  }
}

void SecurityEngine::request_meta_line(Txn& txn, std::uint64_t txn_id,
                                       Addr line, Role role, Cycle now) {
  const bool hit = meta_cache_.lookup(line);
  if (hit) {
    if (txn.is_write) meta_cache_.mark_dirty(line);
    switch (role) {
      case Role::kCounter:
        txn.counter_done = now;
        break;
      case Role::kMacLine:
        txn.mac_line_done = now;
        break;
      case Role::kTreeNode:
        break;  // cached node: trusted, walk already terminated by caller
    }
    return;
  }

  // Miss: join (or start) an outstanding fetch for this line.
  switch (role) {
    case Role::kCounter:
      txn.counter_pending = true;
      break;
    case Role::kMacLine:
      txn.mac_line_pending = true;
      break;
    case Role::kTreeNode:
      txn.tree_walked = true;
      break;
  }
  ++txn.meta_outstanding;
  auto [it, inserted] = meta_fetches_.try_emplace(line);
  it->second.waiters.emplace_back(txn_id, role);
  if (inserted) {
    switch (role) {
      case Role::kCounter:
        ++stats_.counter_fetches;
        break;
      case Role::kMacLine:
        ++stats_.mac_line_fetches;
        break;
      case Role::kTreeNode:
        ++stats_.tree_node_fetches;
        break;
    }
    issue_dram(line, false, make_tag(TagKind::kMetaFetch, line));
  }
}

void SecurityEngine::gather_read_needs(Txn& txn, std::uint64_t txn_id,
                                       Cycle now) {
  const bool tree = params_.rap == Rap::kIntegrityTree;

  if (params_.enc == Encryption::kCounterMode) {
    const Addr ctr = layout_.counter_line_addr(txn.addr);
    const bool ctr_cached = meta_cache_.probe(ctr);
    request_meta_line(txn, txn_id, ctr, Role::kCounter, now);
    // Counter-tree verification: only needed when the counter line itself
    // was not already trusted on chip.
    if (tree && !params_.hash_tree_over_macs && !ctr_cached) {
      for (unsigned level = 1; level <= layout_.tree_levels(); ++level) {
        const Addr node = layout_.tree_node_addr(level, txn.addr);
        if (meta_cache_.probe(node)) {
          meta_cache_.lookup(node);  // count the terminating hit
          break;
        }
        request_meta_line(txn, txn_id, node, Role::kTreeNode, now);
      }
    }
  }

  if (!params_.macs_in_ecc && params_.verify_mac) {
    const Addr mac = layout_.mac_line_addr(txn.addr);
    const bool mac_cached = meta_cache_.probe(mac);
    request_meta_line(txn, txn_id, mac, Role::kMacLine, now);
    if (tree && params_.hash_tree_over_macs && !mac_cached) {
      for (unsigned level = 1; level <= layout_.tree_levels(); ++level) {
        const Addr node = layout_.tree_node_addr(level, txn.addr);
        if (meta_cache_.probe(node)) {
          meta_cache_.lookup(node);
          break;
        }
        request_meta_line(txn, txn_id, node, Role::kTreeNode, now);
      }
    }
  }

  if (txn.tree_walked) ++stats_.reads_with_tree_walk;
}

void SecurityEngine::gather_write_needs(Txn& txn, std::uint64_t txn_id,
                                        Cycle now) {
  const bool tree = params_.rap == Rap::kIntegrityTree;

  if (params_.enc == Encryption::kCounterMode) {
    // Counter increment: read-modify-write of the counter line.
    request_meta_line(txn, txn_id, layout_.counter_line_addr(txn.addr),
                      Role::kCounter, now);
  }
  if (!params_.macs_in_ecc && params_.verify_mac) {
    request_meta_line(txn, txn_id, layout_.mac_line_addr(txn.addr),
                      Role::kMacLine, now);
  }
  if (tree) {
    // A write updates every tree level up to the on-chip root: present
    // nodes are dirtied in place, absent nodes are fetched (RMW).
    for (unsigned level = 1; level <= layout_.tree_levels(); ++level) {
      const Addr node = layout_.tree_node_addr(level, txn.addr);
      if (meta_cache_.lookup(node)) {
        meta_cache_.mark_dirty(node);
      } else {
        txn.tree_walked = true;
        ++txn.meta_outstanding;
        auto [it, inserted] = meta_fetches_.try_emplace(node);
        it->second.waiters.emplace_back(txn_id, Role::kTreeNode);
        if (inserted) {
          ++stats_.tree_node_fetches;
          issue_dram(node, false, make_tag(TagKind::kMetaFetch, node));
        }
      }
    }
  }
}

void SecurityEngine::start_read(Addr addr, std::uint64_t tag, Cycle now) {
  const std::uint64_t txn_id = next_txn_id_++;
  Txn& txn = txns_[txn_id];
  txn.tag = tag;
  txn.addr = addr;
  txn.is_write = false;
  txn.start = now;
  txn.data_pending = true;
  ++stats_.data_reads;
  issue_dram(addr, false, make_tag(TagKind::kDataRead, txn_id));
  gather_read_needs(txn, txn_id, now);
  maybe_finish(txn_id, now);
}

void SecurityEngine::start_write(Addr addr, Cycle now) {
  const std::uint64_t txn_id = next_txn_id_++;
  Txn& txn = txns_[txn_id];
  txn.addr = addr;
  txn.is_write = true;
  txn.start = now;
  ++stats_.data_writes;
  gather_write_needs(txn, txn_id, now);
  maybe_finish(txn_id, now);
}

Cycle SecurityEngine::read_ready_time(const Txn& txn) const {
  // Decryption path.
  Cycle t;
  if (params_.enc == Encryption::kXts) {
    t = txn.data_done + params_.aes_latency;
  } else {
    // Counter-mode: the OTP needs the counter; a cached counter lets the
    // pad precompute overlap the DRAM access.
    t = std::max(txn.data_done, txn.counter_done + params_.aes_latency);
  }

  // Integrity verification paths (never speculative, §IV-B).
  if (params_.verify_mac) {
    Cycle mac_base = txn.data_done;
    if (!params_.macs_in_ecc)
      mac_base = std::max(mac_base, txn.mac_line_done);
    t = std::max(t, mac_base + params_.mac_latency);
  }
  if (params_.rap == Rap::kIntegrityTree &&
      (txn.tree_walked || txn.counter_pending || txn.mac_line_pending ||
       txn.meta_done > txn.start)) {
    // Tree levels verify in parallel once all fetches arrive.
    t = std::max(t, txn.meta_done + params_.mac_latency);
  }
  if (params_.rap == Rap::kAuthChannel) {
    t = std::max(t, txn.data_done +
                        params_.auth_channel_macs * params_.mac_latency);
  }
  return t;
}

void SecurityEngine::maybe_finish(std::uint64_t txn_id, Cycle now) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  if (txn.meta_outstanding > 0) return;

  if (txn.is_write) {
    if (!txn.write_data_issued) {
      txn.write_data_issued = true;
      issue_dram(txn.addr, true, make_tag(TagKind::kDataWrite, txn_id));
      // Posted: the transaction is complete once the write is handed to
      // the controller; metadata dirtiness already recorded.
      txns_.erase(it);
    }
    return;
  }
  if (txn.data_pending) return;
  ready_.push_back({txn.tag, std::max(now, read_ready_time(txn))});
  txns_.erase(it);
}

void SecurityEngine::on_meta_arrival(Addr line, Cycle finish, Cycle now) {
  auto fit = meta_fetches_.find(line);
  if (fit == meta_fetches_.end()) return;
  const auto waiters = std::move(fit->second.waiters);
  meta_fetches_.erase(fit);

  const auto victim = meta_cache_.install(line, false);
  writeback_victim(victim);

  for (const auto& [txn_id, role] : waiters) {
    auto it = txns_.find(txn_id);
    if (it == txns_.end()) continue;
    Txn& txn = it->second;
    assert(txn.meta_outstanding > 0);
    --txn.meta_outstanding;
    // Stamp done times with the DRAM completion's finish cycle (like the
    // data path does with data_done), not the engine tick that happened
    // to observe it, so verify latency is independent of tick granularity.
    txn.meta_done = std::max(txn.meta_done, finish);
    switch (role) {
      case Role::kCounter:
        txn.counter_done = finish;
        break;
      case Role::kMacLine:
        txn.mac_line_done = finish;
        break;
      case Role::kTreeNode:
        break;
    }
    if (txn.is_write) meta_cache_.mark_dirty(line);
    maybe_finish(txn_id, now);
  }
}

void SecurityEngine::tick(Cycle now) {
  // Retry deferred issues in order.
  while (!issue_q_.empty()) {
    const auto& p = issue_q_.front();
    if (!dram_.enqueue(p.addr, p.is_write, p.tag)) break;
    if (!p.is_write) --deferred_reads_;
    issue_q_.pop_front();
  }

  for (const auto& c : dram_.pending_completions()) {
    const auto kind = static_cast<TagKind>(c.tag >> 56);
    const std::uint64_t id = c.tag & ((1ull << 56) - 1);
    switch (kind) {
      case TagKind::kDataRead: {
        auto it = txns_.find(id);
        if (it == txns_.end()) break;
        it->second.data_pending = false;
        it->second.data_done = c.finish;
        maybe_finish(id, now);
        break;
      }
      case TagKind::kMetaFetch:
        on_meta_arrival(static_cast<Addr>(id), c.finish, now);
        break;
      case TagKind::kDataWrite:
      case TagKind::kMetaWriteback:
        break;  // posted
    }
  }
  dram_.clear_completions();
}

void SecurityEngine::tick_until(Cycle from, Cycle to) {
  Cycle t = from;
  while (t < to) {
    // The serial event-driven skip, applied channel-locally: when the
    // engine has no self-driven event and no completion is waiting to
    // surface, every core tick up to the DRAM's next event advances only
    // the clocks. Exactness is inherited from idle_core_cycles().
    if (next_event_cycle(t) == kNoEvent && !dram_.has_undrained_completions()) {
      const Cycle idle = dram_.idle_core_cycles();
      if (idle > 0) {
        const Cycle span = std::min(idle, to - t);
        dram_.advance_idle_core_cycles(span);
        t += span;
        continue;
      }
    }
    ++t;
    dram_.tick_core_cycle();
    tick(t);
    // Window contract: the caller sized `to` with ready_bound(), so no
    // fill may surface before the final tick (the backend drains ready()
    // only at epoch boundaries; an early push would reorder fills).
    if (!ready_.empty() && t != to)
      throw std::logic_error(
          "SecurityEngine::tick_until: read became ready before the epoch "
          "horizon");
  }
}

Cycle SecurityEngine::ready_bound(Cycle now) const {
  // A buffered completion surfaces (and can finish a read) next tick.
  if (dram_.has_undrained_completions()) return now + 1;
  Cycle bound = kNoEvent;
  const Cycle inflight = dram_.inflight_read_finish();
  if (inflight != kNoEvent)
    bound = now + dram_.core_cycles_until_mem(inflight);
  if (dram_.queued_reads() == 0 && deferred_reads_ == 0) return bound;
  // A queued read issues no earlier than the current memory cycle and
  // its data arrives tCL later at best (bursts only push it out); a
  // deferred read enqueues at the next tick at the earliest, with the
  // same floor — unless write data can forward it, which completes at
  // enqueue and surfaces one tick later (>= now + 2: enqueue happens
  // inside tick now+1 at the earliest). Forwarding can only lower a
  // bound that lies beyond now + 2, so the scan runs only then.
  const Cycle column = now + dram_.core_cycles_until_mem(
                                 dram_.memory_cycle() + dram_.timings().tCL);
  bound = std::min(bound, column);
  if (deferred_reads_ > 0 && bound > now + 2 && deferred_read_forwards())
    bound = now + 2;
  return bound;
}

bool SecurityEngine::deferred_read_forwards() const {
  write_lines_.clear();
  std::size_t reads_left = deferred_reads_;
  for (const PendingIssue& p : issue_q_) {
    if (p.is_write) {
      write_lines_.push_back(line_base(p.addr));
      continue;
    }
    if (dram_.has_queued_write_to_line(p.addr, p.bank)) return true;
    const Addr line = line_base(p.addr);
    for (const Addr w : write_lines_)
      if (w == line) return true;
    if (--reads_left == 0) break;  // only writes remain behind this read
  }
  return false;
}

namespace {

/// A hash map keyed by u64 as a counted (key, value) sequence. Keys are
/// written in sorted order so the bytes do not depend on bucket layout;
/// the engine only ever accesses both maps by key, so re-insertion order
/// cannot affect behavior.
template <class Ar, class Map, class F>
void sorted_map(Ar& ar, Map& map, std::size_t min_bytes_per_item, F&& value) {
  if constexpr (Ar::kLoading) {
    map.clear();
    for (std::size_t n = ar.count(min_bytes_per_item); n > 0; --n) {
      const std::uint64_t key = ar.u64();
      value(map[key]);
    }
  } else {
    std::vector<std::uint64_t> keys;
    keys.reserve(map.size());
    for (const auto& kv : map) keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    ar.u64(keys.size());
    for (const std::uint64_t key : keys) {
      ar.u64(key);
      value(map.find(key)->second);
    }
  }
}

}  // namespace

template <class Ar>
void SecurityEngine::fields(Ar& ar) {
  ar.nested(meta_cache_);
  sorted_map(ar, txns_, 8, [&ar](Txn& t) {
    ar.u64(t.tag);
    ar.u64(t.addr);
    ar.b(t.is_write);
    ar.u64(t.start);
    ar.b(t.data_pending);
    ar.u64(t.data_done);
    ar.u32(t.meta_outstanding);
    ar.u64(t.meta_done);
    ar.b(t.counter_pending);
    ar.u64(t.counter_done);
    ar.b(t.mac_line_pending);
    ar.u64(t.mac_line_done);
    ar.b(t.tree_walked);
    ar.b(t.write_data_issued);
  });
  ar.u64(next_txn_id_);
  sorted_map(ar, meta_fetches_, 8, [&ar](MetaFetch& f) {
    ar.seq(f.waiters, 9, [&ar](std::pair<std::uint64_t, Role>& w) {
      ar.u64(w.first);
      ar.u8(w.second);
    });
  });
  ar.seq(issue_q_, 17, [&ar](PendingIssue& p) {
    ar.u64(p.addr);
    ar.b(p.is_write);
    ar.u64(p.tag);
  });
  ar.seq(ready_, 16);
  stats_.fields(ar);
}

void SecurityEngine::save(serial::Sink& s) const {
  const_cast<SecurityEngine&>(*this).fields(s);
}

void SecurityEngine::load(serial::Source& s) {
  fields(s);
  // Re-queue the deferred issues through defer(), which fills each
  // read's logical bank and the deferred-read count.
  std::deque<PendingIssue> loaded;
  loaded.swap(issue_q_);
  deferred_reads_ = 0;
  for (const PendingIssue& p : loaded) defer(p);
}

}  // namespace secddr::secmem
