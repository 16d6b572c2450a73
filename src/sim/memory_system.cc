#include "sim/memory_system.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace secddr::sim {

MemorySystem::MemorySystem(const MemConfig& config, MemoryBackend& backend)
    : config_(config),
      backend_(backend),
      llc_(config.llc_bytes, config.llc_assoc),
      prefetcher_(config.prefetcher),
      mshrs_(config.mshrs) {
  l1s_.reserve(config.cores);
  for (unsigned c = 0; c < config.cores; ++c)
    l1s_.emplace_back(config.l1_bytes, config.l1_assoc);
  stats_.llc_demand_misses_per_core.assign(config.cores, 0);
  blocked_memo_.resize(config.cores);
  mshr_map_.init(config.mshrs);
  mshr_free_.reserve(config.mshrs);
  // Descending so the LIFO free list hands out the lowest index first.
  for (unsigned i = config.mshrs; i-- > 0;) mshr_free_.push_back(i);
}

int MemorySystem::find_mshr(Addr line) const {
  return mshr_map_.find(line);
}

int MemorySystem::alloc_mshr(Addr line) {
  if (mshr_free_.empty()) return -1;
  ++fill_version_;
  const unsigned idx = mshr_free_.back();
  mshr_free_.pop_back();
  mshr_map_.insert(line, idx);
  return static_cast<int>(idx);
}

void MemorySystem::release_mshr(std::size_t idx) {
  ++fill_version_;
  Mshr& m = mshrs_[idx];
  mshr_map_.erase(m.line);
  mshr_free_.push_back(static_cast<unsigned>(idx));
  m.valid = false;
  m.waiters.clear();
}

void MemorySystem::complete_at(Cycle at, bool* flag) {
  if (flag == nullptr) return;
  done_q_.push({at, flag});
}

bool MemorySystem::access_llc(unsigned core_id, Addr line, bool dirty,
                              bool* done) {
  ++stats_.llc_demand_accesses;
  const int inflight = find_mshr(line);
  if (inflight >= 0) {
    // The line is (or is being) fetched: join the fill.
    llc_.touch(line, dirty);
    if (done) mshrs_[static_cast<std::size_t>(inflight)].waiters.push_back(done);
    mshrs_[static_cast<std::size_t>(inflight)].demand = true;
    return true;
  }
  if (llc_.probe(line)) {
    llc_.touch(line, dirty);
    complete_at(now_ + config_.llc_latency, done);
    return true;
  }

  // LLC miss: allocate an MSHR and start the secure read.
  const int free = alloc_mshr(line);
  if (free < 0) return false;  // caller retries next cycle

  ++stats_.llc_demand_misses;
  ++stats_.llc_demand_misses_per_core[core_id];

  Mshr& m = mshrs_[static_cast<std::size_t>(free)];
  m.valid = true;
  m.line = line;
  m.demand = true;
  m.waiters.clear();
  if (done) m.waiters.push_back(done);

  // Install now; arrival is defined by the MSHR. Dirty victims write back
  // through the security engine.
  const auto victim = llc_.install(line, dirty);
  if (victim.evicted && victim.victim_dirty) {
    ++stats_.llc_writebacks;
    backend_.start_write(victim.victim_addr, now_);
  }
  backend_.start_read(line, static_cast<std::uint64_t>(free), now_);

  if (config_.prefetch) issue_prefetches(line);
  return true;
}

void MemorySystem::issue_prefetches(Addr line) {
  std::vector<Addr> candidates;
  prefetcher_.train(line, candidates);
  for (Addr p : candidates) {
    if (llc_.probe(p) || find_mshr(p) >= 0) continue;
    // Keep at least a quarter of the MSHRs for demand traffic.
    if (mshr_free_.size() <= config_.mshrs / 4) return;
    const int free = alloc_mshr(p);
    if (free < 0) return;
    Mshr& m = mshrs_[static_cast<std::size_t>(free)];
    m.valid = true;
    m.line = p;
    m.demand = false;
    m.waiters.clear();
    ++stats_.prefetch_fills;
    const auto victim = llc_.install(p, false);
    if (victim.evicted && victim.victim_dirty) {
      ++stats_.llc_writebacks;
      backend_.start_write(victim.victim_addr, now_);
    }
    backend_.start_read(p, static_cast<std::uint64_t>(free), now_);
  }
}

bool MemorySystem::issue_load(unsigned core_id, Addr addr, bool* done) {
  assert(core_id < l1s_.size());
  const Addr line = line_base(addr);
  // Memoized failing retry: while the line is provably blocked (missing
  // everywhere, no free MSHR — nothing has bumped fill_version_ since),
  // the retry's only effect is this exact stat bump, so the cache/MSHR
  // lookups can be skipped wholesale.
  BlockedMemo& memo = blocked_memo_[core_id];
  if (memo.blocked && memo.version == fill_version_ && memo.line == line) {
    ++stats_.l1_accesses;
    ++stats_.l1_misses;
    ++stats_.llc_demand_accesses;
    return false;
  }
  ++stats_.l1_accesses;
  SetAssocCache& l1 = l1s_[core_id];
  if (l1.probe(line)) {
    l1.touch(line, false);
    complete_at(now_ + config_.l1_latency, done);
    return true;
  }
  ++stats_.l1_misses;
  if (!access_llc(core_id, line, false, done)) {
    // access_llc fails only when the line missed everywhere and no MSHR
    // was free — exactly the blocked predicate.
    memo.version = fill_version_;
    memo.line = line;
    memo.blocked = true;
    return false;
  }
  const auto victim = l1.install(line, false);
  if (victim.evicted && victim.victim_dirty) {
    // L1 dirty eviction folds into the (inclusive) LLC.
    if (!llc_.touch(victim.victim_addr, true)) {
      ++fill_version_;  // the install below can unblock a waiting core
      const auto v2 = llc_.install(victim.victim_addr, true);
      if (v2.evicted && v2.victim_dirty) {
        ++stats_.llc_writebacks;
        backend_.start_write(v2.victim_addr, now_);
      }
    }
  }
  return true;
}

bool MemorySystem::issue_store(unsigned core_id, Addr addr) {
  assert(core_id < l1s_.size());
  const Addr line = line_base(addr);
  // Same memoized failing-retry fast path as issue_load.
  BlockedMemo& memo = blocked_memo_[core_id];
  if (memo.blocked && memo.version == fill_version_ && memo.line == line) {
    ++stats_.l1_accesses;
    ++stats_.l1_misses;
    ++stats_.llc_demand_accesses;
    return false;
  }
  ++stats_.l1_accesses;
  SetAssocCache& l1 = l1s_[core_id];
  if (l1.probe(line)) {
    l1.touch(line, true);
    return true;
  }
  ++stats_.l1_misses;
  // Write-allocate: fetch the line (RFO) then dirty it in the L1.
  if (!access_llc(core_id, line, true, nullptr)) {
    memo.version = fill_version_;
    memo.line = line;
    memo.blocked = true;
    return false;
  }
  const auto victim = l1.install(line, true);
  if (victim.evicted && victim.victim_dirty) {
    if (!llc_.touch(victim.victim_addr, true)) {
      ++fill_version_;  // the install below can unblock a waiting core
      const auto v2 = llc_.install(victim.victim_addr, true);
      if (v2.evicted && v2.victim_dirty) {
        ++stats_.llc_writebacks;
        backend_.start_write(v2.victim_addr, now_);
      }
    }
  }
  return true;
}

void MemorySystem::drain_boundary() {
  // Secure reads that are ready fill the LLC and wake their waiters.
  for (const auto& r : backend_.ready()) {
    const std::size_t idx = static_cast<std::size_t>(r.tag);
    assert(idx < mshrs_.size() && mshrs_[idx].valid);
    Mshr& m = mshrs_[idx];
    const Cycle at = std::max(r.at, now_) + config_.l1_latency;
    for (bool* w : m.waiters) complete_at(at, w);
    release_mshr(idx);
  }
  backend_.ready().clear();

  while (!done_q_.empty() && done_q_.top().at <= now_) {
    *done_q_.top().flag = true;
    done_q_.pop();
  }
}

void MemorySystem::tick() {
  ++now_;
  backend_.tick(now_);
  drain_boundary();
}

Cycle MemorySystem::window_bound() const {
  Cycle bound = backend_.ready_window(now_);
  // A completion flag scheduled for `at` must be raised by the tick that
  // advances now_ to `at` (at > now_ is an invariant: matured entries
  // are drained before this query can run), so the window may end there
  // but not later.
  if (!done_q_.empty())
    bound = std::min(bound, done_q_.top().at);
  return bound == kNoEvent ? kNoEvent : bound - now_;
}

void MemorySystem::advance_window(Cycle ticks) {
  const Cycle from = now_;
  now_ += ticks;
  backend_.run_window(from, now_);
  // Nothing became observable before the final tick (that is what
  // window_bound() guarantees), so draining once at the boundary sees
  // exactly what per-cycle draining would have seen, with the same now_.
  drain_boundary();
}

bool MemorySystem::issue_blocked_for(unsigned core_id, Addr addr) const {
  // Memoized per core against fill_version_: the predicate's inputs (MSHR
  // occupancy, the line's presence anywhere) only change at version bumps
  // — the blocked core itself issues nothing while blocked, so its L1
  // cannot change underneath the cache.
  BlockedMemo& memo = blocked_memo_[core_id];
  const Addr line = line_base(addr);
  if (memo.version == fill_version_ && memo.line == line)
    return memo.blocked;
  memo.version = fill_version_;
  memo.line = line;
  memo.blocked = mshr_free_.empty() && !l1s_[core_id].probe(line) &&
                 find_mshr(line) < 0 && !llc_.probe(line);
  return memo.blocked;
}

template <class Ar, class FlagCodec>
void MemorySystem::fields(Ar& ar, const FlagCodec& flag) {
  for (SetAssocCache& l1 : l1s_) ar.nested(l1);
  ar.nested(llc_);
  ar.nested(prefetcher_);

  ar.fixed_u64(mshrs_.size(), "MSHR count mismatch");
  for (Mshr& m : mshrs_) {
    ar.b(m.valid);
    ar.u64(m.line);
    ar.b(m.demand);
    ar.seq(m.waiters, 8, [&](bool*& w) {
      if constexpr (Ar::kLoading)
        w = flag(ar.u64());
      else
        ar.u64(flag(w));
    });
  }
  ar.seq(mshr_free_, 4, [&ar](unsigned& idx) { ar.u32(idx); });
  ar.u64(fill_version_);

  // Pending completion flags as sorted (cycle, token) pairs. Equal-cycle
  // flags are raised in the same tick, so their order is behavior-neutral,
  // but writing heap pop order would let a re-save reorder them.
  std::vector<std::pair<Cycle, std::uint64_t>> done;
  if constexpr (!Ar::kLoading) {
    for (auto q = done_q_; !q.empty(); q.pop())
      done.emplace_back(q.top().at, flag(q.top().flag));
    std::sort(done.begin(), done.end());
  }
  ar.seq(done, 16, [&ar](std::pair<Cycle, std::uint64_t>& d) {
    ar.u64(d.first);
    ar.u64(d.second);
  });
  if constexpr (Ar::kLoading) {
    done_q_ = {};
    for (const auto& [at, token] : done) done_q_.push({at, flag(token)});
  }

  ar.u64(now_);
  stats_.fields(ar);
}

void MemorySystem::save(serial::Sink& s, const FlagEncoder& encode_flag) const {
  const_cast<MemorySystem&>(*this).fields(s, encode_flag);
}

void MemorySystem::load(serial::Source& s, const FlagDecoder& decode_flag) {
  fields(s, decode_flag);

  // Re-derive the MSHR lookup table. The memo is a pure accelerator: a
  // fresh (empty) memo recomputes the predicate on first query and
  // records the identical statistics a hit would have, so resetting it
  // cannot change results.
  mshr_map_.init(static_cast<unsigned>(mshrs_.size()));
  for (std::size_t i = 0; i < mshrs_.size(); ++i)
    if (mshrs_[i].valid)
      mshr_map_.insert(mshrs_[i].line, static_cast<unsigned>(i));
  for (const unsigned idx : mshr_free_)
    if (idx >= mshrs_.size())
      throw std::runtime_error("MSHR free-list index out of range");
  blocked_memo_.assign(config_.cores, BlockedMemo{});
}

}  // namespace secddr::sim
