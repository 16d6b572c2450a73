#include "sim/backend.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace secddr::sim {

MemoryBackend::MemoryBackend(const BackendConfig& config)
    : selector_(config.geometry),
      event_driven_(config.event_driven) {
  const unsigned n = config.geometry.channels;
  // Each channel's local data slice must be dense: the selector removes
  // the channel bits, so the data region has to be a whole number of
  // interleave stripes per channel.
  const std::uint64_t stripe = Addr{1} << selector_.shift();
  if (config.data_bytes % (static_cast<std::uint64_t>(n) * stripe) != 0)
    throw std::invalid_argument(
        "MemoryBackend: data_bytes must be a multiple of channels * "
        "interleave stripe");
  const std::uint64_t local_data = config.data_bytes / n;

  // Apply the eWCRC write-burst extension where the config requires it —
  // per channel, since each DDR interface carries its own CRC beat.
  dram::Timings timings = config.timings;
  if (config.security.ewcrc) timings = timings.with_ewcrc_burst();

  channels_.reserve(n);
  for (unsigned c = 0; c < n; ++c) {
    Channel ch;
    ch.layout =
        std::make_unique<secmem::MetadataLayout>(config.security, local_data);
    if (ch.layout->end_of_memory() > config.geometry.channel_capacity_bytes())
      throw std::invalid_argument(
          "MemoryBackend: per-channel data slice + metadata must fit in the "
          "channel");
    ch.dram = std::make_unique<dram::DramSystem>(
        config.geometry, timings, config.core_mhz, config.scheduling,
        config.power);
    ch.dram->set_event_driven(config.event_driven);
    ch.engine = std::make_unique<secmem::SecurityEngine>(
        config.security, *ch.layout, *ch.dram);
    channels_.push_back(std::move(ch));
  }
}

void MemoryBackend::tick_range(Cycle from, Cycle to) {
  for (Channel& ch : channels_) {
    if (!event_driven_ || to - from == 1) {
      // Per-cycle reference path (and single-cycle epochs): identical to
      // the pre-epoch tick sequence, kept plain so the bit-exact
      // reference loop stays untouched.
      for (Cycle t = from + 1; t <= to; ++t) {
        ch.dram->tick_core_cycle();
        ch.engine->tick(t);
      }
    } else {
      ch.engine->tick_until(from, to);
    }
  }
}

void MemoryBackend::start_read(Addr addr, std::uint64_t tag, Cycle now) {
  const unsigned c = selector_.channel_of(addr);
  channels_[c].engine->start_read(selector_.to_local(addr), tag, now);
}

void MemoryBackend::start_write(Addr addr, Cycle now) {
  const unsigned c = selector_.channel_of(addr);
  channels_[c].engine->start_write(selector_.to_local(addr), now);
}

void MemoryBackend::tick(Cycle now) { dispatch(now - 1, now); }

void MemoryBackend::run_window(Cycle from, Cycle to) {
  assert(to > from);
  dispatch(from, to);
}

void MemoryBackend::dispatch(Cycle from, Cycle to) {
  ++dispatch_epochs_;
  dispatch_cycles_ += to - from;
  tick_range(from, to);
  // Fixed channel-order gather: the MemorySystem sees ready reads in
  // channel order, whatever order they finished in.
  for (Channel& ch : channels_) {
    auto& r = ch.engine->ready();
    if (!r.empty()) {
      ready_.insert(ready_.end(), r.begin(), r.end());
      r.clear();
    }
  }
}

Cycle MemoryBackend::ready_window(Cycle now) const {
  Cycle bound = kNoEvent;
  for (const Channel& ch : channels_)
    bound = std::min(bound, ch.engine->ready_bound(now));
  return bound;
}

std::size_t MemoryBackend::outstanding() const {
  std::size_t n = ready_.size();
  for (const Channel& ch : channels_) n += ch.engine->outstanding();
  return n;
}

secmem::EngineStats MemoryBackend::engine_stats() const {
  secmem::EngineStats total;
  for (const Channel& ch : channels_) total += ch.engine->stats();
  return total;
}

dram::ControllerStats MemoryBackend::dram_stats() const {
  dram::ControllerStats total;
  for (const Channel& ch : channels_) total += ch.dram->stats();
  return total;
}

std::vector<secmem::EngineStats> MemoryBackend::engine_stats_per_channel()
    const {
  std::vector<secmem::EngineStats> v;
  v.reserve(channels_.size());
  for (const Channel& ch : channels_) v.push_back(ch.engine->stats());
  return v;
}

std::vector<dram::ControllerStats> MemoryBackend::dram_stats_per_channel()
    const {
  std::vector<dram::ControllerStats> v;
  v.reserve(channels_.size());
  for (const Channel& ch : channels_) v.push_back(ch.dram->stats());
  return v;
}

std::vector<dram::PowerReport> MemoryBackend::power_reports() {
  std::vector<dram::PowerReport> v;
  v.reserve(channels_.size());
  for (Channel& ch : channels_) v.push_back(ch.dram->power_report());
  return v;
}

std::uint64_t MemoryBackend::metadata_accesses() const {
  std::uint64_t n = 0;
  for (const Channel& ch : channels_)
    n += ch.engine->metadata_cache().accesses();
  return n;
}

double MemoryBackend::metadata_miss_rate() const {
  std::uint64_t accesses = 0, misses = 0;
  for (const Channel& ch : channels_) {
    accesses += ch.engine->metadata_cache().accesses();
    misses += ch.engine->metadata_cache().misses();
  }
  return accesses ? static_cast<double>(misses) /
                        static_cast<double>(accesses)
                  : 0.0;
}

template <class Ar>
void MemoryBackend::fields(Ar& ar) {
  ar.fixed_u32(channels(), "backend channel count mismatch");
  for (Channel& ch : channels_) {
    ar.nested(*ch.dram);
    ar.nested(*ch.engine);
  }
  ar.seq(ready_, 16);
  ar.u64(dispatch_epochs_);
  ar.u64(dispatch_cycles_);
}

void MemoryBackend::save(serial::Sink& s) const {
  const_cast<MemoryBackend&>(*this).fields(s);
}
void MemoryBackend::load(serial::Source& s) { fields(s); }

void MemoryBackend::reset_stats() {
  dispatch_epochs_ = 0;
  dispatch_cycles_ = 0;
  for (Channel& ch : channels_) {
    ch.engine->reset_stats();
    ch.dram->reset_stats();
  }
}

}  // namespace secddr::sim
