#include "dram/system.h"

#include <algorithm>
#include <cmath>

namespace secddr::dram {

DramSystem::DramSystem(const Geometry& geometry, const Timings& timings,
                       double core_clock_mhz, SchedulingPolicy policy,
                       const PowerConfig& power)
    : controller_(geometry, timings, 64, 64, policy, power),
      core_clock_mhz_(core_clock_mhz),
      mem_khz_(static_cast<std::uint64_t>(timings.clock_mhz * 1000.0)),
      core_khz_(static_cast<std::uint64_t>(core_clock_mhz * 1000.0)) {}

bool DramSystem::enqueue(Addr addr, bool is_write, std::uint64_t tag) {
  return controller_.enqueue(addr, is_write, tag, mem_cycle_);
}

void DramSystem::tick_core_cycle() {
  ++core_cycle_;
  accum_ += mem_khz_;
  while (accum_ >= core_khz_) {
    accum_ -= core_khz_;
    // Event-driven mode: a memory tick strictly before the controller's
    // next event is a guaranteed no-op — skip the call (the memoized
    // query makes this O(1)). When the controller is command-saturated,
    // every query recomputes just to answer "tick now"; a streak of such
    // answers switches to unconditionally ticking for a burst, which
    // changes nothing semantically (ticking is always correct) but stops
    // the query traffic while the bus is busy.
    if (event_driven_) {
      if (gate_burst_ > 0) {
        --gate_burst_;
      } else if (controller_.next_event_cycle(mem_cycle_) > mem_cycle_) {
        gate_streak_ = 0;
        gate_burst_len_ = kGateBurst;
        ++mem_cycle_;
        continue;
      } else if (++gate_streak_ >= kGateBurst) {
        // Saturated: tick without querying for a burst, doubling the
        // burst while the saturation persists (every query in between
        // still answered "tick now").
        gate_streak_ = 0;
        gate_burst_ = gate_burst_len_;
        gate_burst_len_ = std::min(gate_burst_len_ * 2, kGateBurstCap);
      }
    }
    controller_.tick(mem_cycle_);
    ++mem_cycle_;
  }
  // Drain controller completions into the core-clock domain.
  for (const auto& c : controller_.completions()) {
    Completion cc = c;
    cc.finish = core_cycle_;  // visible to the core now
    out_.push_back(cc);
  }
  controller_.completions().clear();
}

Cycle DramSystem::idle_core_cycles() const {
  // Saturation burst (see tick_core_cycle): the controller is issuing on
  // nearly every cycle, so the answer would be 0 anyway — return it
  // without touching the controller's next-event scan. Understating idle
  // is always exact (a skip is optional), and the burst expires within
  // at most kGateBurstCap memory ticks (it starts at kGateBurst and
  // doubles only while every query in between still answers "tick now"),
  // after which the precise query resumes.
  if (event_driven_ && gate_burst_ > 0) return 0;
  const Cycle event = controller_.next_event_cycle(mem_cycle_);
  if (event == kNoEvent) return kNoEvent;
  // The controller must run tick(event), which takes `event - mem_cycle_ + 1`
  // memory ticks; clamp so the fixed-point math below cannot overflow.
  const std::uint64_t need =
      std::min<std::uint64_t>(event - mem_cycle_ + 1, 1ull << 32);
  // Smallest k with floor((accum_ + k*mem_khz_) / core_khz_) >= need, i.e.
  // the first core tick that produces the event's memory tick. Everything
  // before it is skippable.
  const std::uint64_t k =
      (need * core_khz_ - accum_ + mem_khz_ - 1) / mem_khz_;
  return k - 1;  // k >= 1 because accum_ < core_khz_ <= need * core_khz_
}

void DramSystem::advance_idle_core_cycles(Cycle cycles) {
  // Contract: every memory tick in the window is a controller no-op (the
  // caller checked idle_core_cycles()), so only the clocks advance.
  core_cycle_ += cycles;
  accum_ += cycles * mem_khz_;
  mem_cycle_ += accum_ / core_khz_;
  accum_ %= core_khz_;
}

Cycle DramSystem::core_cycles_until_mem(Cycle mem_cycle) const {
  // Same fixed-point inversion as idle_core_cycles(), but asking for the
  // core tick that *executes* `mem_cycle` rather than the span before it.
  const std::uint64_t need =
      mem_cycle <= mem_cycle_
          ? 1
          : std::min<std::uint64_t>(mem_cycle - mem_cycle_ + 1, 1ull << 32);
  return (need * core_khz_ - accum_ + mem_khz_ - 1) / mem_khz_;
}

std::vector<Completion> DramSystem::drain_completions() {
  std::vector<Completion> v;
  v.swap(out_);
  return v;
}

Cycle DramSystem::mem_to_core(Cycle mem_cycles) const {
  return static_cast<Cycle>(
      std::ceil(static_cast<double>(mem_cycles) * core_clock_mhz_ /
                (static_cast<double>(mem_khz_) / 1000.0)));
}

template <class Ar>
void DramSystem::fields(Ar& ar) {
  ar.nested(controller_);
  ar.u32(gate_streak_);
  ar.u32(gate_burst_);
  ar.u32(gate_burst_len_);
  ar.u64(core_cycle_);
  ar.u64(mem_cycle_);
  ar.u64(accum_);
  ar.seq(out_, 33);
}

void DramSystem::save(serial::Sink& s) const {
  const_cast<DramSystem&>(*this).fields(s);
}
void DramSystem::load(serial::Source& s) { fields(s); }

}  // namespace secddr::dram
