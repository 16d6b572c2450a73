#include "sim/prefetcher.h"

namespace secddr::sim {
namespace {
constexpr Addr kPageMask = ~static_cast<Addr>(4096 - 1);
}

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig& config)
    : config_(config), streams_(config.streams) {}

void StreamPrefetcher::train(Addr line_addr, std::vector<Addr>& out) {
  const Addr line = line_base(line_addr);
  const Addr page = line & kPageMask;

  Stream* match = nullptr;
  Stream* victim = &streams_[0];
  for (auto& s : streams_) {
    if (s.valid && s.page == page) {
      match = &s;
      break;
    }
    if (!s.valid || s.lru < victim->lru) victim = &s;
  }

  if (!match) {
    *victim = Stream{true, page, line, 0, 0, ++lru_clock_};
    return;
  }

  match->lru = ++lru_clock_;
  const std::int64_t delta =
      (static_cast<std::int64_t>(line) - static_cast<std::int64_t>(match->last_line)) /
      static_cast<std::int64_t>(kLineSize);
  if (delta == 1 || delta == -1) {
    const int dir = delta > 0 ? 1 : -1;
    match->confidence = (match->direction == dir) ? match->confidence + 1 : 1;
    match->direction = dir;
  } else if (delta != 0) {
    match->confidence = 0;
    match->direction = 0;
  }
  match->last_line = line;

  if (match->confidence >= config_.train_threshold && match->direction != 0) {
    for (unsigned i = 0; i < config_.degree; ++i) {
      const std::int64_t ahead =
          static_cast<std::int64_t>(config_.distance + i) * match->direction;
      const std::int64_t target = static_cast<std::int64_t>(line) +
                                  ahead * static_cast<std::int64_t>(kLineSize);
      if (target < 0) continue;
      const Addr t = static_cast<Addr>(target);
      if ((t & kPageMask) != page) continue;  // stop at the page boundary
      out.push_back(t);
      ++issued_;
    }
  }
}

template <class Ar>
void StreamPrefetcher::fields(Ar& ar) {
  ar.fixed_u64(streams_.size(), "prefetcher stream count mismatch");
  for (Stream& st : streams_) {
    ar.b(st.valid);
    ar.u64(st.page);
    ar.u64(st.last_line);
    ar.i64(st.direction);
    ar.u32(st.confidence);
    ar.u64(st.lru);
  }
  ar.u64(lru_clock_);
  ar.u64(issued_);
}

void StreamPrefetcher::save(serial::Sink& s) const {
  const_cast<StreamPrefetcher&>(*this).fields(s);
}
void StreamPrefetcher::load(serial::Source& s) { fields(s); }

}  // namespace secddr::sim
