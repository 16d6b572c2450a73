// Byte-exact little-endian serialization primitives for durable
// checkpoints (fleet/checkpoint.h) and the worker-pipe wire format.
//
// Sink appends fixed-width little-endian fields to a growing byte
// buffer; Source reads them back with bounds checking. Every component
// with mutable simulation state exposes save(Sink&) / load(Source&)
// hooks built on these; the container format (magic/version/CRC blocks)
// lives in fleet/checkpoint.h, keeping this layer dependency-free.
//
// Source throws std::runtime_error on underrun or a corrupt element
// count; the checkpoint codec catches and rewraps it with file/offset
// context. Doubles travel as their IEEE-754 bit patterns, so restored
// statistics are bit-identical, not merely close.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace secddr::serial {

class Sink {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  /// Every element of `v` as u32()/u64() would write it, with one buffer
  /// resize for the whole array. Checkpoints are dominated by per-line
  /// cache arrays; appending those a byte at a time made saving slow
  /// enough in sanitizer builds to trip the fleet watchdog.
  template <typename T>
  void array(const std::vector<T>& v) {
    static_assert(std::is_same_v<T, std::uint32_t> ||
                  std::is_same_v<T, std::uint64_t>);
    const std::size_t n = v.size();
    const std::size_t at = buf_.size();
    buf_.resize(at + n * sizeof(T));
    std::uint8_t* p = buf_.data() + at;
    const T* src = v.data();
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < sizeof(T); ++i)
        *p++ = static_cast<std::uint8_t>(src[k] >> (8 * i));
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Source {
 public:
  Source(const std::uint8_t* data, std::size_t n) : p_(data), end_(data + n) {}
  explicit Source(const std::vector<std::uint8_t>& v)
      : Source(v.data(), v.size()) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = static_cast<std::uint32_t>(p_[0]) |
                            static_cast<std::uint32_t>(p_[1]) << 8 |
                            static_cast<std::uint32_t>(p_[2]) << 16 |
                            static_cast<std::uint32_t>(p_[3]) << 24;
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | static_cast<std::uint64_t>(u32()) << 32;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  void bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, p_, n);
    p_ += n;
  }

  /// Reads an element count and validates it against the bytes actually
  /// left (each element occupies >= `min_bytes_per_item`), so a corrupt
  /// count can never trigger a pathological allocation.
  std::size_t count(std::size_t min_bytes_per_item = 1) {
    const std::uint64_t n = u64();
    if (min_bytes_per_item > 0 &&
        n > remaining() / min_bytes_per_item)
      throw std::runtime_error("serialized element count exceeds payload");
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n)
      throw std::runtime_error("serialized payload truncated");
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace secddr::serial
