// Byte-exact little-endian serialization primitives for durable
// checkpoints (fleet/checkpoint.h) and the worker-pipe wire format.
//
// Sink appends fixed-width little-endian fields to a growing byte
// buffer; Source reads them back with bounds checking. The container
// format (magic/version/CRC blocks) lives in fleet/checkpoint.h, keeping
// this layer dependency-free.
//
// Checkpointed state is declared once: each component and shared record
// has one `template <class Ar> void fields(Ar& ar)` listing its fields
// in payload order, which save() drives with a Sink and load() with a
// Source. `ar.u64(x)` writes x or reads into it, `ar.seq` is a counted
// sequence, `ar.array` a fixed-size one, `ar.fixed_u64` a count the
// restoring object must already have, `ar.nested` a sub-component's own
// save()/load(). Adding a field is one line in fields(). What really
// differs between directions (emission order, pointer tokens) sits
// behind `if constexpr (Ar::kLoading)`; what load() re-derives or
// validates (indexes, decoded addresses, derived counts, invariants)
// goes in load()'s tail, after fields() has read the payload. fields()
// is non-const, so a const save() calls it through const_cast: a Sink
// only reads through the references it is handed.
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
#include <utility>
#include <vector>

namespace secddr::serial {

class Sink {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  template <typename E>
    requires std::is_enum_v<E>
  void u8(E v) { u8(static_cast<std::uint8_t>(v)); }
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

  // --- fields() visitor calls (see the header comment) -----------------
  void fixed_u64(std::uint64_t v, const char*) { u64(v); }
  void fixed_u32(std::uint32_t v, const char*) { u32(v); }
  /// Element count, then `item(e)` for each element (records default to
  /// their own fields()).
  template <typename C, typename F>
  void seq(C& c, std::size_t /*min_bytes_per_item*/, F&& item) {
    u64(c.size());
    for (auto& e : c) item(e);
  }
  template <typename C>
  void seq(C& c, std::size_t min_bytes_per_item) {
    seq(c, min_bytes_per_item, [this](auto& e) { e.fields(*this); });
  }
  template <typename T>
  void nested(const T& component) {
    component.save(*this);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Source {
 public:
  static constexpr bool kLoading = true;

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

  // --- fields() visitor calls: the by-reference mirrors of Sink's ------
  template <typename T> void u8(T& v) { v = static_cast<T>(u8()); }
  void b(bool& v) { v = b(); }
  template <typename T> void u32(T& v) { v = static_cast<T>(u32()); }
  void u64(std::uint64_t& v) { v = u64(); }
  template <typename T> void i64(T& v) { v = static_cast<T>(i64()); }
  void f64(double& v) { v = f64(); }
  /// Fills all of `v` (sized by the restoring object) from Sink::array.
  template <typename T>
  void array(std::vector<T>& v) {
    static_assert(std::is_same_v<T, std::uint32_t> ||
                  std::is_same_v<T, std::uint64_t>);
    need(v.size() * sizeof(T));
    for (T& x : v) {
      x = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i)
        x |= static_cast<T>(*p_++) << (8 * i);
    }
  }
  void fixed_u64(std::uint64_t v, const char* what) {
    if (u64() != v) throw std::runtime_error(what);
  }
  void fixed_u32(std::uint32_t v, const char* what) {
    if (u32() != v) throw std::runtime_error(what);
  }
  /// Replaces `c` with a counted sequence, validating the count with
  /// count(min_bytes_per_item) before anything is allocated.
  template <typename C, typename F>
  void seq(C& c, std::size_t min_bytes_per_item, F&& item) {
    c.clear();
    const std::size_t n = count(min_bytes_per_item);
    if constexpr (requires { c.reserve(n); }) c.reserve(n);
    for (std::size_t i = 0; i < n; ++i) item(c.emplace_back());
  }
  template <typename C>
  void seq(C& c, std::size_t min_bytes_per_item) {
    seq(c, min_bytes_per_item, [this](auto& e) { e.fields(*this); });
  }
  template <typename T>
  void nested(T& component) {
    component.load(*this);
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
