// Arbitrary-precision unsigned integers for the attestation protocol.
//
// The paper's attestation uses public-key primitives implemented in the ECC
// chip (elliptic-curve multiplier + SHA unit). We substitute finite-field
// Diffie-Hellman over RFC 3526 safe-prime groups and Schnorr signatures,
// which exercise the identical protocol structure (see DESIGN.md §2). This
// header provides the modular arithmetic they need.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace secddr::crypto {

/// Unsigned big integer with 32-bit limbs (little-endian limb order).
/// Value semantics; always normalized (no high zero limbs).
class BigUInt {
 public:
  BigUInt() = default;
  /// Constructs from a 64-bit value.
  explicit BigUInt(std::uint64_t v);

  /// Parses a (case-insensitive) hex string, most significant digit first.
  static BigUInt from_hex(std::string_view hex);
  /// Parses big-endian bytes.
  static BigUInt from_bytes_be(const std::uint8_t* data, std::size_t n);
  static BigUInt from_bytes_be(const std::vector<std::uint8_t>& v) {
    return from_bytes_be(v.data(), v.size());
  }

  /// Lower-case hex, no leading zeros ("0" for zero).
  std::string to_hex() const;
  /// Big-endian bytes, minimal length (empty for zero) unless `min_len`
  /// asks for left-padding.
  std::vector<std::uint8_t> to_bytes_be(std::size_t min_len = 0) const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit `i` (LSB = 0).
  bool bit(std::size_t i) const;
  /// Low 64 bits.
  std::uint64_t low_u64() const;

  // Comparisons.
  static int compare(const BigUInt& a, const BigUInt& b);
  friend bool operator==(const BigUInt& a, const BigUInt& b) {
    return compare(a, b) == 0;
  }
  friend bool operator<(const BigUInt& a, const BigUInt& b) {
    return compare(a, b) < 0;
  }
  friend bool operator<=(const BigUInt& a, const BigUInt& b) {
    return compare(a, b) <= 0;
  }
  friend bool operator>(const BigUInt& a, const BigUInt& b) {
    return compare(a, b) > 0;
  }
  friend bool operator>=(const BigUInt& a, const BigUInt& b) {
    return compare(a, b) >= 0;
  }
  friend bool operator!=(const BigUInt& a, const BigUInt& b) {
    return compare(a, b) != 0;
  }

  // Arithmetic (aborts on subtraction underflow and division by zero).
  friend BigUInt operator+(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator-(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator/(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator%(const BigUInt& a, const BigUInt& b);
  BigUInt operator<<(unsigned bits) const;
  BigUInt operator>>(unsigned bits) const;

  /// Quotient and remainder in one pass (Knuth algorithm D).
  static void divmod(const BigUInt& num, const BigUInt& den, BigUInt& q,
                     BigUInt& r);

  /// (a * b) mod m.
  static BigUInt mod_mul(const BigUInt& a, const BigUInt& b, const BigUInt& m);
  /// (base ^ exp) mod m; aborts if m is zero. Odd moduli run Montgomery
  /// multiplication with a fixed exponent window.
  static BigUInt mod_exp(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m);

  /// Uniform value in [0, bound) using the given PRNG; bound must be > 0.
  static BigUInt random_below(Xoshiro256& rng, const BigUInt& bound);

  /// Miller-Rabin probable-prime test with `rounds` random bases.
  static bool probable_prime(const BigUInt& n, Xoshiro256& rng,
                             int rounds = 16);

 private:
  void trim();
  std::vector<std::uint32_t> limbs_;
};

}  // namespace secddr::crypto
