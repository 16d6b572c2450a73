#include "crypto/bignum.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace secddr::crypto {
namespace {

// The header's documented aborts: always on, since Release drops assert().
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "BigUInt: %s\n", what);
  std::abort();
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt::BigUInt(std::uint64_t v) {
  if (v) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  BigUInt r;
  for (char c : hex) {
    if (c == '_' || c == ' ' || c == '\n' || c == '\t') continue;
    const int d = hex_digit(c);
    assert(d >= 0 && "invalid hex digit");
    r = (r << 4) + BigUInt(static_cast<std::uint64_t>(d));
  }
  return r;
}

BigUInt BigUInt::from_bytes_be(const std::uint8_t* data, std::size_t n) {
  BigUInt r;
  r.limbs_.assign((n + 3) / 4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t byte_from_lsb = n - 1 - i;
    r.limbs_[byte_from_lsb / 4] |= static_cast<std::uint32_t>(data[i])
                                   << (8 * (byte_from_lsb % 4));
  }
  r.trim();
  return r;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4)
      s.push_back(kDigits[(limbs_[i] >> shift) & 0xf]);
  }
  const std::size_t first = s.find_first_not_of('0');
  return s.substr(first);
}

std::vector<std::uint8_t> BigUInt::to_bytes_be(std::size_t min_len) const {
  std::vector<std::uint8_t> out;
  const std::size_t nbytes = (bit_length() + 7) / 8;
  const std::size_t total = std::max(nbytes, min_len);
  out.assign(total, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    const std::uint32_t limb = limbs_[i / 4];
    out[total - 1 - i] = static_cast<std::uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUInt::low_u64() const {
  std::uint64_t v = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigUInt::compare(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUInt operator+(const BigUInt& a, const BigUInt& b) {
  BigUInt r;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  r.limbs_.resize(n);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    r.limbs_[i] = static_cast<std::uint32_t>(s);
    carry = s >> 32;
  }
  if (carry) r.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return r;
}

BigUInt operator-(const BigUInt& a, const BigUInt& b) {
  if (a < b) die("subtraction underflow");
  BigUInt r;
  r.limbs_.resize(a.limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) d -= b.limbs_[i];
    if (d < 0) {
      d += (1ll << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    r.limbs_[i] = static_cast<std::uint32_t>(d);
  }
  r.trim();
  return r;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt();
  BigUInt r;
  r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(r.limbs_[i + j]) + ai * b.limbs_[j] + carry;
      r.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry) {
      const std::uint64_t cur = static_cast<std::uint64_t>(r.limbs_[k]) + carry;
      r.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  r.trim();
  return r;
}

BigUInt BigUInt::operator<<(unsigned bits) const {
  if (is_zero()) return BigUInt();
  const unsigned limb_shift = bits / 32;
  const unsigned bit_shift = bits % 32;
  BigUInt r;
  r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    r.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    r.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  r.trim();
  return r;
}

BigUInt BigUInt::operator>>(unsigned bits) const {
  const unsigned limb_shift = bits / 32;
  const unsigned bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigUInt();
  BigUInt r;
  r.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    r.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  r.trim();
  return r;
}

void BigUInt::divmod(const BigUInt& num, const BigUInt& den, BigUInt& q,
                     BigUInt& r) {
  if (den.is_zero()) die("division by zero");
  if (compare(num, den) < 0) {
    q = BigUInt();
    r = num;
    return;
  }
  if (den.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    const std::uint64_t d = den.limbs_[0];
    q.limbs_.assign(num.limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | num.limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    r = BigUInt(rem);
    return;
  }

  // Knuth Algorithm D. Normalize so the top divisor limb has its MSB set.
  unsigned shift = 0;
  {
    std::uint32_t top = den.limbs_.back();
    while (!(top & 0x80000000u)) {
      top <<= 1;
      ++shift;
    }
  }
  const BigUInt u = num << shift;
  const BigUInt v = den << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // extra high limb
  const std::vector<std::uint32_t>& vn = v.limbs_;

  q.limbs_.assign(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t top =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = top / vn[n - 1];
    std::uint64_t rhat = top % vn[n - 1];
    while (qhat >= (1ull << 32) ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= (1ull << 32)) break;
    }
    // Multiply-subtract.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t =
          static_cast<std::int64_t>(un[i + j]) -
          static_cast<std::int64_t>(static_cast<std::uint32_t>(p)) - borrow;
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = t < 0 ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    un[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add back.
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + c);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  q.trim();

  BigUInt rem;
  rem.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  rem.trim();
  r = rem >> shift;
}

BigUInt operator/(const BigUInt& a, const BigUInt& b) {
  BigUInt q, r;
  BigUInt::divmod(a, b, q, r);
  return q;
}

BigUInt operator%(const BigUInt& a, const BigUInt& b) {
  BigUInt q, r;
  BigUInt::divmod(a, b, q, r);
  return r;
}

BigUInt BigUInt::mod_mul(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  return (a * b) % m;
}

namespace {

// Montgomery arithmetic over 64-bit limbs, for odd moduli.

using u128 = unsigned __int128;

// -m^-1 mod 2^64 for odd m0: Newton's iteration doubles the correct low
// bits each step, from the 3 that x = m0 already gets right.
std::uint64_t neg_inverse_u64(std::uint64_t m0) {
  std::uint64_t x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return 0 - x;
}

// out = a * b * R^-1 mod m with R = 2^(64n), for a, b < m (CIOS). `t`
// is n + 2 limbs of scratch; `out` may alias `a` or `b`.
void mont_mul(std::uint64_t* out, const std::uint64_t* a,
              const std::uint64_t* b, const std::uint64_t* m,
              std::uint64_t m_inv, std::size_t n, std::uint64_t* t) {
  std::fill(t, t + n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(cur);
    t[n + 1] = static_cast<std::uint64_t>(cur >> 64);

    // Add q*m with q chosen so the low limb cancels, then shift one limb.
    const std::uint64_t q = t[0] * m_inv;
    cur = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<std::uint64_t>(cur >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<std::uint64_t>(cur);
    t[n] = t[n + 1] + static_cast<std::uint64_t>(cur >> 64);
  }
  // t < 2m: one conditional subtraction.
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(t[j]) - m[j] - borrow;
    out[j] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  if (borrow && t[n] == 0) std::copy(t, t + n, out);
}

}  // namespace

BigUInt BigUInt::mod_exp(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m) {
  if (m.is_zero()) die("mod_exp with zero modulus");
  if (m == BigUInt(1)) return BigUInt();
  const std::size_t nbits = exp.bit_length();
  if (!m.is_odd()) {
    // Montgomery reduction needs an odd modulus: square-and-multiply.
    BigUInt result(1);
    BigUInt b = base % m;
    for (std::size_t i = 0; i < nbits; ++i) {
      if (exp.bit(i)) result = mod_mul(result, b, m);
      b = mod_mul(b, b, m);
    }
    return result;
  }
  if (nbits == 0) return BigUInt(1);

  // Montgomery form over n 64-bit limbs, R = 2^(64n); fixed windows of
  // w exponent bits against a table of base^0 .. base^(2^w - 1). The
  // 5-bit table's 16 extra products pay off above ~320 exponent bits.
  const std::size_t n = (m.limbs_.size() + 1) / 2;
  const unsigned w = nbits > 320 ? 5 : 4;
  const std::size_t entries = std::size_t{1} << w;
  std::vector<std::uint64_t> buf((entries + 3) * n + n + 2);
  std::uint64_t* const mod = buf.data();
  std::uint64_t* const aux = mod + n;  // R^2 mod m, later the constant 1
  std::uint64_t* const acc = aux + n;
  std::uint64_t* const table = acc + n;
  std::uint64_t* const scratch = table + entries * n;  // n + 2 limbs

  const auto pack = [n](const BigUInt& v, std::uint64_t* out) {
    std::fill(out, out + n, 0);
    for (std::size_t i = 0; i < v.limbs_.size(); ++i)
      out[i / 2] |= static_cast<std::uint64_t>(v.limbs_[i]) << (32 * (i % 2));
  };
  pack(m, mod);
  const std::uint64_t m_inv = neg_inverse_u64(mod[0]);
  const auto mul = [&](std::uint64_t* out, const std::uint64_t* a,
                       const std::uint64_t* b) {
    mont_mul(out, a, b, mod, m_inv, n, scratch);
  };

  pack((BigUInt(1) << static_cast<unsigned>(128 * n)) % m, aux);
  pack(base % m, acc);
  mul(table + n, acc, aux);  // base * R
  std::fill(acc, acc + n, 0);
  acc[0] = 1;
  mul(table, aux, acc);  // R
  for (std::size_t i = 2; i < entries; ++i)
    mul(table + i * n, table + (i - 1) * n, table + n);

  const auto window = [&](std::size_t lo) {
    std::size_t v = 0;
    for (unsigned k = w; k-- > 0;) v = (v << 1) | exp.bit(lo + k);
    return v;
  };
  std::size_t lo = (nbits - 1) / w * w;  // top window, possibly partial
  std::copy_n(table + window(lo) * n, n, acc);
  while (lo > 0) {
    lo -= w;
    for (unsigned k = 0; k < w; ++k) mul(acc, acc, acc);
    if (const std::size_t d = window(lo)) mul(acc, acc, table + d * n);
  }

  // Leave Montgomery form: acc * 1 * R^-1.
  std::fill(aux, aux + n, 0);
  aux[0] = 1;
  mul(acc, acc, aux);
  BigUInt r;
  r.limbs_.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    r.limbs_[2 * i] = static_cast<std::uint32_t>(acc[i]);
    r.limbs_[2 * i + 1] = static_cast<std::uint32_t>(acc[i] >> 32);
  }
  r.trim();
  return r;
}

BigUInt BigUInt::random_below(Xoshiro256& rng, const BigUInt& bound) {
  assert(!bound.is_zero());
  const std::size_t nbits = bound.bit_length();
  const std::size_t nlimbs = (nbits + 31) / 32;
  for (;;) {
    BigUInt r;
    r.limbs_.resize(nlimbs);
    for (auto& limb : r.limbs_) limb = static_cast<std::uint32_t>(rng.next());
    // Mask the top limb down to the bound's bit length.
    const unsigned top_bits = static_cast<unsigned>(nbits % 32);
    if (top_bits)
      r.limbs_.back() &= (1u << top_bits) - 1;
    r.trim();
    if (compare(r, bound) < 0) return r;
  }
}

bool BigUInt::probable_prime(const BigUInt& n, Xoshiro256& rng, int rounds) {
  if (n < BigUInt(2)) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    const BigUInt bp(p);
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }
  // n - 1 = d * 2^s with d odd.
  const BigUInt n_minus_1 = n - BigUInt(1);
  BigUInt d = n_minus_1;
  unsigned s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    const BigUInt a = BigUInt(2) + random_below(rng, n - BigUInt(4));
    BigUInt x = mod_exp(a, d, n);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (unsigned i = 1; i < s; ++i) {
      x = mod_mul(x, x, n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace secddr::crypto
