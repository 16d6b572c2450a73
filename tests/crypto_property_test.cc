// Additional crypto property sweeps: parameterized round-trips, algebraic
// identities, and edge cases beyond the published-vector tests.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "crypto/aes.h"
#include "crypto/aes_ctr.h"
#include "crypto/aes_xts.h"
#include "crypto/bignum.h"
#include "crypto/cmac.h"
#include "crypto/crc.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace secddr::crypto {
namespace {

// ------------------------------------------------------------ AES-256

TEST(Aes256, RoundTripRandom) {
  Xoshiro256 rng(21);
  for (int i = 0; i < 100; ++i) {
    Key256 key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    const Aes aes(key);
    Block pt;
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(aes.decrypt(aes.encrypt(pt)), pt);
  }
}

TEST(Aes256, FourteenRounds) {
  const Aes aes(Key256{});
  EXPECT_EQ(aes.rounds(), 14);
  EXPECT_EQ(Aes(Key128{}).rounds(), 10);
}

// ------------------------------------------------------------ CTR

class CtrLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CtrLengths, EncryptDecryptIdentityAtEveryLength) {
  const Aes aes(Key128{3, 1, 4});
  const Block nonce = make_nonce(99, 'T', 2);
  Xoshiro256 rng(23);
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const auto orig = data;
  ctr_xcrypt(aes, nonce, data.data(), data.size());
  if (!data.empty()) {
    EXPECT_NE(data, orig);
  }
  ctr_xcrypt(aes, nonce, data.data(), data.size());
  EXPECT_EQ(data, orig);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CtrLengths,
                         ::testing::Values(1, 15, 16, 17, 31, 32, 33, 64,
                                           100, 256));

TEST(CtrKeystream, PrefixConsistency) {
  // The first N bytes of a longer keystream equal the N-byte keystream.
  const Aes aes(Key128{9});
  const Block nonce = make_nonce(5, 'T', 0);
  const auto long_ks = ctr_keystream(aes, nonce, 128);
  const auto short_ks = ctr_keystream(aes, nonce, 40);
  EXPECT_TRUE(std::equal(short_ks.begin(), short_ks.end(), long_ks.begin()));
}

// ------------------------------------------------------------ XTS

class XtsSectors : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XtsSectors, RoundTripAndSectorSeparation) {
  const AesXts xts(Key128{1, 2}, Key128{3, 4});
  CacheLine line = CacheLine::filled(0xC3);
  CacheLine other = line;
  xts.encrypt(GetParam(), line.bytes.data(), line.bytes.size());
  xts.encrypt(GetParam() + 1, other.bytes.data(), other.bytes.size());
  EXPECT_FALSE(line == other) << "adjacent sectors must differ";
  xts.decrypt(GetParam(), line.bytes.data(), line.bytes.size());
  EXPECT_EQ(line, CacheLine::filled(0xC3));
}

INSTANTIATE_TEST_SUITE_P(Sectors, XtsSectors,
                         ::testing::Values(0ull, 1ull, 0xFFull, 0x10000ull,
                                           0xFFFFFFFFull,
                                           0x123456789ABCDEFull));

TEST(Xts, BlockPositionsWithinUnitDiffer) {
  // Identical 16B blocks at different positions of one unit encrypt
  // differently (the per-block tweak progression).
  const AesXts xts(Key128{5}, Key128{6});
  CacheLine line = CacheLine::filled(0x00);
  xts.encrypt(7, line.bytes.data(), line.bytes.size());
  for (int i = 1; i < 4; ++i) {
    EXPECT_FALSE(std::equal(line.bytes.begin(), line.bytes.begin() + 16,
                            line.bytes.begin() + 16 * i))
        << "block " << i;
  }
}

// ------------------------------------------------------------ CMAC/HMAC

TEST(CmacProperties, LengthExtensionResistance) {
  // tag(m) gives no valid tag for m||suffix (sampled check).
  const Cmac cmac(Key128{7});
  const std::uint8_t m[32] = {1, 2, 3};
  const Block t32 = cmac.tag(m, 32);
  std::uint8_t extended[48] = {1, 2, 3};
  const Block t48 = cmac.tag(extended, 48);
  EXPECT_NE(t32, t48);
}

TEST(CmacProperties, KeySeparation) {
  const std::uint8_t m[16] = {9};
  EXPECT_NE(Cmac(Key128{1}).tag(m, 16), Cmac(Key128{2}).tag(m, 16));
}

TEST(HmacProperties, KeyAndMessageSensitivity) {
  const std::vector<std::uint8_t> k1 = {1}, k2 = {2}, msg = {5, 6, 7};
  EXPECT_NE(hmac_sha256(k1, msg), hmac_sha256(k2, msg));
  EXPECT_NE(hmac_sha256(k1, msg), hmac_sha256(k1, {5, 6, 8}));
}

TEST(HkdfProperties, OutputsAreIndependentPerInfo) {
  const std::vector<std::uint8_t> ikm(32, 0xAB);
  const auto a = hkdf({}, ikm, {'a'}, 32);
  const auto b = hkdf({}, ikm, {'b'}, 32);
  EXPECT_NE(a, b);
  // And length-consistent: prefix property.
  const auto a16 = hkdf({}, ikm, {'a'}, 16);
  EXPECT_TRUE(std::equal(a16.begin(), a16.end(), a.begin()));
}

// ------------------------------------------------------------ CRC

TEST(CrcProperties, LinearityOverXor) {
  // CRC(a) ^ CRC(b) == CRC(a^b) ^ CRC(0) for equal-length inputs: the
  // linearity that makes a plain (unencrypted) CRC forgeable — the
  // reason SecDDR must encrypt the eWCRC (§III-B).
  Xoshiro256 rng(29);
  std::uint8_t a[24], b[24], x[24], zero[24] = {};
  for (int i = 0; i < 24; ++i) {
    a[i] = static_cast<std::uint8_t>(rng.next());
    b[i] = static_cast<std::uint8_t>(rng.next());
    x[i] = a[i] ^ b[i];
  }
  EXPECT_EQ(static_cast<std::uint16_t>(crc16(a, 24) ^ crc16(b, 24)),
            static_cast<std::uint16_t>(crc16(x, 24) ^ crc16(zero, 24)));
}

TEST(CrcProperties, DetectsAllBurstErrorsUpTo16Bits) {
  // CRC-16 detects any burst error shorter than the polynomial degree.
  std::uint8_t data[32] = {};
  const std::uint16_t base = crc16(data, 32);
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    auto copy = std::to_array(data);
    const unsigned start = static_cast<unsigned>(rng.next_below(32 * 8 - 16));
    const unsigned len = 1 + static_cast<unsigned>(rng.next_below(16));
    // Random non-zero burst of `len` bits starting at `start`.
    bool nonzero = false;
    for (unsigned i = 0; i < len; ++i) {
      if (i == 0 || rng.chance(0.5)) {
        copy[(start + i) / 8] ^= static_cast<std::uint8_t>(1u << ((start + i) % 8));
        nonzero = true;
      }
    }
    if (!nonzero) continue;
    EXPECT_NE(crc16(copy.data(), 32), base)
        << "missed burst at " << start << " len " << len;
  }
}

// ------------------------------------------------------------ BigUInt

TEST(BigUIntProperties, AlgebraicIdentities) {
  Xoshiro256 rng(37);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> bytes(1 + rng.next_below(32));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    const BigUInt a = BigUInt::from_bytes_be(bytes);
    EXPECT_EQ(a + BigUInt(0), a);
    EXPECT_EQ(a * BigUInt(1), a);
    EXPECT_EQ(a - a, BigUInt(0));
    EXPECT_EQ(a / BigUInt(1), a);
    if (!a.is_zero()) {
      EXPECT_EQ(a % a, BigUInt(0));
      EXPECT_EQ(a / a, BigUInt(1));
    }
    EXPECT_EQ((a << 32) >> 32, a);
    EXPECT_EQ(a * BigUInt(2), a + a);
  }
}

TEST(BigUIntProperties, ModExpHomomorphism) {
  // g^(x+y) == g^x * g^y (mod p) for a small prime field.
  const BigUInt p(1000003);
  Xoshiro256 rng(41);
  for (int i = 0; i < 50; ++i) {
    const BigUInt g(2 + rng.next_below(1000));
    const BigUInt x(rng.next_below(10000));
    const BigUInt y(rng.next_below(10000));
    const BigUInt lhs = BigUInt::mod_exp(g, x + y, p);
    const BigUInt rhs = BigUInt::mod_mul(BigUInt::mod_exp(g, x, p),
                                         BigUInt::mod_exp(g, y, p), p);
    EXPECT_EQ(lhs, rhs);
  }
}

// Reference exponentiation: right-to-left square-and-multiply built only
// from mod_mul, i.e. schoolbook multiply + Knuth-D remainder.
BigUInt reference_mod_exp(const BigUInt& base, const BigUInt& exp,
                          const BigUInt& m) {
  BigUInt result = BigUInt(1) % m;
  BigUInt b = base % m;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = BigUInt::mod_mul(result, b, m);
    b = BigUInt::mod_mul(b, b, m);
  }
  return result;
}

// Uniform value of exactly `bits` bits (top bit set); 0 for bits == 0.
BigUInt random_bits(Xoshiro256& rng, std::size_t bits) {
  if (bits == 0) return BigUInt();
  std::vector<std::uint8_t> bytes((bits + 7) / 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  const unsigned top = static_cast<unsigned>((bits - 1) % 8);
  bytes[0] &= static_cast<std::uint8_t>((2u << top) - 1);
  bytes[0] |= static_cast<std::uint8_t>(1u << top);
  return BigUInt::from_bytes_be(bytes);
}

BigUInt make_odd(const BigUInt& v) { return v.is_odd() ? v : v + BigUInt(1); }

// Odd moduli of every 32-bit limb count up to 65: odd counts leave the
// top 64-bit Montgomery limb half empty.
TEST(BigUIntProperties, ModExpMatchesReferenceAcrossLimbCounts) {
  Xoshiro256 rng(53);
  for (std::size_t limbs = 1; limbs <= 65; ++limbs) {
    const BigUInt m = make_odd(random_bits(rng, 32 * limbs));
    ASSERT_TRUE(m.is_odd());
    for (int trial = 0; trial < 3; ++trial) {
      // Bases up to one limb wider than m (often >= m), exponents short
      // enough to keep the reference cheap.
      const BigUInt base = random_bits(rng, rng.next_below(32 * limbs + 33));
      const BigUInt exp = random_bits(rng, rng.next_below(200));
      EXPECT_EQ(BigUInt::mod_exp(base, exp, m), reference_mod_exp(base, exp, m))
          << "limbs " << limbs << " trial " << trial;
    }
  }
}

TEST(BigUIntProperties, ModExpEdgeModuliBasesAndExponents) {
  Xoshiro256 rng(59);
  std::vector<BigUInt> moduli = {BigUInt(1), BigUInt(3), BigUInt(5),
                                 BigUInt(0xffffffff), BigUInt(1000)};
  // Top 32-bit limb of 1, for odd and even limb counts.
  for (unsigned limbs : {2u, 3u, 4u, 5u, 17u, 48u, 49u})
    moduli.push_back(make_odd((BigUInt(1) << (32 * (limbs - 1))) +
                              random_bits(rng, 32 * (limbs - 1) - 3)));
  // All-ones top limbs (like the RFC 3526 primes): the Montgomery
  // accumulator's top carry limb is live.
  for (unsigned limbs : {2u, 3u, 24u, 48u, 63u})
    moduli.push_back((BigUInt(1) << (32 * limbs)) -
                     make_odd(random_bits(rng, 29)));
  for (const BigUInt& m : moduli) {
    const BigUInt bases[] = {BigUInt(0), BigUInt(1), BigUInt(2),
                             m - BigUInt(1), m, m + BigUInt(1),
                             m + m + BigUInt(5),
                             random_bits(rng, m.bit_length() + 40)};
    const BigUInt exps[] = {BigUInt(0), BigUInt(1), BigUInt(2), BigUInt(31),
                            BigUInt(32), random_bits(rng, 97),
                            random_bits(rng, 300)};
    for (const BigUInt& b : bases) {
      for (const BigUInt& e : exps) {
        EXPECT_EQ(BigUInt::mod_exp(b, e, m), reference_mod_exp(b, e, m))
            << "m=" << m.to_hex() << " b=" << b.to_hex() << " e=" << e.to_hex();
      }
    }
  }
}

// Full-width operands at the two attestation group sizes.
TEST(BigUIntProperties, ModExpMatchesReferenceAtGroupSizes) {
  Xoshiro256 rng(61);
  for (std::size_t bits : {1536u, 2048u}) {
    for (int trial = 0; trial < 4; ++trial) {
      // The last trial sits just below 2^bits, as the RFC 3526 primes do.
      const BigUInt m = trial < 3 ? make_odd(random_bits(rng, bits))
                                  : (BigUInt(1) << static_cast<unsigned>(bits)) -
                                        make_odd(random_bits(rng, 29));
      const BigUInt base = random_bits(rng, bits);
      const BigUInt exp = random_bits(rng, bits);
      EXPECT_EQ(BigUInt::mod_exp(base, exp, m), reference_mod_exp(base, exp, m))
          << bits << "-bit trial " << trial;
    }
  }
}

TEST(BigUIntProperties, CompareIsTotalOrder) {
  const BigUInt a(5), b(500), c = BigUInt::from_hex("ffffffffffffffffff");
  EXPECT_TRUE(a < b && b < c && a < c);
  EXPECT_FALSE(c < a);
  EXPECT_TRUE(a <= a && a >= a && a == a);
}

// ------------------------------------------------------------ SHA-256

TEST(Sha256Properties, ChunkingInvariance) {
  // Hash must not depend on update() call boundaries.
  Xoshiro256 rng(43);
  std::vector<std::uint8_t> data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const auto whole = sha256(data.data(), data.size());
  Sha256 h;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t take =
        std::min<std::size_t>(1 + rng.next_below(97), data.size() - off);
    h.update(data.data() + off, take);
    off += take;
  }
  EXPECT_EQ(h.finish(), whole);
}

}  // namespace
}  // namespace secddr::crypto
