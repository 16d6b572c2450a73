// Crypto substrate tests: published test vectors plus property tests.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "crypto/aes.h"
#include "crypto/aes_ctr.h"
#include "crypto/aes_xts.h"
#include "crypto/bignum.h"
#include "crypto/cert.h"
#include "crypto/cmac.h"
#include "crypto/crc.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace secddr::crypto {
namespace {

std::vector<std::uint8_t> unhex(const std::string& s) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(s.substr(i, 2), nullptr, 16)));
  return out;
}

template <std::size_t N>
std::array<std::uint8_t, N> arr(const std::string& hex) {
  const auto v = unhex(hex);
  std::array<std::uint8_t, N> a{};
  EXPECT_EQ(v.size(), N);
  std::memcpy(a.data(), v.data(), N);
  return a;
}

// ---------------------------------------------------------------- AES

TEST(Aes, Fips197Aes128Vector) {
  const Aes aes(arr<16>("000102030405060708090a0b0c0d0e0f"));
  Block b = arr<16>("00112233445566778899aabbccddeeff");
  aes.encrypt_block(b);
  EXPECT_EQ(to_hex(b), "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes.decrypt_block(b);
  EXPECT_EQ(to_hex(b), "00112233445566778899aabbccddeeff");
}

TEST(Aes, Fips197Aes256Vector) {
  const Aes aes(
      arr<32>("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  Block b = arr<16>("00112233445566778899aabbccddeeff");
  aes.encrypt_block(b);
  EXPECT_EQ(to_hex(b), "8ea2b7ca516745bfeafc49904b496089");
  aes.decrypt_block(b);
  EXPECT_EQ(to_hex(b), "00112233445566778899aabbccddeeff");
}

TEST(Aes, Sp80038aAes128EcbVectors) {
  // NIST SP 800-38A F.1.1 ECB-AES128.Encrypt.
  const Aes aes(arr<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  struct {
    const char* pt;
    const char* ct;
  } cases[] = {
      {"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
      {"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
      {"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
      {"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"},
  };
  for (const auto& c : cases) {
    Block b = arr<16>(c.pt);
    aes.encrypt_block(b);
    EXPECT_EQ(to_hex(b), c.ct);
  }
}

TEST(Aes, EncryptDecryptRoundTripRandom) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Key128 key;
    for (auto& k : key) k = static_cast<std::uint8_t>(rng.next());
    Block pt;
    for (auto& p : pt) p = static_cast<std::uint8_t>(rng.next());
    const Aes aes(key);
    Block ct = aes.encrypt(pt);
    EXPECT_NE(ct, pt);
    EXPECT_EQ(aes.decrypt(ct), pt);
  }
}

// ---------------------------------------------------------------- CTR

TEST(AesCtr, Sp80038aCtrVector) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt.
  const Aes aes(arr<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  Block nonce = arr<16>("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  auto data = unhex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  ctr_xcrypt(aes, nonce, data.data(), data.size());
  EXPECT_EQ(to_hex(data.data(), data.size()),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff");
}

TEST(AesCtr, KeystreamMatchesXcrypt) {
  const Aes aes(Key128{1, 2, 3});
  const Block nonce = make_nonce(0x1234, 'R', 1);
  const auto ks = ctr_keystream(aes, nonce, 80);
  std::vector<std::uint8_t> zeros(80, 0);
  ctr_xcrypt(aes, nonce, zeros.data(), zeros.size());
  EXPECT_EQ(ks, zeros);
}

TEST(AesCtr, NonceDomainsAreDisjoint) {
  const Aes aes(Key128{9});
  const auto a = ctr_keystream(aes, make_nonce(5, 'R', 0), 16);
  const auto b = ctr_keystream(aes, make_nonce(5, 'W', 0), 16);
  const auto c = ctr_keystream(aes, make_nonce(5, 'R', 1), 16);
  const auto d = ctr_keystream(aes, make_nonce(6, 'R', 0), 16);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

// ---------------------------------------------------------------- XTS

TEST(AesXts, Ieee1619Vector1) {
  // IEEE 1619 XTS-AES-128 Vector 1: all-zero keys, sector 0, zero PT.
  const AesXts xts(Key128{}, Key128{});
  std::vector<std::uint8_t> data(32, 0);
  xts.encrypt(0, data.data(), data.size());
  EXPECT_EQ(to_hex(data.data(), data.size()),
            "917cf69ebd68b2ec9b9fe9a3eadda692"
            "cd43d2f59598ed858c02c2652fbf922e");
  xts.decrypt(0, data.data(), data.size());
  EXPECT_EQ(data, std::vector<std::uint8_t>(32, 0));
}

TEST(AesXts, Ieee1619Vector4) {
  // IEEE 1619 Vector 4: sequential plaintext, sector 0.
  const AesXts xts(arr<16>("27182818284590452353602874713526"),
                   arr<16>("31415926535897932384626433832795"));
  std::vector<std::uint8_t> data = unhex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  xts.encrypt(0, data.data(), data.size());
  EXPECT_EQ(to_hex(data.data(), data.size()),
            "27a7479befa1d476489f308cd4cfa6e2"
            "a96e4bbe3208ff25287dd3819616e89c");
}

TEST(AesXts, DifferentSectorsDifferentCiphertext) {
  const AesXts xts(Key128{1}, Key128{2});
  std::vector<std::uint8_t> a(64, 0xAA), b(64, 0xAA);
  xts.encrypt(100, a.data(), a.size());
  xts.encrypt(101, b.data(), b.size());
  EXPECT_NE(a, b);
  xts.decrypt(100, a.data(), a.size());
  EXPECT_EQ(a, std::vector<std::uint8_t>(64, 0xAA));
}

TEST(AesXts, SameInputSameSectorIsDeterministic) {
  // The XTS weakness the paper notes (§IV-B): no temporal variation.
  const AesXts xts(Key128{1}, Key128{2});
  std::vector<std::uint8_t> a(64, 0x5A), b(64, 0x5A);
  xts.encrypt(7, a.data(), a.size());
  xts.encrypt(7, b.data(), b.size());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- SHA/HMAC

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Hmac, Rfc4231Case1) {
  const auto key = std::vector<std::uint8_t>(20, 0x0b);
  const std::string data = "Hi There";
  const auto d = hmac_sha256(key.data(), key.size(),
                             reinterpret_cast<const std::uint8_t*>(data.data()),
                             data.size());
  EXPECT_EQ(to_hex(d),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const auto d = hmac_sha256(reinterpret_cast<const std::uint8_t*>(key.data()),
                             key.size(),
                             reinterpret_cast<const std::uint8_t*>(data.data()),
                             data.size());
  EXPECT_EQ(to_hex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hkdf, Rfc5869Case1) {
  const auto ikm = std::vector<std::uint8_t>(22, 0x0b);
  const auto salt = unhex("000102030405060708090a0b0c");
  const auto info = unhex("f0f1f2f3f4f5f6f7f8f9");
  const auto okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm.data(), okm.size()),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// ---------------------------------------------------------------- CMAC

TEST(Cmac, Rfc4493Vectors) {
  const Cmac cmac(arr<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  // Empty message.
  EXPECT_EQ(to_hex(cmac.tag(nullptr, 0)),
            "bb1d6929e95937287fa37d129b756746");
  // 16-byte message.
  const auto m16 = unhex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(cmac.tag(m16.data(), m16.size())),
            "070a16b46b4d4144f79bdd9dd04a287c");
  // 40-byte message.
  const auto m40 = unhex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411");
  EXPECT_EQ(to_hex(cmac.tag(m40.data(), m40.size())),
            "dfa66747de9ae63030ca32611497c827");
  // 64-byte message.
  const auto m64 = unhex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(cmac.tag(m64.data(), m64.size())),
            "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(Cmac, Tag64IsTruncation) {
  const Cmac cmac(Key128{5});
  const std::uint8_t msg[] = {1, 2, 3, 4};
  const Block full = cmac.tag(msg, sizeof msg);
  EXPECT_EQ(cmac.tag64(msg, sizeof msg), load_le64(full.data()));
}

TEST(Cmac, SensitiveToEveryByte) {
  const Cmac cmac(Key128{9});
  std::array<std::uint8_t, 72> msg{};
  const std::uint64_t base = cmac.tag64(msg.data(), msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) {
    auto copy = msg;
    copy[i] ^= 0x01;
    EXPECT_NE(cmac.tag64(copy.data(), copy.size()), base) << "byte " << i;
  }
}

// ---------------------------------------------------------------- CRC

TEST(Crc, CheckWords) {
  const std::string check = "123456789";
  EXPECT_EQ(crc16(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0x29B1);  // CRC-16/CCITT-FALSE check value
  EXPECT_EQ(crc8(reinterpret_cast<const std::uint8_t*>(check.data()),
                 check.size()),
            0xF4);  // CRC-8 (poly 0x07) check value
}

TEST(Crc, IncrementalMatchesOneShot) {
  Xoshiro256 rng(3);
  std::vector<std::uint8_t> data(97);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::uint16_t whole = crc16(data.data(), data.size());
  std::uint16_t inc = 0xFFFF;
  inc = crc16_update(inc, data.data(), 10);
  inc = crc16_update(inc, data.data() + 10, 50);
  inc = crc16_update(inc, data.data() + 60, 37);
  EXPECT_EQ(whole, inc);
}

TEST(Crc, DetectsSingleBitFlips) {
  std::array<std::uint8_t, 64> data{};
  const std::uint16_t base = crc16(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto copy = data;
      copy[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc16(copy.data(), copy.size()), base);
    }
  }
}

// ---------------------------------------------------------------- BigUInt

TEST(BigUInt, HexRoundTrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigUInt(0).to_hex(), "0");
  EXPECT_EQ(BigUInt(0x1234).to_hex(), "1234");
}

TEST(BigUInt, BytesRoundTrip) {
  const auto bytes = unhex("0102030405060708090a");
  const BigUInt v = BigUInt::from_bytes_be(bytes);
  EXPECT_EQ(v.to_bytes_be(), bytes);
  EXPECT_EQ(v.to_bytes_be(12).size(), 12u);
  EXPECT_EQ(v.to_bytes_be(12)[0], 0);
}

TEST(BigUInt, Arithmetic) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffffffffffffffffffff");
  const BigUInt b(1);
  EXPECT_EQ((a + b).to_hex(), "100000000000000000000000000000000");
  EXPECT_EQ(((a + b) - b).to_hex(), a.to_hex());
  EXPECT_EQ((BigUInt(0xffffffff) * BigUInt(0xffffffff)).to_hex(),
            "fffffffe00000001");
}

TEST(BigUInt, DivMod) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    // Random sizes exercise both fast path and full Knuth D.
    const std::size_t abytes = 1 + rng.next_below(48);
    const std::size_t bbytes = 1 + rng.next_below(24);
    std::vector<std::uint8_t> av(abytes), bv(bbytes);
    for (auto& x : av) x = static_cast<std::uint8_t>(rng.next());
    for (auto& x : bv) x = static_cast<std::uint8_t>(rng.next());
    const BigUInt a = BigUInt::from_bytes_be(av);
    BigUInt b = BigUInt::from_bytes_be(bv);
    if (b.is_zero()) b = BigUInt(1);
    BigUInt q, r;
    BigUInt::divmod(a, b, q, r);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigUInt, ModExpKnownValues) {
  // 2^10 mod 1000 = 24; 3^200 mod 50 = 3^200 mod 50.
  EXPECT_EQ(BigUInt::mod_exp(BigUInt(2), BigUInt(10), BigUInt(1000)).low_u64(),
            24u);
  // Fermat: a^(p-1) mod p == 1 for prime p = 1000003.
  const BigUInt p(1000003);
  EXPECT_EQ(
      BigUInt::mod_exp(BigUInt(12345), p - BigUInt(1), p),
      BigUInt(1));
}

// Known answers on the RFC 3526 safe primes p = 2q + 1. Since p ≡ 7
// (mod 8), 2 is a quadratic residue, so 2 and 4 lie in the order-q
// subgroup; p − 1 has order 2; Fermat covers the full exponent width.
class ModExpRfc3526 : public ::testing::TestWithParam<int> {};

TEST_P(ModExpRfc3526, KnownAnswers) {
  const DhGroup& g =
      GetParam() == 1536 ? DhGroup::modp1536() : DhGroup::modp2048();
  ASSERT_EQ(g.p.bit_length(), static_cast<std::size_t>(GetParam()));
  ASSERT_EQ(g.p.low_u64() & 7, 7u);
  const BigUInt one(1);
  const BigUInt pm1 = g.p - one;
  EXPECT_EQ(BigUInt::mod_exp(BigUInt(2), g.q, g.p), one);
  EXPECT_EQ(BigUInt::mod_exp(g.gq, g.q, g.p), one);
  EXPECT_EQ(BigUInt::mod_exp(pm1, BigUInt(2), g.p), one);
  EXPECT_EQ(BigUInt::mod_exp(pm1, g.q, g.p), pm1);  // q is odd
  EXPECT_EQ(BigUInt::mod_exp(g.g, pm1, g.p), one);
  EXPECT_EQ(BigUInt::mod_exp(g.g, g.q + one, g.p), g.g);
  EXPECT_EQ(BigUInt::mod_exp(g.g, BigUInt(0), g.p), one);
  EXPECT_EQ(BigUInt::mod_exp(g.p + BigUInt(3), BigUInt(1), g.p), BigUInt(3));
}

INSTANTIATE_TEST_SUITE_P(Groups, ModExpRfc3526, ::testing::Values(1536, 2048),
                         [](const auto& info) {
                           return "modp" + std::to_string(info.param);
                         });

// The header's documented aborts hold in every build type, not only
// where `assert` is live.
TEST(BigUIntDeathTest, SubtractionUnderflowAborts) {
  EXPECT_DEATH(BigUInt(1) - BigUInt(2), "underflow");
  EXPECT_DEATH(BigUInt(5) - BigUInt::from_hex("100000000"), "underflow");
}

TEST(BigUIntDeathTest, DivisionByZeroAborts) {
  BigUInt q, r;
  EXPECT_DEATH(BigUInt::divmod(BigUInt(7), BigUInt(), q, r), "division by zero");
  EXPECT_DEATH(BigUInt(7) / BigUInt(0), "division by zero");
  EXPECT_DEATH(BigUInt(7) % BigUInt(0), "division by zero");
}

TEST(BigUIntDeathTest, ModExpZeroModulusAborts) {
  EXPECT_DEATH(BigUInt::mod_exp(BigUInt(3), BigUInt(5), BigUInt()),
               "zero modulus");
}

TEST(BigUInt, ShiftsAreConsistent) {
  const BigUInt v = BigUInt::from_hex("123456789abcdef0fedcba9876543210");
  EXPECT_EQ((v << 17) >> 17, v);
  EXPECT_EQ((v >> 9).to_hex(), ((v >> 8) >> 1).to_hex());
}

TEST(BigUInt, MillerRabin) {
  Xoshiro256 rng(13);
  EXPECT_TRUE(BigUInt::probable_prime(BigUInt(2), rng));
  EXPECT_TRUE(BigUInt::probable_prime(BigUInt(1000003), rng));
  EXPECT_FALSE(BigUInt::probable_prime(BigUInt(1000001), rng));  // 101*9901
  EXPECT_FALSE(BigUInt::probable_prime(BigUInt(561), rng));      // Carmichael
  EXPECT_TRUE(BigUInt::probable_prime(
      BigUInt::from_hex("ffffffffffffffc5"), rng));  // largest 64-bit prime
}

// ---------------------------------------------------------------- DH

TEST(Dh, GroupParametersAreSafePrimes) {
  // Verify p and q = (p-1)/2 of the 1536-bit group are probable primes.
  const DhGroup& g = DhGroup::modp1536();
  Xoshiro256 rng(17);
  EXPECT_TRUE(BigUInt::probable_prime(g.p, rng, 4));
  EXPECT_TRUE(BigUInt::probable_prime(g.q, rng, 4));
  EXPECT_EQ((g.q << 1) + BigUInt(1), g.p);
}

TEST(Dh, SharedSecretAgrees) {
  const DhGroup& g = DhGroup::modp1536();
  Xoshiro256 rng(19);
  const DhKeyPair alice = dh_generate(g, rng);
  const DhKeyPair bob = dh_generate(g, rng);
  EXPECT_TRUE(dh_check_public(g, alice.pub));
  EXPECT_TRUE(dh_check_public(g, bob.pub));
  const auto s1 = dh_shared_secret(g, alice.priv, bob.pub);
  const auto s2 = dh_shared_secret(g, bob.priv, alice.pub);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), g.byte_length);
}

TEST(Dh, RejectsDegeneratePublicKeys) {
  const DhGroup& g = DhGroup::modp1536();
  EXPECT_FALSE(dh_check_public(g, BigUInt(0)));
  EXPECT_FALSE(dh_check_public(g, BigUInt(1)));
  EXPECT_FALSE(dh_check_public(g, g.p - BigUInt(1)));
  EXPECT_FALSE(dh_check_public(g, g.p));
  EXPECT_TRUE(dh_check_public(g, BigUInt(2)));
}

TEST(DhDeathTest, SharedSecretAbortsOnInvalidPeer) {
  const DhGroup& g = DhGroup::modp1536();
  const BigUInt priv(12345);
  for (const BigUInt& bad : {BigUInt(0), BigUInt(1), g.p - BigUInt(1), g.p}) {
    EXPECT_DEATH(dh_shared_secret(g, priv, bad), "invalid peer public value");
  }
}

// ---------------------------------------------------------------- Schnorr

TEST(Schnorr, SignVerifyRoundTrip) {
  const DhGroup& g = DhGroup::modp1536();
  Xoshiro256 rng(23);
  const SchnorrKeyPair kp = schnorr_generate(g, rng);
  const std::vector<std::uint8_t> msg = {'h', 'e', 'l', 'l', 'o'};
  const SchnorrSignature sig = schnorr_sign(g, kp.priv, msg, rng);
  EXPECT_TRUE(schnorr_verify(g, kp.pub, msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
  const DhGroup& g = DhGroup::modp1536();
  Xoshiro256 rng(29);
  const SchnorrKeyPair kp = schnorr_generate(g, rng);
  std::vector<std::uint8_t> msg = {1, 2, 3, 4};
  const SchnorrSignature sig = schnorr_sign(g, kp.priv, msg, rng);
  msg[2] ^= 0xFF;
  EXPECT_FALSE(schnorr_verify(g, kp.pub, msg, sig));
}

TEST(Schnorr, RejectsWrongKeyAndTamperedSig) {
  const DhGroup& g = DhGroup::modp1536();
  Xoshiro256 rng(31);
  const SchnorrKeyPair kp = schnorr_generate(g, rng);
  const SchnorrKeyPair other = schnorr_generate(g, rng);
  const std::vector<std::uint8_t> msg = {9, 9, 9};
  SchnorrSignature sig = schnorr_sign(g, kp.priv, msg, rng);
  EXPECT_FALSE(schnorr_verify(g, other.pub, msg, sig));
  sig.s = (sig.s + BigUInt(1)) % g.q;
  EXPECT_FALSE(schnorr_verify(g, kp.pub, msg, sig));
}

// ---------------------------------------------------------------- Certs

TEST(Certificate, IssueAndVerify) {
  const DhGroup& g = DhGroup::modp1536();
  CertificateAuthority ca(g, 1001);
  Xoshiro256 rng(37);
  const SchnorrKeyPair endorsement = schnorr_generate(g, rng);
  const Certificate cert = ca.issue("dimm:serial-42:rank0", endorsement.pub);
  EXPECT_TRUE(ca.verify(cert));
}

TEST(Certificate, RejectsForgedSubject) {
  const DhGroup& g = DhGroup::modp1536();
  CertificateAuthority ca(g, 1002);
  Xoshiro256 rng(41);
  const SchnorrKeyPair endorsement = schnorr_generate(g, rng);
  Certificate cert = ca.issue("dimm:serial-1:rank0", endorsement.pub);
  cert.subject = "dimm:serial-2:rank0";
  EXPECT_FALSE(ca.verify(cert));
}

TEST(Certificate, RevocationListHonored) {
  const DhGroup& g = DhGroup::modp1536();
  CertificateAuthority ca(g, 1003);
  Xoshiro256 rng(43);
  const SchnorrKeyPair endorsement = schnorr_generate(g, rng);
  const Certificate cert = ca.issue("dimm:evil", endorsement.pub);
  EXPECT_TRUE(ca.verify(cert));
  ca.revoke("dimm:evil");
  EXPECT_FALSE(ca.verify(cert));
}

TEST(Certificate, DifferentCaRejects) {
  const DhGroup& g = DhGroup::modp1536();
  CertificateAuthority ca1(g, 1004);
  CertificateAuthority ca2(g, 1005);
  Xoshiro256 rng(47);
  const SchnorrKeyPair endorsement = schnorr_generate(g, rng);
  const Certificate cert = ca1.issue("dimm:x", endorsement.pub);
  EXPECT_FALSE(ca2.verify(cert));
}

}  // namespace
}  // namespace secddr::crypto
