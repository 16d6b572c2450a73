// Attestation protocol (§III-F): certificate validation, signed key
// exchange, counter initialization, and rejection of forged modules.
#include <gtest/gtest.h>

#include "core/attestation.h"
#include "core/dimm.h"
#include "core/session.h"
#include "crypto/cert.h"
#include "crypto/dh.h"

namespace secddr::core {
namespace {

DimmConfig tiny_dimm() {
  DimmConfig cfg;
  cfg.geometry.ranks = 2;
  cfg.geometry.bank_groups = 2;
  cfg.geometry.banks_per_group = 2;
  cfg.geometry.rows_per_bank = 16;
  cfg.geometry.columns_per_row = 8;
  return cfg;
}

TEST(Attestation, HappyPathEstablishesSharedKey) {
  const auto& g = crypto::DhGroup::modp1536();
  crypto::CertificateAuthority ca(g, 1);
  Dimm dimm(tiny_dimm(), "dimm:serial-7", g, 2);
  dimm.provision(ca);
  AttestationDriver driver(g, ca, 3);

  const AttestationResult r = driver.attest_rank(dimm, 0);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(dimm.keys_established(0));
  // The device installed the same counter the driver chose (even).
  EXPECT_EQ(r.c0 & 1, 0u);
  EXPECT_EQ(dimm.transaction_counter(0), r.c0);
}

TEST(Attestation, RanksGetIndependentKeysAndCounters) {
  const auto& g = crypto::DhGroup::modp1536();
  crypto::CertificateAuthority ca(g, 4);
  Dimm dimm(tiny_dimm(), "dimm:serial-8", g, 5);
  dimm.provision(ca);
  AttestationDriver driver(g, ca, 6);

  const AttestationResult r0 = driver.attest_rank(dimm, 0);
  const AttestationResult r1 = driver.attest_rank(dimm, 1);
  ASSERT_TRUE(r0.ok && r1.ok);
  EXPECT_NE(r0.kt, r1.kt) << "each rank needs its own channel key";
  EXPECT_NE(r0.c0, r1.c0);
}

TEST(Attestation, RevokedModuleRejected) {
  const auto& g = crypto::DhGroup::modp1536();
  crypto::CertificateAuthority ca(g, 7);
  Dimm dimm(tiny_dimm(), "dimm:stolen", g, 8);
  dimm.provision(ca);
  ca.revoke("dimm:stolen:rank0");
  AttestationDriver driver(g, ca, 9);
  const AttestationResult r = driver.attest_rank(dimm, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("certificate"), std::string::npos);
}

TEST(Attestation, ModuleFromDifferentCaRejected) {
  // A counterfeit module provisioned by an attacker-controlled CA.
  const auto& g = crypto::DhGroup::modp1536();
  crypto::CertificateAuthority real_ca(g, 10);
  crypto::CertificateAuthority evil_ca(g, 11);
  Dimm fake(tiny_dimm(), "dimm:counterfeit", g, 12);
  fake.provision(evil_ca);
  AttestationDriver driver(g, real_ca, 13);
  const AttestationResult r = driver.attest_rank(fake, 0);
  EXPECT_FALSE(r.ok);
}

TEST(Attestation, MonotonicCountersIncreaseAcrossBoots) {
  const auto& g = crypto::DhGroup::modp1536();
  crypto::CertificateAuthority ca(g, 14);
  Dimm dimm(tiny_dimm(), "dimm:mono", g, 15);
  dimm.provision(ca);
  AttestationDriver driver(g, ca, 16, /*monotonic=*/true);
  const AttestationResult boot1 = driver.attest_rank(dimm, 0);
  const AttestationResult boot2 = driver.attest_rank(dimm, 0);
  ASSERT_TRUE(boot1.ok && boot2.ok);
  EXPECT_GT(boot2.c0, boot1.c0);
}

TEST(Attestation, SessionCreateFailsClosedOnBadModule) {
  // The session constructor must refuse to come up when attestation
  // fails (fail-closed), e.g. after the CA revokes the module.
  SessionConfig cfg;
  cfg.dimm = tiny_dimm();
  cfg.seed = 17;
  auto good = SecureMemorySession::create(cfg);
  ASSERT_NE(good, nullptr);
  good->ca().revoke(cfg.module_id + ":rank0");
  std::string failure;
  // A fresh attestation round against the same (now revoked) module.
  EXPECT_FALSE(good->reattest(false));
}

TEST(Attestation, TamperedCounterInitIsDetectedNotExploitable) {
  // §III-F: C0 travels in plaintext; tampering desynchronizes and every
  // access fails MAC verification — no integrity loss.
  SessionConfig cfg;
  cfg.dimm = tiny_dimm();
  cfg.seed = 18;
  auto s = SecureMemorySession::create(cfg);
  ASSERT_NE(s, nullptr);
  s->write(0x40, CacheLine::filled(0x5C));
  ASSERT_TRUE(s->read(0x40).ok());
  // Attacker nudges the device counter (as if C0 was altered in flight).
  s->dimm().set_transaction_counter(0, s->dimm().transaction_counter(0) + 2);
  EXPECT_FALSE(s->read(0x40).ok());
}

// ---- Golden keys. Pins the exact (Kt, c0) that a fixed-seed
// SecureMemorySession derives on each group, so any change to the
// modular arithmetic under attestation — or to how much randomness it
// draws — shows up here rather than as a drifted fuzz-campaign hash.

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

struct GoldenCase {
  const char* name;
  const crypto::DhGroup* group;
  std::uint64_t digest;
};
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class AttestationGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(AttestationGolden, SessionKeysArePinned) {
  const crypto::DhGroup& g = *GetParam().group;
  constexpr std::uint64_t kSeed = 0x5EC0DD12;
  // The same provisioning and attestation SecureMemorySession::create
  // runs for kSeed (its per-component seed split), with Kt in reach.
  crypto::CertificateAuthority ca(g, kSeed ^ 0xCA);
  Dimm dimm(tiny_dimm(), "dimm:serial-0001", g, kSeed ^ 0xD1);
  dimm.provision(ca);
  AttestationDriver driver(g, ca, kSeed ^ 0xA7);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  std::vector<std::uint64_t> c0s;
  for (unsigned r = 0; r < tiny_dimm().geometry.ranks; ++r) {
    const AttestationResult res = driver.attest_rank(dimm, r);
    ASSERT_TRUE(res.ok) << res.failure;
    h = fnv1a(h, res.kt.data(), res.kt.size());
    h = fnv1a(h, &res.c0, sizeof res.c0);
    c0s.push_back(res.c0);
  }
  EXPECT_EQ(h, GetParam().digest);

  // The session itself lands on the same counters, so the mirror above
  // is the session's attestation.
  SessionConfig cfg;
  cfg.dimm = tiny_dimm();
  cfg.group = &g;
  cfg.seed = kSeed;
  auto session = SecureMemorySession::create(cfg);
  ASSERT_NE(session, nullptr);
  for (unsigned r = 0; r < c0s.size(); ++r) {
    EXPECT_EQ(session->controller().transaction_counter(r), c0s[r]);
    EXPECT_EQ(session->dimm().transaction_counter(r), c0s[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Groups, AttestationGolden,
    ::testing::Values(
        GoldenCase{"Modp1536", &crypto::DhGroup::modp1536(),
                   1519874863576379904ull},
        GoldenCase{"Modp2048", &crypto::DhGroup::modp2048(),
                   3668597622760283840ull}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace secddr::core
