// Device-level protocol tests: drive the Dimm directly with hand-built
// commands (a minimal processor side constructed in the test), verifying
// the ECC-chip logic's exact storage and checking semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/dimm.h"
#include "core/emac.h"
#include "core/ewcrc.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"

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

// A minimal processor side: runs the key exchange against one rank and
// keeps a synchronized EmacEngine.
struct TestChannel {
  explicit TestChannel(Dimm& dimm, unsigned rank, std::uint64_t seed = 99)
      : rng(seed) {
    const auto& group = crypto::DhGroup::modp1536();
    const auto eph = crypto::dh_generate(group, rng);
    const auto resp = dimm.key_exchange(rank, eph.pub);
    const auto shared = crypto::dh_shared_secret(group, eph.priv, resp.pub);
    const auto okm = crypto::hkdf(
        {}, shared, {'s', 'e', 'c', 'd', 'd', 'r', '-', 'k', 't'}, 16);
    crypto::Key128 kt{};
    std::copy(okm.begin(), okm.end(), kt.begin());
    dimm.set_transaction_counter(rank, 1000);
    engine.emplace(kt, rank, 1000);
  }

  WriteCmd make_write(unsigned rank, unsigned bg, unsigned bank,
                      std::uint64_t row, unsigned col, const CacheLine& data,
                      std::uint64_t mac) {
    WriteCmd cmd;
    cmd.rank = rank;
    cmd.bank_group = bg;
    cmd.bank = bank;
    cmd.column = col;
    cmd.data = data;
    const std::uint64_t c = engine->next_counter(Dir::kWrite);
    cmd.emac = engine->encrypt_mac(mac, c);
    const WriteAddress addr{rank, bg, bank, row, col};
    cmd.data_crc = ewcrc_data_chips(addr, data);
    cmd.ecc_crc = static_cast<std::uint16_t>(ewcrc_ecc_chip(addr, mac) ^
                                             engine->otp_w(c, addr.code()));
    return cmd;
  }

  Xoshiro256 rng;
  std::optional<EmacEngine> engine;
};

struct Rig {
  Rig() : dimm(tiny_dimm(), "dimm:device-test", crypto::DhGroup::modp1536(), 7) {
    crypto::CertificateAuthority ca(crypto::DhGroup::modp1536(), 1);
    dimm.provision(ca);
  }
  Dimm dimm;
};

TEST(DimmDevice, StoresDecryptedMacNotEmac) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 3});
  const CacheLine data = CacheLine::filled(0x5C);
  const std::uint64_t mac = 0xABCDEF0123456789ull;
  const WriteCmd cmd = chan.make_write(0, 0, 0, 3, 2, data, mac);
  EXPECT_NE(cmd.emac, mac) << "MAC must be encrypted on the wire";
  const WriteStatus st = rig.dimm.write(cmd);
  ASSERT_TRUE(st.stored);
  // line_key for (bg0, bank0, row3, col2) = ((0*2+0)*16+3)*8+2.
  CacheLine stored;
  std::uint64_t stored_mac = 0;
  ASSERT_TRUE(rig.dimm.peek_line(0, (3 * 8) + 2, &stored, &stored_mac));
  EXPECT_EQ(stored, data);
  EXPECT_EQ(stored_mac, mac) << "MACs rest unencrypted (paper §III-A)";
}

TEST(DimmDevice, ReadReturnsEmacUnderFreshPad) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 1});
  const std::uint64_t mac = 0x1122334455667788ull;
  ASSERT_TRUE(
      rig.dimm.write(chan.make_write(0, 0, 0, 1, 0, CacheLine::filled(9), mac))
          .stored);
  const std::uint64_t c = chan.engine->next_counter(Dir::kRead);
  const auto resp = rig.dimm.read({0, 0, 0, 0});
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->emac, mac);
  EXPECT_EQ(chan.engine->decrypt_mac(resp->emac, c), mac);
}

TEST(DimmDevice, ReadWithoutOpenRowReturnsNothing) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  EXPECT_FALSE(rig.dimm.read({0, 1, 1, 0}).has_value());
}

TEST(DimmDevice, WriteWithoutOpenRowAlerts) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  const WriteCmd cmd =
      chan.make_write(0, 1, 1, 0, 0, CacheLine::filled(1), 42);
  const WriteStatus st = rig.dimm.write(cmd);
  EXPECT_FALSE(st.stored);
  EXPECT_TRUE(st.alert);
}

TEST(DimmDevice, WriteToWrongOpenRowFailsEwcrc) {
  // The device verifies against the row it actually has open.
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 5});  // row 5 open
  // The processor believes row 4 is open (CRCs computed for row 4).
  const WriteCmd cmd =
      chan.make_write(0, 0, 0, /*row=*/4, 1, CacheLine::filled(2), 43);
  const WriteStatus st = rig.dimm.write(cmd);
  EXPECT_FALSE(st.stored);
  EXPECT_TRUE(st.alert);
}

TEST(DimmDevice, CorruptedDataSliceAlerts) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 0});
  WriteCmd cmd = chan.make_write(0, 0, 0, 0, 0, CacheLine::filled(7), 44);
  cmd.data[17] ^= 0x40;  // corrupt chip 2's slice in flight
  EXPECT_TRUE(rig.dimm.write(cmd).alert);
}

TEST(DimmDevice, CorruptedEccCrcAlerts) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 0});
  WriteCmd cmd = chan.make_write(0, 0, 0, 0, 0, CacheLine::filled(7), 44);
  cmd.ecc_crc ^= 0x1;
  EXPECT_TRUE(rig.dimm.write(cmd).alert);
}

TEST(DimmDevice, RanksAreIndependentChannels) {
  Rig rig;
  TestChannel chan0(rig.dimm, 0, 5);
  TestChannel chan1(rig.dimm, 1, 6);
  rig.dimm.activate({0, 0, 0, 0});
  rig.dimm.activate({1, 0, 0, 0});
  ASSERT_TRUE(rig.dimm
                  .write(chan0.make_write(0, 0, 0, 0, 0,
                                          CacheLine::filled(0xA0), 100))
                  .stored);
  ASSERT_TRUE(rig.dimm
                  .write(chan1.make_write(1, 0, 0, 0, 0,
                                          CacheLine::filled(0xB1), 200))
                  .stored);
  CacheLine d0, d1;
  std::uint64_t m0 = 0, m1 = 0;
  ASSERT_TRUE(rig.dimm.peek_line(0, 0, &d0, &m0));
  ASSERT_TRUE(rig.dimm.peek_line(1, 0, &d1, &m1));
  EXPECT_EQ(d0, CacheLine::filled(0xA0));
  EXPECT_EQ(d1, CacheLine::filled(0xB1));
  EXPECT_EQ(m0, 100u);
  EXPECT_EQ(m1, 200u);
  // Counters advanced independently.
  EXPECT_EQ(rig.dimm.transaction_counter(0),
            rig.dimm.transaction_counter(1));
}

TEST(DimmDevice, ActivateSwitchesRowsPerBank) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 2});
  ASSERT_TRUE(rig.dimm
                  .write(chan.make_write(0, 0, 0, 2, 0,
                                         CacheLine::filled(0x22), 1))
                  .stored);
  rig.dimm.activate({0, 0, 0, 9});
  ASSERT_TRUE(rig.dimm
                  .write(chan.make_write(0, 0, 0, 9, 0,
                                         CacheLine::filled(0x99), 2))
                  .stored);
  // Both rows hold their own data (keys: row*8 + col).
  CacheLine a, b;
  ASSERT_TRUE(rig.dimm.peek_line(0, 2 * 8, &a, nullptr));
  ASSERT_TRUE(rig.dimm.peek_line(0, 9 * 8, &b, nullptr));
  EXPECT_EQ(a, CacheLine::filled(0x22));
  EXPECT_EQ(b, CacheLine::filled(0x99));
  // Other banks are unaffected by this bank's activates.
  EXPECT_FALSE(rig.dimm.read({0, 1, 0, 0}).has_value());
}

TEST(DimmDevice, SnapshotRestoreRoundTrip) {
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 0});
  ASSERT_TRUE(rig.dimm
                  .write(chan.make_write(0, 0, 0, 0, 0,
                                         CacheLine::filled(0x11), 7))
                  .stored);
  const auto snap = rig.dimm.snapshot();
  const std::uint64_t ctr_at_snap = rig.dimm.transaction_counter(0);
  ASSERT_TRUE(rig.dimm
                  .write(chan.make_write(0, 0, 0, 0, 0,
                                         CacheLine::filled(0x22), 8))
                  .stored);
  rig.dimm.restore(snap);
  CacheLine d;
  std::uint64_t m = 0;
  ASSERT_TRUE(rig.dimm.peek_line(0, 0, &d, &m));
  EXPECT_EQ(d, CacheLine::filled(0x11));
  EXPECT_EQ(m, 7u);
  EXPECT_EQ(rig.dimm.transaction_counter(0), ctr_at_snap);
}

TEST(DimmDevice, RejectedWriteDoesNotConsumeCounter) {
  // Counter discipline: only a burst that commits to the arrays consumes
  // the write counter. The old advance-on-receipt rule let an attacker
  // re-synchronize a desynced channel by injecting a forged (rejected)
  // write, and left a masked-ALERT_n stale line self-consistent — the
  // fuzz campaign's drop+inject and alert-mask escapes (tests/regress/).
  Rig rig;
  TestChannel chan(rig.dimm, 0);
  rig.dimm.activate({0, 0, 0, 0});
  const std::uint64_t before = rig.dimm.transaction_counter(0);
  WriteCmd cmd = chan.make_write(0, 0, 0, 0, 0, CacheLine::filled(1), 9);
  cmd.data[0] ^= 1;  // force an alert
  EXPECT_TRUE(rig.dimm.write(cmd).alert);
  EXPECT_EQ(rig.dimm.transaction_counter(0), before);
  // The processor side, observing ALERT_n, does not consume either
  // (make_write consumed eagerly — roll the helper engine back).
  chan.engine->set_counter(before);
  // An accepted burst still consumes exactly one write transaction.
  EXPECT_TRUE(
      rig.dimm.write(chan.make_write(0, 0, 0, 0, 0, CacheLine::filled(1), 9))
          .stored);
  EXPECT_GT(rig.dimm.transaction_counter(0), before);
  EXPECT_EQ(rig.dimm.transaction_counter(0), chan.engine->counter());
}

// The device validates the processor's DH value itself, in every build
// type: a degenerate (0, 1, p - 1) or out-of-range (>= p) value arrives
// over an untrusted bus and must never become the base of an installed
// Kt. The rejection draws nothing from the device RNG and answers with a
// public value the processor's own range check refuses.
struct BadDhValue {
  const char* name;
  crypto::BigUInt value;
};
void PrintTo(const BadDhValue& v, std::ostream* os) { *os << v.name; }

class DimmRejectsDhValue : public ::testing::TestWithParam<BadDhValue> {};

TEST_P(DimmRejectsDhValue, InstallsNoKeyAndDrawsNoRandomness) {
  const auto& group = crypto::DhGroup::modp1536();
  Rig rig;
  const Dimm::KxResponse resp = rig.dimm.key_exchange(0, GetParam().value);
  EXPECT_FALSE(crypto::dh_check_public(group, resp.pub));
  EXPECT_FALSE(rig.dimm.keys_established(0));
  EXPECT_FALSE(rig.dimm.keys_established(1));

  // A valid exchange afterwards sees the same device RNG state as one on
  // a fresh module.
  const crypto::BigUInt good = crypto::BigUInt::mod_exp(
      group.g, crypto::BigUInt(0x5EC0DD), group.p);
  Rig fresh;
  EXPECT_EQ(rig.dimm.key_exchange(0, good).pub,
            fresh.dimm.key_exchange(0, good).pub);
  EXPECT_TRUE(rig.dimm.keys_established(0));
}

INSTANTIATE_TEST_SUITE_P(
    Values, DimmRejectsDhValue,
    ::testing::Values(
        BadDhValue{"Zero", crypto::BigUInt(0)},
        BadDhValue{"One", crypto::BigUInt(1)},
        BadDhValue{"PMinus1",
                   crypto::DhGroup::modp1536().p - crypto::BigUInt(1)},
        BadDhValue{"P", crypto::DhGroup::modp1536().p},
        BadDhValue{"PPlus2",
                   crypto::DhGroup::modp1536().p + crypto::BigUInt(2)},
        BadDhValue{"Wide", crypto::BigUInt(3) << 1600}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace secddr::core
