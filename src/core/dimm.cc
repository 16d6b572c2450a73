#include "core/dimm.h"

#include <cassert>

#include "common/secded.h"
#include "crypto/hmac.h"

namespace secddr::core {

Dimm::Dimm(const DimmConfig& config, std::string module_id,
           const crypto::DhGroup& group, std::uint64_t seed)
    : config_(config),
      module_id_(std::move(module_id)),
      group_(group),
      rng_(seed),
      ranks_(config.geometry.ranks),
      open_rows_(static_cast<std::size_t>(config.geometry.ranks) *
                     config.geometry.bank_groups *
                     config.geometry.banks_per_group,
                 -1) {}

std::uint64_t Dimm::line_key(unsigned bg, unsigned bank, std::uint64_t row,
                             unsigned col) const {
  const auto& g = config_.geometry;
  std::uint64_t v = bg;
  v = v * g.banks_per_group + bank;
  v = v * g.rows_per_bank + row;
  v = v * g.columns_per_row + col;
  return v;
}

std::int64_t& Dimm::open_row(unsigned rank, unsigned bg, unsigned bank) {
  const auto& g = config_.geometry;
  const std::size_t idx =
      (static_cast<std::size_t>(rank) * g.bank_groups + bg) *
          g.banks_per_group +
      bank;
  return open_rows_[idx];
}

WriteAddress Dimm::observed_address(unsigned rank, unsigned bg, unsigned bank,
                                    unsigned col) const {
  const auto& g = config_.geometry;
  const std::size_t idx =
      (static_cast<std::size_t>(rank) * g.bank_groups + bg) *
          g.banks_per_group +
      bank;
  WriteAddress a;
  a.rank = rank;
  a.bank_group = bg;
  a.bank = bank;
  a.row = static_cast<std::uint64_t>(open_rows_[idx] < 0 ? 0 : open_rows_[idx]);
  a.column = col;
  return a;
}

void Dimm::store_line(RankState& rs, std::uint64_t key,
                      const CacheLine& data) {
  rs.data[key] = data;
  if (config_.secded_enabled) {
    std::array<std::uint8_t, 8> ecc{};
    for (int w = 0; w < 8; ++w)
      ecc[w] = secded_encode(load_le64(data.bytes.data() + 8 * w));
    rs.ecc[key] = ecc;
  }
}

CacheLine Dimm::load_line(RankState& rs, std::uint64_t key) {
  CacheLine data;
  const auto it = rs.data.find(key);
  if (it == rs.data.end()) return data;  // never-written lines read zero
  data = it->second;
  if (config_.secded_enabled) {
    const auto eit = rs.ecc.find(key);
    if (eit != rs.ecc.end()) {
      for (int w = 0; w < 8; ++w) {
        std::uint64_t word = load_le64(data.bytes.data() + 8 * w);
        std::uint8_t check = eit->second[w];
        if (secded_decode(word, check) == SecdedStatus::kCorrected) {
          // Correct the array copy too (scrubbing on access).
          store_le64(data.bytes.data() + 8 * w, word);
          it->second = data;
          eit->second[w] = check;
          ++ecc_corrections_;
        }
      }
    }
  }
  return data;
}

// ---------------------------------------------------------------- keys

void Dimm::provision(crypto::CertificateAuthority& ca) {
  for (unsigned r = 0; r < config_.geometry.ranks; ++r) {
    RankState& rank = ranks_[r];
    rank.endorsement = crypto::schnorr_generate(group_, rng_);
    rank.cert = ca.issue(module_id_ + ":rank" + std::to_string(r),
                         rank.endorsement.pub);
    rank.provisioned = true;
  }
}

const crypto::Certificate& Dimm::certificate(unsigned rank) const {
  assert(ranks_[rank].provisioned);
  return ranks_[rank].cert;
}

Dimm::KxResponse Dimm::key_exchange(unsigned rank,
                                    const crypto::BigUInt& processor_pub) {
  assert(ranks_[rank].provisioned && "DIMM must be provisioned first");
  // The processor's value crossed the untrusted bus: refuse degenerate or
  // out-of-range elements before drawing any randomness or installing a
  // key. The zero response fails the processor's own range check.
  if (!crypto::dh_check_public(group_, processor_pub)) return KxResponse{};
  RankState& rs = ranks_[rank];
  const crypto::DhKeyPair eph = crypto::dh_generate(group_, rng_);

  // Sign the key-exchange transcript with the endorsement key (§III-F):
  // device_pub || processor_pub || module_id || rank.
  std::vector<std::uint8_t> transcript = eph.pub.to_bytes_be(group_.byte_length);
  const auto ppub = processor_pub.to_bytes_be(group_.byte_length);
  transcript.insert(transcript.end(), ppub.begin(), ppub.end());
  transcript.insert(transcript.end(), module_id_.begin(), module_id_.end());
  transcript.push_back(static_cast<std::uint8_t>(rank));

  KxResponse resp;
  resp.pub = eph.pub;
  resp.sig = crypto::schnorr_sign(group_, rs.endorsement.priv, transcript, rng_);

  // Derive and install Kt. The device keeps only Kt (it never computes
  // data MACs).
  const auto shared = crypto::dh_shared_secret(group_, eph.priv, processor_pub);
  const auto okm = crypto::hkdf({}, shared,
                                {'s', 'e', 'c', 'd', 'd', 'r', '-', 'k', 't'},
                                16);
  crypto::Key128 kt{};
  std::copy(okm.begin(), okm.end(), kt.begin());
  rs.emac.emplace(kt, rank, /*initial_counter=*/0);
  return resp;
}

void Dimm::set_transaction_counter(unsigned rank, std::uint64_t c0) {
  assert(ranks_[rank].emac.has_value());
  ranks_[rank].emac->set_counter(c0);
}

std::uint64_t Dimm::transaction_counter(unsigned rank) const {
  assert(ranks_[rank].emac.has_value());
  return ranks_[rank].emac->counter();
}

bool Dimm::keys_established(unsigned rank) const {
  return ranks_[rank].emac.has_value();
}

// ---------------------------------------------------------------- DDR

void Dimm::activate(const ActivateCmd& original) {
  ActivateCmd cmd = original;
  assert(cmd.rank < config_.geometry.ranks);
  if (config_.cca_obfuscation) {
    // §VIII extension: the RCD-side logic strips the command pad.
    RankState& rs = ranks_[cmd.rank];
    assert(rs.emac.has_value());
    const std::uint64_t pad = rs.emac->next_cmd_pad();
    const auto& g = config_.geometry;
    cmd.bank_group ^= static_cast<unsigned>(pad) & (g.bank_groups - 1);
    cmd.bank ^= static_cast<unsigned>(pad >> 8) & (g.banks_per_group - 1);
    cmd.row ^= (pad >> 16) & (g.rows_per_bank - 1);
  }
  assert(cmd.row < config_.geometry.rows_per_bank);
  open_row(cmd.rank, cmd.bank_group, cmd.bank) =
      static_cast<std::int64_t>(cmd.row);
}

WriteStatus Dimm::write(const WriteCmd& original) {
  WriteCmd cmd = original;
  RankState& rs = ranks_[cmd.rank];
  assert(rs.emac.has_value() && "keys must be established before traffic");
  if (config_.cca_obfuscation) {
    const std::uint64_t pad = rs.emac->next_cmd_pad();
    const auto& g = config_.geometry;
    cmd.bank_group ^= static_cast<unsigned>(pad) & (g.bank_groups - 1);
    cmd.bank ^= static_cast<unsigned>(pad >> 8) & (g.banks_per_group - 1);
    cmd.column ^= static_cast<unsigned>(pad >> 16) & (g.columns_per_row - 1);
  }
  if (open_row(cmd.rank, cmd.bank_group, cmd.bank) < 0)
    return {false, true};  // no open row: the burst has no destination

  const WriteAddress addr =
      observed_address(cmd.rank, cmd.bank_group, cmd.bank, cmd.column);
  const std::uint64_t key =
      line_key(cmd.bank_group, cmd.bank, addr.row, cmd.column);

  // Counter discipline: the transaction counter advances only when the
  // burst commits to the arrays. A rejected burst (eWCRC alert) must not
  // consume — otherwise an attacker who injects a forged write (rejected
  // here, but consuming under the old advance-on-receipt rule) could
  // re-synchronize the two ends after dropping a victim write, and an
  // attacker masking ALERT_n would leave the stale line self-consistent.
  // The fuzzer found both compositions; tests/regress pins them.
  const std::uint64_t c = rs.emac->peek_counter(Dir::kWrite);

  CacheLine data = cmd.data;
  std::uint64_t mac_on_wire = cmd.emac;  // encrypted at this point
  std::uint16_t ecc_crc = cmd.ecc_crc;   // encrypted with OTPw

  if (config_.placement == LogicPlacement::kEccDataBuffer) {
    // Trusted-DIMM design: the ECC data buffer decrypts before the beats
    // reach the chips, so the on-DIMM interconnect carries plaintext.
    mac_on_wire = rs.emac->decrypt_mac(mac_on_wire, c);
    ecc_crc = static_cast<std::uint16_t>(
        ecc_crc ^ rs.emac->otp_w(c, addr.code()));
    if (on_dimm_) on_dimm_->on_inner_write(cmd.rank, key, data, mac_on_wire);
    // Chip-side checks (plain eWCRC everywhere).
    if (config_.ewcrc_enabled) {
      for (unsigned chip = 0; chip < kDataChips; ++chip) {
        const std::uint16_t expect = ewcrc_slice(
            addr, data.bytes.data() + chip * kChipSliceBytes, kChipSliceBytes);
        if (expect != cmd.data_crc[chip]) return {false, true};
      }
      if (ewcrc_ecc_chip(addr, mac_on_wire) != ecc_crc) return {false, true};
    }
    (void)rs.emac->next_counter(Dir::kWrite);
    store_line(rs, key, data);
    rs.macs[key] = mac_on_wire;
    return {true, false};
  }

  // Untrusted-DIMM design: the interconnect carries the *encrypted* MAC;
  // all decryption happens inside the ECC chip package.
  if (on_dimm_) on_dimm_->on_inner_write(cmd.rank, key, data, mac_on_wire);

  const std::uint64_t mac_plain = rs.emac->decrypt_mac(mac_on_wire, c);
  if (config_.ewcrc_enabled) {
    for (unsigned chip = 0; chip < kDataChips; ++chip) {
      const std::uint16_t expect = ewcrc_slice(
          addr, data.bytes.data() + chip * kChipSliceBytes, kChipSliceBytes);
      if (expect != cmd.data_crc[chip]) return {false, true};
    }
    const std::uint16_t crc_plain = static_cast<std::uint16_t>(
        ecc_crc ^ rs.emac->otp_w(c, addr.code()));
    if (ewcrc_ecc_chip(addr, mac_plain) != crc_plain) return {false, true};
  }

  (void)rs.emac->next_counter(Dir::kWrite);
  store_line(rs, key, data);
  rs.macs[key] = mac_plain;  // MACs rest unencrypted (§III-A)
  return {true, false};
}

std::optional<ReadResp> Dimm::read(const ReadCmd& original) {
  ReadCmd cmd = original;
  RankState& rs = ranks_[cmd.rank];
  assert(rs.emac.has_value() && "keys must be established before traffic");
  if (config_.cca_obfuscation) {
    const std::uint64_t pad = rs.emac->next_cmd_pad();
    const auto& g = config_.geometry;
    cmd.bank_group ^= static_cast<unsigned>(pad) & (g.bank_groups - 1);
    cmd.bank ^= static_cast<unsigned>(pad >> 8) & (g.banks_per_group - 1);
    cmd.column ^= static_cast<unsigned>(pad >> 16) & (g.columns_per_row - 1);
  }
  if (open_row(cmd.rank, cmd.bank_group, cmd.bank) < 0) return std::nullopt;

  const WriteAddress addr =
      observed_address(cmd.rank, cmd.bank_group, cmd.bank, cmd.column);
  const std::uint64_t key =
      line_key(cmd.bank_group, cmd.bank, addr.row, cmd.column);

  const std::uint64_t c = rs.emac->next_counter(Dir::kRead);

  // On-device ECC corrects single-bit array faults before transmission.
  CacheLine data = load_line(rs, key);
  std::uint64_t mac = 0;
  if (auto it = rs.macs.find(key); it != rs.macs.end()) mac = it->second;

  ReadResp resp;
  if (config_.placement == LogicPlacement::kEccDataBuffer) {
    // Plaintext MAC crosses the on-DIMM interconnect, then the DB encrypts.
    if (on_dimm_) on_dimm_->on_inner_read(cmd.rank, key, data, mac);
    resp.data = data;
    resp.emac = rs.emac->encrypt_mac(mac, c);
  } else {
    // ECC chip encrypts on-die; the interconnect only sees the E-MAC.
    std::uint64_t emac = rs.emac->encrypt_mac(mac, c);
    if (on_dimm_) on_dimm_->on_inner_read(cmd.rank, key, data, emac);
    resp.data = data;
    resp.emac = emac;
  }
  return resp;
}

// ---------------------------------------------------------------- state

Dimm::Snapshot Dimm::snapshot() const {
  Snapshot s;
  for (const auto& r : ranks_) {
    s.data.push_back(r.data);
    s.macs.push_back(r.macs);
    s.counters.push_back(r.emac ? r.emac->counter() : 0);
    s.cmd_counters.push_back(r.emac ? r.emac->cmd_counter() : 0);
  }
  s.open_rows = open_rows_;
  s.ecc_corrections = ecc_corrections_;
  return s;
}

void Dimm::restore(const Snapshot& s) {
  assert(s.data.size() == ranks_.size());
  open_rows_ = s.open_rows;
  ecc_corrections_ = s.ecc_corrections;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].data = s.data[r];
    ranks_[r].macs = s.macs[r];
    if (ranks_[r].emac) {
      ranks_[r].emac->set_counter(s.counters[r]);
      ranks_[r].emac->set_cmd_counter(s.cmd_counters[r]);
    }
    if (config_.secded_enabled) {
      // Regenerate check bytes over the restored arrays.
      ranks_[r].ecc.clear();
      for (const auto& [key, line] : ranks_[r].data) {
        std::array<std::uint8_t, 8> ecc{};
        for (int w = 0; w < 8; ++w)
          ecc[w] = secded_encode(load_le64(line.bytes.data() + 8 * w));
        ranks_[r].ecc[key] = ecc;
      }
    }
  }
}

bool Dimm::inject_fault(unsigned rank, std::uint64_t key, unsigned bit) {
  RankState& rs = ranks_[rank];
  const auto it = rs.data.find(key);
  if (it == rs.data.end()) return false;
  it->second[(bit / 8) % kLineSize] ^=
      static_cast<std::uint8_t>(1u << (bit % 8));
  return true;
}

bool Dimm::inject_mac_fault(unsigned rank, std::uint64_t key, unsigned bit) {
  RankState& rs = ranks_[rank];
  const auto it = rs.macs.find(key);
  if (it == rs.macs.end()) return false;
  it->second ^= 1ull << (bit % 64);
  return true;
}

bool Dimm::peek_line(unsigned rank, std::uint64_t key, CacheLine* data,
                     std::uint64_t* mac) const {
  const RankState& rs = ranks_[rank];
  const auto it = rs.data.find(key);
  if (it == rs.data.end()) return false;
  if (data) *data = it->second;
  if (mac) {
    const auto mit = rs.macs.find(key);
    *mac = mit == rs.macs.end() ? 0 : mit->second;
  }
  return true;
}

}  // namespace secddr::core
