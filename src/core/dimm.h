// Functional DIMM model: RCD (per-bank open-row routing), data chips,
// and the per-rank ECC chip that hosts SecDDR's security logic
// (paper §III-E, Fig. 5). A trusted-DIMM variant places the logic in the
// ECC data buffer instead (§VI-C, Fig. 11) — functionally identical on a
// benign channel, but the on-DIMM interconnect then carries plaintext
// MACs, which the attack tests exploit exactly as the paper argues.
//
// The ECC chip's security logic is intentionally tiny (matching the
// paper's cost argument): a key register, a counter, an AES unit for the
// pads, and a CRC checker. There is no memory-side MAC verification.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/bus.h"
#include "core/emac.h"
#include "crypto/cert.h"
#include "crypto/dh.h"
#include "crypto/schnorr.h"
#include "dram/timings.h"

namespace secddr::core {

/// Where the DIMM-side security logic lives.
enum class LogicPlacement {
  kEccChip,        ///< untrusted DIMM: logic on the DRAM die (Fig. 5)
  kEccDataBuffer,  ///< trusted DIMM: logic in the ECC DB (Fig. 11)
};

struct DimmConfig {
  dram::Geometry geometry{.ranks = 2,
                          .bank_groups = 4,
                          .banks_per_group = 4,
                          .rows_per_bank = 256,
                          .columns_per_row = 64};
  LogicPlacement placement = LogicPlacement::kEccChip;
  /// When false, models SecDDR *without* AI-ECC's write CRC: devices store
  /// whatever burst arrives. Used to demonstrate the Fig. 3 stale-data
  /// attack that motivates the encrypted eWCRC.
  bool ewcrc_enabled = true;
  /// §VIII extension: XOR-encrypt bank-group/bank/row/column fields on
  /// the bus with a synchronized command-counter pad so the channel is
  /// traffic-oblivious (an on-bus observer cannot link commands to
  /// addresses). The rank stays plaintext (chip select is physical).
  bool cca_obfuscation = false;
  /// Rank-level SEC-DED ECC over stored data (64-bit words): natural
  /// single-bit faults are corrected on the device before the data (and
  /// its MAC) ever reach the bus — the reliability half of placing MACs
  /// in the ECC chips (§II-B).
  bool secded_enabled = false;
};

class Dimm {
 public:
  Dimm(const DimmConfig& config, std::string module_id,
       const crypto::DhGroup& group, std::uint64_t seed);

  // ---- Vendor provisioning & attestation (per rank, §III-F) ----

  /// Generates per-rank endorsement keypairs and obtains certificates.
  void provision(crypto::CertificateAuthority& ca);
  const crypto::Certificate& certificate(unsigned rank) const;

  struct KxResponse {
    crypto::BigUInt pub;          ///< device's DH public value
    crypto::SchnorrSignature sig; ///< endorsement signature over transcript
  };
  /// Runs the device side of the signed key exchange and installs Kt.
  /// An invalid `processor_pub` (outside [2, p - 2]) installs nothing
  /// and yields a zero `pub`, which the processor rejects.
  KxResponse key_exchange(unsigned rank, const crypto::BigUInt& processor_pub);

  /// Installs the initial transaction counter (sent in plaintext; §III-F).
  void set_transaction_counter(unsigned rank, std::uint64_t c0);
  std::uint64_t transaction_counter(unsigned rank) const;
  bool keys_established(unsigned rank) const;

  // ---- DDR protocol ----

  void activate(const ActivateCmd& cmd);
  WriteStatus write(const WriteCmd& cmd);
  /// Returns nullopt if the target bank has no open row.
  std::optional<ReadResp> read(const ReadCmd& cmd);

  // ---- Attack-framework support ----

  void set_on_dimm_interposer(OnDimmInterposer* interposer) {
    on_dimm_ = interposer;
  }

  /// Full device state (arrays + counters + open rows), for
  /// DIMM-substitution / cold-boot experiments and for the fuzzer's
  /// restore-to-pristine-state executor. Keys survive (they are in
  /// silicon).
  struct Snapshot {
    std::vector<std::unordered_map<std::uint64_t, CacheLine>> data;
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> macs;
    std::vector<std::uint64_t> counters;
    std::vector<std::uint64_t> cmd_counters;  ///< CCA-obfuscation pads
    std::vector<std::int64_t> open_rows;
    std::uint64_t ecc_corrections = 0;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

  const DimmConfig& config() const { return config_; }
  const std::string& module_id() const { return module_id_; }

  /// Raw array peek for white-box tests (returns false if never written).
  bool peek_line(unsigned rank, std::uint64_t line_key, CacheLine* data,
                 std::uint64_t* mac) const;

  /// Fault injection: flips one stored data bit (models a soft error or
  /// a disturbance fault). Returns false if the line was never written.
  bool inject_fault(unsigned rank, std::uint64_t line_key, unsigned bit);
  /// Flips one bit of a stored MAC in the ECC-chip array (disturbance
  /// fault on the metadata chips). Returns false if never written.
  bool inject_mac_fault(unsigned rank, std::uint64_t line_key, unsigned bit);
  /// Single-bit errors corrected by the on-device SEC-DED logic.
  std::uint64_t ecc_corrections() const { return ecc_corrections_; }

  /// The device-array key for a DRAM coordinate (public so attackers /
  /// the fuzzer can aim inject_fault at computed neighbors).
  std::uint64_t line_key_for(unsigned bg, unsigned bank, std::uint64_t row,
                             unsigned col) const {
    return line_key(bg, bank, row, col);
  }
  /// Currently open row of a bank (-1 when closed) — oracle ground truth.
  std::int64_t open_row_state(unsigned rank, unsigned bg, unsigned bank) const {
    const auto& g = config_.geometry;
    return open_rows_[(static_cast<std::size_t>(rank) * g.bank_groups + bg) *
                          g.banks_per_group +
                      bank];
  }

 private:
  struct RankState {
    std::unordered_map<std::uint64_t, CacheLine> data;  ///< data-chip arrays
    std::unordered_map<std::uint64_t, std::uint64_t> macs;  ///< ECC chip array
    /// SEC-DED check bytes, one per 64-bit word of the line.
    std::unordered_map<std::uint64_t, std::array<std::uint8_t, 8>> ecc;
    std::optional<EmacEngine> emac;  ///< installed after key exchange
    crypto::SchnorrKeyPair endorsement;
    crypto::Certificate cert;
    bool provisioned = false;
  };

  std::uint64_t line_key(unsigned bg, unsigned bank, std::uint64_t row,
                         unsigned col) const;
  std::int64_t& open_row(unsigned rank, unsigned bg, unsigned bank);
  WriteAddress observed_address(unsigned rank, unsigned bg, unsigned bank,
                                unsigned col) const;

  /// Stores a line (computing ECC when enabled) / loads with correction.
  void store_line(RankState& rs, std::uint64_t key, const CacheLine& data);
  CacheLine load_line(RankState& rs, std::uint64_t key);

  DimmConfig config_;
  std::string module_id_;
  const crypto::DhGroup& group_;
  Xoshiro256 rng_;
  std::vector<RankState> ranks_;
  std::vector<std::int64_t> open_rows_;  ///< per (rank, bg, bank)
  OnDimmInterposer* on_dimm_ = nullptr;
  std::uint64_t ecc_corrections_ = 0;
};

}  // namespace secddr::core
