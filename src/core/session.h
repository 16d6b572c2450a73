// SecureMemorySession: the library's top-level public API.
//
// Builds a complete SecDDR deployment — certificate authority, provisioned
// DIMM, memory channel, processor-side controller — runs attestation on
// every rank, and exposes secure line read/write plus the experiment hooks
// (attacker interposers, sleep/wake, DIMM substitution) used by the
// examples and tests.
//
//   SessionConfig cfg;
//   auto session = SecureMemorySession::create(cfg);
//   session->write(0x1000, line);
//   auto r = session->read(0x1000);   // r.ok(), r.data
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/attestation.h"
#include "core/attack.h"
#include "core/bus.h"
#include "core/controller.h"
#include "core/dimm.h"
#include "crypto/cert.h"
#include "crypto/dh.h"

namespace secddr::core {

struct SessionConfig {
  DimmConfig dimm;
  DataEncryption encryption = DataEncryption::kXts;
  /// Attestation group. Provisioning plus attestation of a 2-rank module
  /// costs 23 full-width exponentiations: about 70-120 ms on modp1536
  /// and 170-270 ms on modp2048 (Release, GCC 12, 4-vCPU Xeon VM).
  /// modp1536 keeps tests and fuzz profiles fast; modp2048 is the
  /// deployment-strength choice.
  const crypto::DhGroup* group = &crypto::DhGroup::modp1536();
  std::uint64_t seed = 1;
  std::string module_id = "dimm:serial-0001";
  /// Actively zero the data region after attestation (§III-F). Writes the
  /// whole geometry through the secure path — enable for small test
  /// geometries only.
  bool clear_memory = false;
  /// Monotonic (vs random) initial counters.
  bool monotonic_counters = false;
};

class SecureMemorySession {
 public:
  /// Provisions, attests every rank, optionally clears memory.
  /// Returns nullptr (with `failure` filled if non-null) when attestation
  /// fails — e.g. a revoked or forged module.
  static std::unique_ptr<SecureMemorySession> create(
      const SessionConfig& config, std::string* failure = nullptr);

  /// Secure line accessors (line-aligned addresses).
  Violation write(Addr addr, const CacheLine& plaintext);
  MemoryController::ReadResult read(Addr addr);

  /// Byte capacity of the data space.
  Addr capacity() const { return controller_->capacity(); }

  // ---- Experiment hooks ----

  /// Installs/removes the bus-level attacker.
  void set_bus_interposer(BusInterposer* interposer) {
    bus_.set_interposer(interposer);
  }
  /// Installs/removes the on-DIMM attacker.
  void set_on_dimm_interposer(OnDimmInterposer* interposer) {
    dimm_->set_on_dimm_interposer(interposer);
  }

  /// Suspend to RAM (self-refresh): device state persists, counters hold.
  void sleep() { asleep_ = true; }
  /// Resume. No re-attestation: SecDDR relies on counter continuity.
  void wake() { asleep_ = false; }
  bool asleep() const { return asleep_; }

  /// Cold-boot style DIMM substitution: replace the module's volatile
  /// state with an earlier snapshot (the attacker froze and preserved the
  /// DIMM). Counters travel with the snapshot — that is the attack's flaw.
  Dimm::Snapshot snapshot_dimm() const { return dimm_->snapshot(); }
  void substitute_dimm(const Dimm::Snapshot& s) { dimm_->restore(s); }

  /// Both ends of the channel at once. Restoring a full snapshot resets
  /// the deployment to a consistent earlier state without repeating the
  /// (expensive) attestation — the fuzzer executes thousands of mutated
  /// runs against one attested session this way.
  struct Snapshot {
    Dimm::Snapshot dimm;
    MemoryController::State controller;
  };
  Snapshot snapshot() const {
    return {dimm_->snapshot(), controller_->snapshot_state()};
  }
  void restore(const Snapshot& s) {
    dimm_->restore(s.dimm);
    controller_->restore_state(s.controller);
  }

  /// Re-attests all ranks (legitimate DIMM replacement path); optionally
  /// clears memory as the paper requires.
  bool reattest(bool clear_memory);

  Dimm& dimm() { return *dimm_; }
  MemoryController& controller() { return *controller_; }
  crypto::CertificateAuthority& ca() { return *ca_; }
  const ControllerStats& stats() const { return controller_->stats(); }

 private:
  SecureMemorySession() = default;
  bool attest_all(std::string* failure);
  void clear_data_region();

  SessionConfig config_;
  std::unique_ptr<crypto::CertificateAuthority> ca_;
  std::unique_ptr<Dimm> dimm_;
  Bus bus_;
  std::unique_ptr<MemoryController> controller_;
  std::unique_ptr<AttestationDriver> attestation_;
  bool asleep_ = false;
};

}  // namespace secddr::core
