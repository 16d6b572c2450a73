// Finite-field Diffie-Hellman over RFC 3526 safe-prime MODP groups.
//
// Used by the SecDDR attestation protocol: processor and the DIMM's ECC
// chip run an endorsement-signed DH exchange at each power-up to agree on
// the per-rank transaction key Kt (paper §III-F).
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "crypto/bignum.h"

namespace secddr::crypto {

/// A safe-prime group: p = 2q + 1 with q prime; g generates a large
/// subgroup; gq = g^2 generates the order-q subgroup (used by Schnorr).
struct DhGroup {
  BigUInt p;   ///< modulus (safe prime)
  BigUInt q;   ///< (p-1)/2, prime
  BigUInt g;   ///< DH generator (2 for RFC 3526 groups)
  BigUInt gq;  ///< order-q generator (4)
  std::size_t byte_length;  ///< serialized element width

  /// RFC 3526 group 5 (1536-bit). Fast enough for tests.
  static const DhGroup& modp1536();
  /// RFC 3526 group 14 (2048-bit). Default for the attestation protocol.
  static const DhGroup& modp2048();
};

/// A DH keypair: private exponent x in [2, q), public y = g^x mod p.
struct DhKeyPair {
  BigUInt priv;
  BigUInt pub;
};

/// Generates a keypair with the given PRNG.
DhKeyPair dh_generate(const DhGroup& group, Xoshiro256& rng);

/// True iff `pub` is a valid public element: 2 <= pub <= p - 2.
bool dh_check_public(const DhGroup& group, const BigUInt& pub);

/// Computes the shared secret (peer_pub ^ priv mod p), serialized to the
/// group's byte length for deterministic KDF input. Aborts unless
/// dh_check_public(group, peer_pub): callers validate untrusted values.
std::vector<std::uint8_t> dh_shared_secret(const DhGroup& group,
                                           const BigUInt& priv,
                                           const BigUInt& peer_pub);

}  // namespace secddr::crypto
