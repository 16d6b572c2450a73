#include "crypto/dh.h"

#include <cstdio>
#include <cstdlib>

namespace secddr::crypto {
namespace {

constexpr const char* kModp1536Hex =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF";

constexpr const char* kModp2048Hex =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

DhGroup make_group(const char* hex) {
  DhGroup g;
  g.p = BigUInt::from_hex(hex);
  g.q = (g.p - BigUInt(1)) >> 1;
  g.g = BigUInt(2);
  g.gq = BigUInt(4);
  g.byte_length = (g.p.bit_length() + 7) / 8;
  return g;
}

}  // namespace

const DhGroup& DhGroup::modp1536() {
  static const DhGroup group = make_group(kModp1536Hex);
  return group;
}

const DhGroup& DhGroup::modp2048() {
  static const DhGroup group = make_group(kModp2048Hex);
  return group;
}

DhKeyPair dh_generate(const DhGroup& group, Xoshiro256& rng) {
  DhKeyPair kp;
  // x in [2, q): rejection below avoids tiny exponents.
  do {
    kp.priv = BigUInt::random_below(rng, group.q);
  } while (kp.priv < BigUInt(2));
  kp.pub = BigUInt::mod_exp(group.g, kp.priv, group.p);
  return kp;
}

bool dh_check_public(const DhGroup& group, const BigUInt& pub) {
  if (pub < BigUInt(2)) return false;
  return pub <= group.p - BigUInt(2);
}

std::vector<std::uint8_t> dh_shared_secret(const DhGroup& group,
                                           const BigUInt& priv,
                                           const BigUInt& peer_pub) {
  // Always on: a Release build must not exponentiate an unchecked value.
  if (!dh_check_public(group, peer_pub)) {
    std::fprintf(stderr, "dh_shared_secret: invalid peer public value\n");
    std::abort();
  }
  const BigUInt s = BigUInt::mod_exp(peer_pub, priv, group.p);
  return s.to_bytes_be(group.byte_length);
}

}  // namespace secddr::crypto
