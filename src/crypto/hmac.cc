#include "crypto/hmac.h"

#include <cassert>
#include <cstring>

namespace secddr::crypto {

Sha256Digest hmac_sha256(const std::uint8_t* key, std::size_t key_len,
                         const std::uint8_t* data, std::size_t data_len) {
  std::array<std::uint8_t, 64> k{};
  if (key_len > 64) {
    const Sha256Digest kd = sha256(key, key_len);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else if (key_len > 0) {  // an empty key may be a null pointer
    std::memcpy(k.data(), key, key_len);
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(ipad.data(), 64);
  inner.update(data, data_len);
  const Sha256Digest inner_d = inner.finish();
  Sha256 outer;
  outer.update(opad.data(), 64);
  outer.update(inner_d.data(), inner_d.size());
  return outer.finish();
}

Sha256Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                         const std::vector<std::uint8_t>& data) {
  return hmac_sha256(key.data(), key.size(), data.data(), data.size());
}

Sha256Digest hkdf_extract(const std::vector<std::uint8_t>& salt,
                          const std::vector<std::uint8_t>& ikm) {
  return hmac_sha256(salt, ikm);
}

std::vector<std::uint8_t> hkdf_expand(const Sha256Digest& prk,
                                      const std::vector<std::uint8_t>& info,
                                      std::size_t out_len) {
  assert(out_len <= 255 * 32);
  std::vector<std::uint8_t> out;
  out.reserve(out_len);
  std::vector<std::uint8_t> t;
  std::uint8_t counter = 1;
  while (out.size() < out_len) {
    std::vector<std::uint8_t> msg = t;
    msg.insert(msg.end(), info.begin(), info.end());
    msg.push_back(counter++);
    const Sha256Digest d =
        hmac_sha256(prk.data(), prk.size(), msg.data(), msg.size());
    t.assign(d.begin(), d.end());
    const std::size_t take = std::min<std::size_t>(32, out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
  }
  return out;
}

std::vector<std::uint8_t> hkdf(const std::vector<std::uint8_t>& salt,
                               const std::vector<std::uint8_t>& ikm,
                               const std::vector<std::uint8_t>& info,
                               std::size_t out_len) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, out_len);
}

}  // namespace secddr::crypto
