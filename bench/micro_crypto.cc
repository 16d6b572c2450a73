// Microbenchmarks of the crypto substrate (google-benchmark).
//
// These measure the software implementations; the simulator's 40-cycle
// crypto latencies (Table I) model hardware engines, not this code.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "common/types.h"
#include "core/emac.h"
#include "core/ewcrc.h"
#include "crypto/aes.h"
#include "crypto/aes_xts.h"
#include "crypto/bignum.h"
#include "crypto/cmac.h"
#include "crypto/crc.h"
#include "crypto/dh.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

using namespace secddr;

static void BM_AesEncryptBlock(benchmark::State& state) {
  const crypto::Aes aes(crypto::Key128{1, 2, 3});
  crypto::Block b{};
  for (auto _ : state) {
    aes.encrypt_block(b);
    benchmark::DoNotOptimize(b);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

static void BM_XtsEncryptLine(benchmark::State& state) {
  const crypto::AesXts xts(crypto::Key128{1}, crypto::Key128{2});
  CacheLine line = CacheLine::filled(0x5A);
  std::uint64_t sector = 0;
  for (auto _ : state) {
    xts.encrypt(sector++, line.bytes.data(), line.bytes.size());
    benchmark::DoNotOptimize(line);
  }
  state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_XtsEncryptLine);

static void BM_CmacLineMac(benchmark::State& state) {
  const core::MacEngine mac(crypto::Key128{7});
  const CacheLine line = CacheLine::filled(0x3C);
  Addr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.compute(a += 64, line));
  }
  state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_CmacLineMac);

static void BM_EmacPad(benchmark::State& state) {
  core::EmacEngine e(crypto::Key128{9}, 0);
  std::uint64_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.otp(c += 2));
  }
}
BENCHMARK(BM_EmacPad);

static void BM_EwcrcLine(benchmark::State& state) {
  const core::WriteAddress addr{0, 1, 2, 100, 7};
  const CacheLine line = CacheLine::filled(0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ewcrc_data_chips(addr, line));
  }
  state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_EwcrcLine);

static void BM_Sha256Line(benchmark::State& state) {
  const CacheLine line = CacheLine::filled(0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::sha256(line.bytes.data(), line.bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_Sha256Line);

static void BM_Crc16Line(benchmark::State& state) {
  const CacheLine line = CacheLine::filled(0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::crc16(line.bytes.data(), line.bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_Crc16Line);

// One full-width exponentiation g^x mod p: the unit of attestation cost.
static void mod_exp_bench(benchmark::State& state, const crypto::DhGroup& g) {
  Xoshiro256 rng(1);
  const crypto::BigUInt x = crypto::BigUInt::random_below(rng, g.q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigUInt::mod_exp(g.g, x, g.p));
  }
}

static void BM_ModExp1536(benchmark::State& state) {
  mod_exp_bench(state, crypto::DhGroup::modp1536());
}
BENCHMARK(BM_ModExp1536)->Unit(benchmark::kMillisecond);

static void BM_ModExp2048(benchmark::State& state) {
  mod_exp_bench(state, crypto::DhGroup::modp2048());
}
BENCHMARK(BM_ModExp2048)->Unit(benchmark::kMillisecond);

static void BM_SchnorrSignVerify(benchmark::State& state) {
  const auto& g = crypto::DhGroup::modp1536();
  Xoshiro256 rng(2);
  const auto kp = crypto::schnorr_generate(g, rng);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  for (auto _ : state) {
    const auto sig = crypto::schnorr_sign(g, kp.priv, msg, rng);
    benchmark::DoNotOptimize(crypto::schnorr_verify(g, kp.pub, msg, sig));
  }
}
BENCHMARK(BM_SchnorrSignVerify)->Unit(benchmark::kMillisecond);
