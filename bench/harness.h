// Shared harness for the figure/table reproduction binaries.
//
// Environment knobs (all optional):
//   SECDDR_INSTR        measured instructions per core (default 150000)
//   SECDDR_WARMUP       warmup instructions per core   (default 75000)
//   SECDDR_CORES        simulated cores                (default 4, Table I)
//   SECDDR_CHANNELS     DDR channels (power of two; default 1, Table I)
//   SECDDR_FILTER       comma-free substring filter on workload names
//   SECDDR_TRACE_DIR    directory of recorded trace files (see
//                       trace_file_path); when every core of a workload
//                       has one, the sweep streams those instead of the
//                       synthetic generator
//
// Power/thermal knobs (all optional; see README "Power & thermal"):
//   SECDDR_THERMAL            1 enables per-channel energy + RC thermal
//                             accounting (0/unset = off, the default)
//   SECDDR_THERMAL_WINDOW     accounting window, memory cycles (1024)
//   SECDDR_THERMAL_R_MK       junction->ambient resistance, mK/W (4000)
//   SECDDR_THERMAL_C_NJ       node capacitance, nJ/K (100000000)
//   SECDDR_THERMAL_AMBIENT_MC ambient temperature, milli-C (45000)
//   SECDDR_THERMAL_THROTTLE   1 enables the thermal throttle policy
//   SECDDR_THERMAL_TRIP_MC    throttle trip point, milli-C (85000)
//   SECDDR_THERMAL_RELEASE_MC throttle release point, milli-C (83000)
//   SECDDR_THERMAL_PERIOD     throttled issue period, cycles (4)
//   SECDDR_THERMAL_REMAP      1 enables temperature-aware bank remapping
//
// Every binary prints an aligned text table with the same rows/series as
// the paper's figure, plus the paper's headline numbers for comparison.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fleet/checkpoint.h"
#include "secmem/params.h"
#include "sim/stream_trace.h"
#include "sim/system.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

namespace secddr::bench {

/// Strict positive-decimal env parse (strtoul would wrap "-1" to
/// ULONG_MAX and stop at the 'x' in "2x" without complaint); `fallback`
/// on unset or malformed.
inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  char* end = nullptr;
  const unsigned long v =
      (*s >= '0' && *s <= '9') ? std::strtoul(s, &end, 10) : 0;
  if (end && *end == '\0' && v >= 1) return static_cast<unsigned>(v);
  std::fprintf(stderr, "%s='%s' is not a positive integer; using default\n",
               name, s);
  return fallback;
}

struct BenchOptions {
  std::uint64_t instructions = 150000;
  std::uint64_t warmup = 75000;
  unsigned cores = 4;
  unsigned channels = 1;
  std::string filter;

  static BenchOptions from_env() {
    BenchOptions o;
    if (const char* s = std::getenv("SECDDR_INSTR")) o.instructions = std::strtoull(s, nullptr, 10);
    if (const char* s = std::getenv("SECDDR_WARMUP")) o.warmup = std::strtoull(s, nullptr, 10);
    if (const char* s = std::getenv("SECDDR_CORES")) o.cores = static_cast<unsigned>(std::strtoul(s, nullptr, 10));
    if (const char* s = std::getenv("SECDDR_CHANNELS")) o.channels = static_cast<unsigned>(std::strtoul(s, nullptr, 10));
    if (const char* s = std::getenv("SECDDR_FILTER")) o.filter = s;
    // The channel selector needs a power-of-two count; fail loudly here
    // rather than routing addresses with a broken mask in Release builds
    // (where the selector's own assert is compiled out).
    if (o.channels == 0 || (o.channels & (o.channels - 1)) != 0) {
      std::fprintf(stderr, "SECDDR_CHANNELS=%u is not a power of two\n",
                   o.channels);
      std::exit(2);
    }
    return o;
  }

  bool selected(const std::string& name) const {
    return filter.empty() || name.find(filter) != std::string::npos;
  }
};

/// Power/thermal config from the SECDDR_THERMAL* environment knobs (see
/// the header comment). Disabled (all-default PowerConfig) unless
/// SECDDR_THERMAL is set to something other than "0".
inline dram::PowerConfig thermal_config_from_env() {
  dram::PowerConfig p;
  const char* on = std::getenv("SECDDR_THERMAL");
  if (on == nullptr || std::strcmp(on, "0") == 0) return p;
  const auto env_u64 = [](const char* name, std::uint64_t fallback) {
    const char* s = std::getenv(name);
    return s ? std::strtoull(s, nullptr, 10) : fallback;
  };
  const auto env_i64 = [](const char* name, std::int64_t fallback) {
    const char* s = std::getenv(name);
    return s ? std::strtoll(s, nullptr, 10) : fallback;
  };
  p.enabled = true;
  p.window_cycles = env_u64("SECDDR_THERMAL_WINDOW", p.window_cycles);
  p.thermal.r_mk_per_w = static_cast<std::uint32_t>(
      env_u64("SECDDR_THERMAL_R_MK", p.thermal.r_mk_per_w));
  p.thermal.c_nj_per_k = env_u64("SECDDR_THERMAL_C_NJ", p.thermal.c_nj_per_k);
  p.thermal.ambient_mc =
      env_i64("SECDDR_THERMAL_AMBIENT_MC", p.thermal.ambient_mc);
  p.throttle = env_u64("SECDDR_THERMAL_THROTTLE", 0) != 0;
  p.trip_mc = env_i64("SECDDR_THERMAL_TRIP_MC", p.trip_mc);
  p.release_mc = env_i64("SECDDR_THERMAL_RELEASE_MC", p.release_mc);
  p.throttle_period = env_u64("SECDDR_THERMAL_PERIOD", p.throttle_period);
  p.remap = env_u64("SECDDR_THERMAL_REMAP", 0) != 0;
  return p;
}

/// Address-space stride between cores' synthetic traces.
inline constexpr std::uint64_t kCoreStrideBytes = 2ull << 30;

/// Data-region size covering `cores` trace address spaces (at least the
/// paper's 8GB). Keeping data_bytes >= cores * stride is what makes every
/// trace address a valid input to the metadata layout.
inline std::uint64_t data_bytes_for(unsigned cores) {
  return std::max<std::uint64_t>(8ull << 30, kCoreStrideBytes * cores);
}

/// Recorded-trace file for core `core` of workload `name` under `dir` —
/// the naming the SECDDR_TRACE_DIR knob and bench/trace_smoke share.
inline std::string trace_file_path(const std::string& dir,
                                   const std::string& name, unsigned core) {
  return dir + "/" + name + ".core" + std::to_string(core) + ".strace";
}

/// Per-core trace sources for one workload: when SECDDR_TRACE_DIR holds
/// a recorded file for every core (trace_file_path naming; binary or
/// legacy text, dispatched on magic), those files are streamed in loop
/// mode so short recordings can feed long simulations. Any missing file
/// falls the whole workload back to the synthetic generator, so a trace
/// directory can cover just part of the suite.
inline std::vector<std::unique_ptr<sim::TraceSource>> make_trace_sources(
    const workloads::WorkloadDesc& desc, unsigned cores) {
  std::vector<std::unique_ptr<sim::TraceSource>> out;
  if (const char* dir = std::getenv("SECDDR_TRACE_DIR")) {
    bool complete = true;
    for (unsigned c = 0; c < cores && complete; ++c) {
      auto src = sim::open_trace_if_present(
          trace_file_path(dir, desc.name, c), /*loop=*/true);
      if (src)
        out.push_back(std::move(src));
      else
        complete = false;  // missing file: synthetic fallback below
    }
    if (complete) return out;
    out.clear();
  }
  for (unsigned c = 0; c < cores; ++c)
    out.push_back(
        std::make_unique<workloads::SyntheticTrace>(desc, c, kCoreStrideBytes));
  return out;
}

/// Table I system configuration for a bench run. Keeps the paper's 2:1
/// capacity:data headroom when SECDDR_CORES grows the data region past the
/// default 16GB module (rows stay a power of two). SECDDR_CHANNELS shards
/// the same total capacity across that many channel slices, each with its
/// own controller and security engine.
inline sim::SystemConfig make_system_config(const BenchOptions& opt,
                                            const secmem::SecurityParams& sec,
                                            dram::Timings timings) {
  sim::SystemConfig cfg;
  cfg.mem.cores = opt.cores;
  cfg.security = sec;
  cfg.timings = timings;
  cfg.data_bytes = data_bytes_for(opt.cores);
  cfg.geometry.channels = opt.channels;
  cfg.power = thermal_config_from_env();
  // Total capacity scales with channels, so shrink the per-channel rows
  // first, then grow until the 2:1 headroom holds again.
  while (cfg.geometry.rows_per_bank > 1 &&
         cfg.geometry.capacity_bytes() / 2 >= 2 * cfg.data_bytes)
    cfg.geometry.rows_per_bank /= 2;
  while (cfg.geometry.capacity_bytes() < 2 * cfg.data_bytes)
    cfg.geometry.rows_per_bank *= 2;
  return cfg;
}

/// Runs one workload (replicated rate-style across cores) under one
/// security configuration and returns the full result.
///
/// Warm-start knob: SECDDR_WARM_CHECKPOINT=<dir> records the post-warmup
/// state of each (workload, config) pair the first time it runs and
/// restores it on every later run of the same pair, skipping the warmup
/// simulation entirely. Keyed by workload name + System::config_hash(),
/// so sweep points that differ only in loop mode or thread count share
/// one warm image; checkpoint/restore is bit-identical to uninterrupted
/// execution, so measured stats match a cold run bit-for-bit (the fleet
/// test battery asserts this). An unusable file (corrupt, or left by a
/// different config) is discarded and re-recorded from a cold run.
inline sim::RunResult run_workload(const workloads::WorkloadDesc& desc,
                                   const secmem::SecurityParams& sec,
                                   const BenchOptions& opt,
                                   dram::Timings timings =
                                       dram::Timings::ddr4_3200()) {
  const auto traces = make_trace_sources(desc, opt.cores);
  std::vector<sim::TraceSource*> ptrs;
  for (const auto& t : traces) ptrs.push_back(t.get());
  sim::System sys(make_system_config(opt, sec, timings), ptrs);

  const char* warm_dir = std::getenv("SECDDR_WARM_CHECKPOINT");
  if (warm_dir == nullptr || opt.warmup == 0)
    return sys.run(opt.instructions, 4'000'000'000ull, opt.warmup);

  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(sys.config_hash()));
  const std::string path =
      std::string(warm_dir) + "/" + desc.name + "_" + hash + ".warm";

  sys.begin(opt.instructions, 4'000'000'000ull, opt.warmup);
  bool warm = false;
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    std::fclose(probe);
    try {
      fleet::checkpoint::restore_system_file(sys, path);
      warm = true;
    } catch (const std::exception& e) {
      // A partial restore can leave the System (and its traces) mid-
      // flight, so fall back to a complete rebuild, not just a re-begin.
      std::fprintf(stderr, "%s: unusable warm checkpoint (%s); running cold\n",
                   path.c_str(), e.what());
      std::remove(path.c_str());
      return run_workload(desc, sec, opt, timings);
    }
  }
  if (!warm) {
    // step() returns at the warmup -> measured boundary: exactly the
    // state every warm restore of this (workload, config) resumes from.
    if (sys.step(kNoEvent))
      fleet::checkpoint::save_system_file(sys, path);
  }
  while (sys.step(kNoEvent)) {
  }
  return sys.result();
}

/// Total-IPC convenience wrapper.
inline double run_ipc(const workloads::WorkloadDesc& desc,
                      const secmem::SecurityParams& sec,
                      const BenchOptions& opt,
                      dram::Timings timings = dram::Timings::ddr4_3200()) {
  return run_workload(desc, sec, opt, timings).total_ipc;
}

inline void print_header(const char* what) {
  std::printf("=== %s ===\n", what);
  const BenchOptions o = BenchOptions::from_env();
  std::printf(
      "(4-core rate traces; %llu measured + %llu warmup instructions/core;"
      " override via SECDDR_INSTR/SECDDR_WARMUP/SECDDR_CORES)\n\n",
      static_cast<unsigned long long>(o.instructions),
      static_cast<unsigned long long>(o.warmup));
}

}  // namespace secddr::bench
