// Parallel sweep runner for the figure/table reproduction binaries.
//
// A sweep is an ordered list of independent (workload, security config,
// timings) points. Each point builds its own sim::System, so points can run
// concurrently on a worker pool; results are merged back in input order, so
// the output is byte-identical to a serial run regardless of worker count.
//
// Environment knobs (in addition to the ones in harness.h):
//   SECDDR_JOBS  worker threads for sweeps (default: hardware concurrency;
//                1 forces the serial in-thread path)
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness.h"

namespace secddr::bench {

/// One independent simulation point of a sweep.
struct SweepPoint {
  workloads::WorkloadDesc workload;
  secmem::SecurityParams security;
  dram::Timings timings = dram::Timings::ddr4_3200();
};

/// Worker count for bench sweeps: SECDDR_JOBS if set, else hardware
/// concurrency.
inline unsigned sweep_jobs() {
  return env_unsigned("SECDDR_JOBS",
                      std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs `fn(0) .. fn(n-1)` on a pool of `jobs` threads. `jobs <= 1` runs
/// everything on the calling thread. Indices are handed out atomically, so
/// callers must make `fn` write only to per-index slots. The first exception
/// thrown by any worker is rethrown on the calling thread once all workers
/// have drained.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

/// Maps `fn` over [0, n) on the worker pool and returns the results in
/// index order. For sweeps whose points need knobs beyond SweepPoint
/// (scheduler policy, prefetcher, cache sizes, ...).
template <typename Fn>
auto sweep_map(std::size_t n, Fn&& fn) {
  using T = decltype(fn(std::size_t{0}));
  static_assert(!std::is_same_v<T, bool>,
                "std::vector<bool> packs bits; concurrent per-index writes "
                "would race — return an int or struct instead");
  std::vector<T> out(n);
  parallel_for(n, sweep_jobs(), [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Runs every point of the sweep (in parallel when `jobs != 1`) and returns
/// the results in input order. `jobs == 0` means sweep_jobs().
std::vector<sim::RunResult> run_sweep(const std::vector<SweepPoint>& points,
                                      const BenchOptions& opt,
                                      unsigned jobs = 0);

/// Convenience: total IPC of every point, in input order.
std::vector<double> run_sweep_ipc(const std::vector<SweepPoint>& points,
                                  const BenchOptions& opt, unsigned jobs = 0);

/// Builds the cross product workloads x configs (workload-major, matching
/// the serial two-level loop the figure binaries used), applying the
/// harness name filter. Point i*configs.size()+j is workload i, config j
/// among the *selected* workloads.
std::vector<SweepPoint> cross_sweep(
    const std::vector<workloads::WorkloadDesc>& suite,
    const std::vector<secmem::SecurityParams>& configs,
    const BenchOptions& opt);

}  // namespace secddr::bench
