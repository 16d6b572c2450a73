// Campaign driver: the coverage-guided fuzz loop.
//
// Loop: pick a parent (corpus member or fresh random input), mutate,
// execute, keep coverage-novel children, report every escape. Inputs are
// generated *sequentially* from one master RNG and executed in parallel
// batches whose results are merged in generation order, so the campaign
// is bit-reproducible from its seed at any SECDDR_FUZZ_JOBS — the
// determinism tests diff the whole campaign log across job counts and
// loop modes.
//
// Environment knobs (CampaignOptions::from_env; flags accept 0/1):
//   SECDDR_FUZZ_TRIALS        mutated executions        (default 10000)
//   SECDDR_FUZZ_SEED          campaign seed             (default 0x5ecdd6)
//   SECDDR_FUZZ_JOBS          worker threads            (default: SECDDR_JOBS
//                             or hardware concurrency)
//   SECDDR_FUZZ_PROFILES      substring filter on profile names
//   SECDDR_FUZZ_SIM           1 = timing leg on         (default 0)
//   SECDDR_FUZZ_SAVE_DIR      write escapes + their minimized forms here
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/executor.h"
#include "fuzz/mutate.h"

namespace secddr::fuzz {

struct CampaignOptions {
  std::uint64_t trials = 10000;
  std::uint64_t seed = 0x5ecdd6;
  unsigned jobs = 0;  ///< 0 = auto (hardware concurrency)
  std::string profile_filter;  ///< substring on profile names; empty = all
  ExecutorOptions exec;        ///< timing leg + loop mode
  std::string save_dir;        ///< empty = don't save escapes

  static CampaignOptions from_env();
};

struct EscapeReport {
  std::uint64_t trial = 0;  ///< generation index of the escaping input
  FuzzInput input;          ///< as executed
  FuzzInput minimized;      ///< after greedy minimization
  Outcome outcome;
};

struct CampaignResult {
  std::uint64_t executions = 0;
  /// Verdict histogram, indexed by Verdict.
  std::array<std::uint64_t, 5> verdicts{};
  std::size_t corpus_size = 0;
  std::size_t coverage = 0;  ///< distinct signatures seen
  std::vector<EscapeReport> escapes;
  /// Deterministic campaign transcript (no wall-clock content): one line
  /// per coverage-novel input and per escape, plus the final tallies.
  std::string log;

  bool clean() const { return escapes.empty(); }
};

class Campaign {
 public:
  explicit Campaign(const CampaignOptions& opts);

  /// Runs the whole campaign. Deterministic for fixed (options, build).
  CampaignResult run();

 private:
  CampaignOptions opts_;
  std::vector<unsigned> profiles_;  ///< ids passing the filter
};

/// Replays one saved input (corpus.h sidecar format) and returns its
/// outcome — the regression-trace replay entry point.
Outcome replay_saved(const std::string& stem, const ExecutorOptions& exec = {});

}  // namespace secddr::fuzz
