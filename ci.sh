#!/usr/bin/env bash
# Tier-1 CI: build Debug and Release with -Wall -Wextra -Werror and run the
# full test suite in each. Set SECDDR_CI_SANITIZE=1 to append an
# address+undefined sanitizer build (unit, trace, fuzz, power, crypto and
# fleet labels; UBSan reports are fatal) plus a thread-sanitizer build.
set -euo pipefail
cd "$(dirname "$0")"

jobs="$(nproc)"

run_matrix() {
  local cfg="$1" bdir="$2"
  shift 2
  cmake -B "$bdir" -S . -DCMAKE_BUILD_TYPE="$cfg" -DSECDDR_WERROR=ON "$@"
  cmake --build "$bdir" -j "$jobs"
  ctest --test-dir "$bdir" --output-on-failure -j "$jobs" \
        ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
}

CTEST_ARGS=()
run_matrix Debug build-ci-debug
run_matrix Release build-ci-release

# The slow-vs-fast simulation-loop determinism check must hold in both
# build types, over the whole fig6 sweep too
# (SimFastPathDeterminism.Fig6SweepBitIdenticalAcrossLoops). It already
# ran as part of the full suites above; re-run it explicitly so a future
# CTEST_ARGS filter can never silently skip it.
for bdir in build-ci-debug build-ci-release; do
  ctest --test-dir "$bdir" -L determinism --no-tests=error \
        --output-on-failure -j "$jobs"
done

# Dedicated multi-channel step: the determinism label again with the
# backend sharded across 2 channels (SECDDR_CHANNELS overrides every
# variant that does not pin its own channel count), Release build.
SECDDR_CHANNELS=2 ctest --test-dir build-ci-release -L determinism \
      --no-tests=error --output-on-failure -j "$jobs"

# Trace-subsystem battery: the trace label (codec round-trip/property
# tests, the corruption battery, text-parser regressions, source
# determinism, trace_convert selftest, record+replay sweep smoke) in both
# build types. Already covered by the full suites above; re-run
# explicitly so a future CTEST_ARGS filter can never silently skip it.
for bdir in build-ci-debug build-ci-release; do
  ctest --test-dir "$bdir" -L trace --no-tests=error \
        --output-on-failure -j "$jobs"
done

# Adversarial-fuzz step: the fuzz label (fuzzer unit tests, bounded
# campaign + cross-jobs/loop-mode reproducibility, checked-in regression
# replays, and the campaign smoke via bench/fuzz_campaign) in both build
# types. Bounded well below the default 10k-trial campaign: CI asserts
# zero undetected corruptions on the bounded run; the full campaign is
# the bench entry point. Already covered by the full suites above;
# re-run explicitly so a future CTEST_ARGS filter can never skip it.
for bdir in build-ci-debug build-ci-release; do
  ctest --test-dir "$bdir" -L fuzz --no-tests=error \
        --output-on-failure -j "$jobs"
done

# Fleet-service step: the fleet label (checkpoint corruption battery +
# generational-fallback cases, Node/coordinator integration incl. the
# forced worker-SIGKILL recovery, the chaos battery, the warm-start
# harness gate, and the fleetd kill-recovery + chaos smokes, which exit
# non-zero unless the recovered aggregates are byte-identical to an
# undisturbed single-worker run) in both build types. Already covered by
# the full suites above; re-run explicitly so a future CTEST_ARGS filter
# can never silently skip it.
for bdir in build-ci-debug build-ci-release; do
  ctest --test-dir "$bdir" -L fleet --no-tests=error \
        --output-on-failure -j "$jobs"
done

# Power/thermal step: the power label (Table II golden hash + paper gate,
# the integer energy/thermal property tests, accounting-neutrality and
# policy-determinism runs, throttle/remap engagement, checkpointed
# thermal state, and the bounded bench/thermal smoke) in both build
# types. Already covered by the full suites above; re-run explicitly so
# a future CTEST_ARGS filter can never silently skip it.
for bdir in build-ci-debug build-ci-release; do
  ctest --test-dir "$bdir" -L power --no-tests=error \
        --output-on-failure -j "$jobs"
done

# Chaos-hardening step: a bounded fleetd run with the seeded
# fault-injection plan armed (crash-during-checkpoint, crash between tmp
# and rename, corrupted + torn generations, a hung worker recovered by
# the watchdog, a torn result frame), Debug and Release. fleetd exits
# non-zero unless every fault is absorbed: recovered aggregates
# bit-identical to the undisturbed reference, zero quarantined nodes.
for bdir in build-ci-debug build-ci-release; do
  SECDDR_INSTR=4000 SECDDR_WARMUP=1000 SECDDR_CORES=2 \
  SECDDR_FLEET_NODES=3 SECDDR_FLEET_WORKERS=2 SECDDR_FLEET_CKPT=1000 \
  SECDDR_FLEET_WATCHDOG_MS=2000 SECDDR_FLEET_STATE="$bdir/ci_chaos_state" \
  SECDDR_FLEET_JSON='' "./$bdir/fleetd" --chaos=7
done

if [[ "${SECDDR_CI_SANITIZE:-0}" == "1" ]]; then
  # unit + trace + fuzz: the corruption battery (including the
  # single-byte-flip smoke) and the adversarial fault injector must be
  # clean under ASan/UBSan, not just throw nicely. The fuzz campaigns in
  # that label are already CI-bounded (well under the 10k bench run).
  # crypto pulls in the bignum property sweeps, so the Montgomery
  # kernel's 128-bit carry chains run sanitized too.
  # fleet adds the checkpoint corruption battery and the Node/coordinator
  # worker processes. A UBSan report fails the test that hit it, with a
  # stack trace, instead of only printing.
  CTEST_ARGS=(-L 'unit|trace|fuzz|power|crypto|fleet')
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  run_matrix Debug build-ci-asan -DSECDDR_SANITIZE=address,undefined
  unset UBSAN_OPTIONS
  # ThreadSanitizer over the only in-process threads: the sweep worker
  # pool (ParallelFor, RunSweep) and the trace prefetch thread
  # (StreamFileTrace producer/consumer handoff, incl. mid-stream
  # destruction in loop mode). Each simulated System is single-threaded.
  CTEST_ARGS=(-R "ParallelFor|RunSweep|SimFastPathDeterminism|StreamFileTrace|TraceSourceDeterminism|TraceCodec")
  run_matrix Debug build-ci-tsan -DSECDDR_SANITIZE=thread
fi

echo "CI OK"
