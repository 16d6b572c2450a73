// Tests for the parallel sweep runner in bench/sweep.{h,cc}: ordering,
// error propagation, and serial/parallel result equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/sweep.h"

namespace secddr::bench {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialPathRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroAndOneItems) {
  int calls = 0;
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(64, 4,
                   [&](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Serial path too.
  EXPECT_THROW(parallel_for(2, 1,
                            [&](std::size_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(CrossSweep, WorkloadMajorOrderAndFilter) {
  const auto& suite = workloads::suite();
  ASSERT_GE(suite.size(), 2u);
  const std::vector<secmem::SecurityParams> configs = {
      secmem::SecurityParams::baseline_tree_ctr(),
      secmem::SecurityParams::secddr_ctr(),
  };

  BenchOptions opt;
  auto points = cross_sweep(suite, configs, opt);
  ASSERT_EQ(points.size(), suite.size() * configs.size());
  EXPECT_EQ(points[0].workload.name, suite[0].name);
  EXPECT_EQ(points[1].workload.name, suite[0].name);
  EXPECT_EQ(points[2].workload.name, suite[1].name);

  opt.filter = suite[0].name;
  auto filtered = cross_sweep(suite, configs, opt);
  for (const auto& p : filtered)
    EXPECT_NE(p.workload.name.find(suite[0].name), std::string::npos);
  EXPECT_LT(filtered.size(), points.size());
}

// The acceptance gate for the tentpole: a parallel sweep must produce
// results identical to the serial path, point for point.
TEST(RunSweep, ParallelMatchesSerial) {
  BenchOptions opt;
  opt.instructions = 3000;
  opt.warmup = 500;
  opt.cores = 2;

  const auto& suite = workloads::suite();
  std::vector<workloads::WorkloadDesc> subset(suite.begin(),
                                              suite.begin() + 3);
  const std::vector<secmem::SecurityParams> configs = {
      secmem::SecurityParams::baseline_tree_ctr(),
      secmem::SecurityParams::secddr_ctr(),
  };
  const auto points = cross_sweep(subset, configs, opt);

  const auto serial = run_sweep(points, opt, /*jobs=*/1);
  const auto parallel = run_sweep(points, opt, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(points[i].workload.name);
    EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
    EXPECT_DOUBLE_EQ(serial[i].total_ipc, parallel[i].total_ipc);
    EXPECT_DOUBLE_EQ(serial[i].llc_mpki, parallel[i].llc_mpki);
    EXPECT_EQ(serial[i].metadata_accesses, parallel[i].metadata_accesses);
  }
}

// Sets an env var for one test, restoring the previous value (or absence)
// on destruction so the knob tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_.has_value())
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(SweepJobs, EnvOverride) {
  ScopedEnv j("SECDDR_JOBS", nullptr);
  EXPECT_EQ(sweep_jobs(), std::max(1u, std::thread::hardware_concurrency()));
  ::setenv("SECDDR_JOBS", "3", 1);
  EXPECT_EQ(sweep_jobs(), 3u);
}

TEST(ThreadKnobs, EnvUnsignedRejectsMalformedValues) {
  ScopedEnv e("SECDDR_TEST_KNOB", nullptr);
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);  // unset
  ::setenv("SECDDR_TEST_KNOB", "3", 1);
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 3u);
  ::setenv("SECDDR_TEST_KNOB", "0", 1);  // must be positive
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);
  ::setenv("SECDDR_TEST_KNOB", "-1", 1);  // strtoul would wrap this
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);
  ::setenv("SECDDR_TEST_KNOB", "2x", 1);  // trailing junk
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);
}

}  // namespace
}  // namespace secddr::bench
