// perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload <fig6_mem|fig6_light|mem_4ch|fuzz> --seed <n>
//             --seconds <s> --trace <0|1> --goldens <file>
//             [--spans <file>] [--emit-goldens]
//
// A run repeats one fixed unit of work (a "pass": one whole sweep, or one
// round of identical fuzz campaigns side by side) until another pass would
// overrun --seconds, and reports medians. Every pass is checked: each sweep point's
// RunResult fingerprint must match the golden file (seed 0) or the run's
// first pass (any other seed), no point may hit the cycle limit, and a
// campaign must end with zero escapes and the same log hash. --trace 1
// alternates untraced and traced passes, reports the per-layer metrics
// from the traced ones and the wall-time difference as tracing overhead,
// and writes the recorded spans to --spans.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every check passed.
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/executor.h"
#include "fuzz/mutate.h"
#include "secmem/params.h"
#include "sim/system.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

extern char** environ;

using namespace secddr;

namespace {

// ---------------------------------------------------------------------------
// Fixed load. Every System is built from these constants (see
// make_config); nothing is read from the environment.
// ---------------------------------------------------------------------------
/// Sweep points, side-by-side campaigns and side-by-side fuzz set-ups run
/// on this many threads: 4 = nproc of the reference host.
constexpr unsigned kThreads = 4;
/// Worker threads inside one campaign. Every campaign worker attests each
/// profile itself, and attestation dominates a campaign of this size, so
/// one worker is both the fastest and the steadiest setting.
constexpr unsigned kCampaignJobs = 1;
/// Per-core instruction budgets of every sweep point. The warmup is the
/// figure benches' default: a shorter one leaves the LLC cold, and every
/// light workload then misses like a memory-intensive one. The measured
/// phase is shorter than their 150000; the mem-intensive gmean gains stay
/// within 1.6 pp of the default scale's.
constexpr std::uint64_t kInstr = 40000;
constexpr std::uint64_t kWarmup = 75000;
constexpr Cycle kMaxCycles = 4'000'000'000ull;
constexpr unsigned kCores = 4;  // Table I
/// Mutated executions per campaign pass (functional leg only).
constexpr std::uint64_t kFuzzTrials = 2000;
/// Executor calls timed one by one per traced fuzz pass.
constexpr std::size_t kProbeInputs = 1000;
/// Paper Section V-A: SecDDR gain over the 64-ary tree, gmean over the
/// memory-intensive workloads, in percent.
constexpr double kPaperCtrMiPct = 18.0;
constexpr double kPaperXtsMiPct = 37.7;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_of(Clock::time_point t, Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed 0 keeps the calibrated value; any other seed re-mixes it.
std::uint64_t reseed(std::uint64_t calibrated, std::uint64_t seed) {
  return seed == 0 ? calibrated : splitmix(calibrated ^ splitmix(seed));
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void bytes(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
};

/// Hash of every integer a RunResult carries (the derived doubles follow
/// from them): cycles, per-core, cache, per-channel engine and DRAM stats.
std::uint64_t fingerprint(const sim::RunResult& r) {
  Fnv f;
  f.u64(r.cycles);
  f.u64(r.hit_cycle_limit);
  for (const auto& c : r.cores) {
    f.u64(c.instructions);
    f.u64(c.cycles);
    f.u64(c.loads);
    f.u64(c.stores);
    f.u64(c.load_stall_cycles);
  }
  f.u64(r.mem.l1_accesses);
  f.u64(r.mem.l1_misses);
  f.u64(r.mem.llc_demand_accesses);
  f.u64(r.mem.llc_demand_misses);
  f.u64(r.mem.llc_writebacks);
  f.u64(r.mem.prefetch_fills);
  for (const auto m : r.mem.llc_demand_misses_per_core) f.u64(m);
  f.u64(r.metadata_accesses);
  for (const auto& e : r.engine_per_channel) {
    f.u64(e.data_reads);
    f.u64(e.data_writes);
    f.u64(e.counter_fetches);
    f.u64(e.mac_line_fetches);
    f.u64(e.tree_node_fetches);
    f.u64(e.meta_writebacks);
    f.u64(e.reads_with_tree_walk);
  }
  for (const auto& d : r.dram_per_channel) {
    f.u64(d.reads_enqueued);
    f.u64(d.writes_enqueued);
    f.u64(d.reads_completed);
    f.u64(d.writes_completed);
    f.u64(d.row_hits);
    f.u64(d.row_misses);
    f.u64(d.activates);
    f.u64(d.precharges);
    f.u64(d.refreshes);
    f.u64(d.write_forwards);
    f.u64(d.data_bus_busy_cycles);
    f.u64(d.total_read_latency);
  }
  return f.h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void print_samples(const char* what, const std::vector<double>& v) {
  std::printf("%s (n=%zu):", what, v.size());
  for (const double x : v) std::printf(" %.4f", x);
  std::printf("\n");
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs fn(0..n-1) on `threads` workers, handing out indices in order.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
        next.store(n);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::min<std::size_t>(threads, n); ++t)
    pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out once at the end of a traced run.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;
  int pass = 0;   ///< pass number; fuzz set-up spans: executor index
  int item = -1;  ///< point, campaign, profile or probe input; -1 = pass
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"pass\":" << s.pass
        << ",\"item\":" << s.item << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Results shared by both workload kinds.
// ---------------------------------------------------------------------------
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> values;  ///< metric name -> value

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Untraced runs report these (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
    {"throughput", "1/s"}};

/// Traced runs report these (BENCHMARK.json "per_layer"). A layer the
/// workload does not run reads 0.
constexpr MetricDef kPerLayer[] = {
    {"loop.epochs", "count"},
    {"loop.window_cycles_mean", "cycles"},
    {"loop.ns_per_epoch", "ns"},
    {"core.load_stall_share", "share"},
    {"trace.records", "count"},
    {"trace.ns_per_record", "ns"},
    {"cache.l1_accesses", "count"},
    {"cache.l1_miss_rate", "share"},
    {"cache.llc_mpki", "1/kinst"},
    {"cache.prefetch_fills", "count"},
    {"secmem.meta_reads_per_read", "ratio"},
    {"secmem.tree_walk_share", "share"},
    {"secmem.meta_miss_rate", "share"},
    {"dram.entries_per_cmd", "entries"},
    {"dram.scans_per_cmd", "ratio"},
    {"dram.row_hit_rate", "share"},
    {"dram.read_latency_mem_cycles", "cycles"},
    {"fuzz.attest_ms", "ms"},
    {"fuzz.exec_us_p50", "us"},
    {"fuzz.exec_us_p99", "us"},
    {"fuzz.novel_share", "share"},
    {"fuzz.detected_share", "share"},
    {"fuzz.exec_samples", "count"},
    {"tracing.overhead_s", "s"},
    {"tracing.untraced_passes", "count"},
    {"tracing.traced_passes", "count"}};

/// Golden fingerprints: "<workload> <label> <hex>" per line, '#' comments.
std::map<std::string, std::uint64_t> load_goldens(const std::string& path,
                                                  const std::string& wl) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string w, label, hex;
    if (line.empty() || line[0] == '#' || !(fields >> w >> label >> hex))
      continue;
    if (w == wl) out[label] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return out;
}

/// Checks one pass's (label, fingerprint) list against the reference:
/// the goldens on seed 0, the run's first pass on any other seed.
void check_fingerprints(
    const std::vector<std::pair<std::string, std::uint64_t>>& got,
    std::map<std::string, std::uint64_t>& reference, bool reference_fixed,
    const char* what, Report& rep) {
  for (const auto& [label, fp] : got) {
    auto it = reference.find(label);
    if (it == reference.end()) {
      if (reference_fixed)
        rep.fail(std::string(what) + " " + label + ": no golden fingerprint");
      else
        reference[label] = fp;
    } else if (it->second != fp) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " fingerprint %016llx != %016llx",
                    static_cast<unsigned long long>(fp),
                    static_cast<unsigned long long>(it->second));
      rep.fail(std::string(what) + " " + label + buf);
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep workloads
// ---------------------------------------------------------------------------
struct Config {
  const char* name;
  secmem::SecurityParams params;
};

std::vector<Config> fig6_configs() {
  using secmem::SecurityParams;
  return {{"tree64", SecurityParams::baseline_tree_ctr()},
          {"secddr_ctr", SecurityParams::secddr_ctr()},
          {"secddr_xts", SecurityParams::secddr_xts()},
          {"enc_ctr", SecurityParams::encrypt_only_ctr()},
          {"enc_xts", SecurityParams::encrypt_only_xts()}};
}

/// Table I system, built explicitly: 4 cores, event-driven loop, serial
/// channel ticking, power accounting off. The DRAM keeps 2:1
/// capacity:data headroom at any channel count (rows shrink as channels
/// grow), as the figure benches do.
sim::SystemConfig make_config(const secmem::SecurityParams& sec,
                              unsigned channels) {
  sim::SystemConfig cfg;
  cfg.mem.cores = kCores;
  cfg.security = sec;
  cfg.timings = dram::Timings::ddr4_3200();
  cfg.data_bytes = std::max<std::uint64_t>(8ull << 30, (2ull << 30) * kCores);
  cfg.geometry.channels = channels;
  cfg.event_driven = true;
  cfg.mem_threads = 1;
  cfg.power = dram::PowerConfig{};
  while (cfg.geometry.rows_per_bank > 1 &&
         cfg.geometry.capacity_bytes() / 2 >= 2 * cfg.data_bytes)
    cfg.geometry.rows_per_bank /= 2;
  while (cfg.geometry.capacity_bytes() < 2 * cfg.data_bytes)
    cfg.geometry.rows_per_bank *= 2;
  return cfg;
}

struct Point {
  workloads::WorkloadDesc desc;
  Config config;
  unsigned channels = 1;
  std::string label() const { return desc.name + "/" + config.name; }
};

std::vector<Point> sweep_points(const std::string& wl, std::uint64_t seed) {
  std::vector<Point> points;
  const auto configs = fig6_configs();
  for (auto desc : workloads::suite()) {
    desc.seed = reseed(desc.seed, seed);
    if (wl == "fig6_mem" && desc.memory_intensive)
      for (const auto& c : configs) points.push_back({desc, c, 1});
    if (wl == "fig6_light" && !desc.memory_intensive)
      for (const auto& c : configs) points.push_back({desc, c, 1});
    if (wl == "mem_4ch" && desc.memory_intensive)
      for (const auto& c : configs)
        if (std::strcmp(c.name, "tree64") == 0 ||
            std::strcmp(c.name, "secddr_ctr") == 0)
          points.push_back({desc, c, 4});
  }
  // Longest first: the pass ends with its slowest point, so start the
  // high-MPKI workloads early, tree configurations first (mcf's measured
  // phase takes about 3.5x longer under the tree than under SecDDR).
  const auto cost = [](const Point& p) {
    return p.desc.mpki *
           (p.config.params.rap == secmem::Rap::kIntegrityTree ? 3.5 : 1.0);
  };
  std::stable_sort(points.begin(), points.end(),
                   [&](const Point& a, const Point& b) {
                     return cost(a) > cost(b);
                   });
  return points;
}

/// Clock-free TraceSource proxy: counts the records a core pulls.
class CountingTrace final : public sim::TraceSource {
 public:
  explicit CountingTrace(sim::TraceSource& inner) : inner_(inner) {}
  bool next(sim::TraceRecord& out) override {
    ++records_;
    return inner_.next(out);
  }
  std::uint64_t records() const { return records_; }

 private:
  sim::TraceSource& inner_;
  std::uint64_t records_ = 0;
};

struct PointOut {
  sim::RunResult result;
  std::uint64_t fp = 0;
  double setup_s = 0, measured_s = 0;
  std::uint64_t epochs = 0, epoch_cycles = 0;
  dram::ScanStats scan;
  std::vector<std::uint64_t> records;  ///< per core (traced only)
  Span spans[4];                       ///< setup/warmup/measured/result
};

PointOut run_point(const Point& p, bool traced, Clock::time_point epoch) {
  PointOut out;
  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<workloads::SyntheticTrace>> gens;
  std::vector<std::unique_ptr<CountingTrace>> counters;
  std::vector<sim::TraceSource*> ptrs;
  for (unsigned c = 0; c < kCores; ++c) {
    gens.push_back(std::make_unique<workloads::SyntheticTrace>(p.desc, c));
    if (traced) {
      counters.push_back(std::make_unique<CountingTrace>(*gens.back()));
      ptrs.push_back(counters.back().get());
    } else {
      ptrs.push_back(gens.back().get());
    }
  }
  sim::System sys(make_config(p.config.params, p.channels), ptrs);
  const auto t1 = Clock::now();
  sys.begin(kInstr, kMaxCycles, kWarmup);
  // step() returns at the warmup -> measured boundary with work left.
  const bool more = sys.step(kNoEvent);
  const auto t2 = Clock::now();
  if (more)
    while (sys.step(kNoEvent)) {
    }
  const auto t3 = Clock::now();
  out.result = sys.result();
  out.fp = fingerprint(out.result);
  out.epochs = sys.backend().dispatch_epochs();
  out.epoch_cycles = sys.backend().dispatch_cycles();
  for (unsigned c = 0; c < sys.backend().channels(); ++c)
    out.scan += sys.backend().dram(c).scan_stats();
  const auto t4 = Clock::now();
  out.setup_s = std::chrono::duration<double>(t1 - t0).count();
  out.measured_s = std::chrono::duration<double>(t3 - t2).count();
  if (traced) {
    for (const auto& c : counters) out.records.push_back(c->records());
    const Clock::time_point marks[5] = {t0, t1, t2, t3, t4};
    const char* names[4] = {"setup", "warmup", "measured", "result"};
    for (int s = 0; s < 4; ++s)
      out.spans[s] = {names[s], 0, -1, ns_of(marks[s], epoch),
                      ns_of(marks[s + 1], epoch)};
  }
  return out;
}

/// Folds drained records in so the drain loop cannot be optimized away.
std::atomic<std::uint64_t> g_drain_sink{0};

/// Host ns per record of a fresh generator drained for `records` records.
double drain_ns(const workloads::WorkloadDesc& desc, unsigned core,
                std::uint64_t records) {
  workloads::SyntheticTrace gen(desc, core);
  sim::TraceRecord rec;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < records && gen.next(rec); ++i)
    sink += rec.addr + rec.gap;
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  g_drain_sink.fetch_add(sink, std::memory_order_relaxed);
  return ns;
}

struct SweepPass {
  double wall_s = 0, setup_s = 0, measured_s = 0;
  std::uint64_t measured_cycles = 0;  ///< Σ RunResult::cycles
  std::vector<PointOut> points;
};

SweepPass run_sweep_pass(const std::vector<Point>& points, bool traced,
                         Clock::time_point epoch) {
  SweepPass pass;
  pass.points.resize(points.size());
  const auto t0 = Clock::now();
  parallel_for(points.size(), kThreads, [&](std::size_t i) {
    pass.points[i] = run_point(points[i], traced, epoch);
  });
  pass.wall_s = seconds_since(t0);
  for (const auto& p : pass.points) {
    pass.setup_s += p.setup_s;
    pass.measured_s += p.measured_s;
    pass.measured_cycles += p.result.cycles;
  }
  return pass;
}

/// Gmean over memory-intensive workloads of IPC(config) / IPC(tree64) - 1,
/// in percent.
double mi_gain_pct(const std::vector<Point>& points,
                   const std::vector<PointOut>& outs, const char* config) {
  std::map<std::string, double> base, ipc;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].desc.memory_intensive) continue;
    if (std::strcmp(points[i].config.name, "tree64") == 0)
      base[points[i].desc.name] = outs[i].result.total_ipc;
    if (std::strcmp(points[i].config.name, config) == 0)
      ipc[points[i].desc.name] = outs[i].result.total_ipc;
  }
  double log_sum = 0;
  std::size_t n = 0;
  for (const auto& [name, v] : ipc) {
    if (!base.count(name) || base[name] <= 0 || v <= 0) continue;
    log_sum += std::log(v / base[name]);
    ++n;
  }
  return n ? (std::exp(log_sum / static_cast<double>(n)) - 1.0) * 100.0 : 0.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string goldens;
  std::string spans;
  bool emit_goldens = false;
};

void add_sweep_layers(const std::vector<Point>& points,
                      const std::vector<SweepPass>& traced, Report& rep) {
  // Work counts are identical on every traced pass (checked through the
  // fingerprints), so they come from the first; host times are medians.
  const SweepPass& p0 = traced.front();
  std::uint64_t epochs = 0, epoch_cycles = 0, stall = 0, core_cycles = 0,
                instr = 0, records = 0, l1 = 0, l1_miss = 0, llc_miss = 0,
                prefetch = 0, meta_reads = 0, data_reads = 0, walks = 0,
                entries = 0, scans = 0, cmds = 0, row_hits = 0, row_total = 0,
                lat = 0, lat_n = 0;
  double meta_miss = 0, meta_acc = 0;
  for (const auto& o : p0.points) {
    const auto& r = o.result;
    epochs += o.epochs;
    epoch_cycles += o.epoch_cycles;
    for (const auto& c : r.cores) {
      stall += c.load_stall_cycles;
      core_cycles += c.cycles;
      instr += c.instructions;
    }
    for (const auto n : o.records) records += n;
    l1 += r.mem.l1_accesses;
    l1_miss += r.mem.l1_misses;
    llc_miss += r.mem.llc_demand_misses;
    prefetch += r.mem.prefetch_fills;
    meta_reads += r.engine.meta_reads();
    data_reads += r.engine.data_reads;
    walks += r.engine.reads_with_tree_walk;
    meta_acc += static_cast<double>(r.metadata_accesses);
    meta_miss += r.metadata_miss_rate * static_cast<double>(r.metadata_accesses);
    entries += o.scan.entries_visited;
    scans += o.scan.issue_scans;
    cmds += o.scan.commands_issued;
    row_hits += r.dram.row_hits;
    row_total += r.dram.row_hits + r.dram.row_misses;
    lat += r.dram.total_read_latency;
    lat_n += r.dram.reads_completed;
  }
  std::vector<double> measured_ns;
  for (const auto& p : traced) measured_ns.push_back(p.measured_s * 1e9);

  // trace.ns_per_record: drain fresh generators for the same record
  // counts the cores pulled, off the pass clock.
  std::vector<double> drain(points.size() * kCores, 0.0);
  parallel_for(drain.size(), kThreads, [&](std::size_t i) {
    const std::size_t pt = i / kCores;
    const unsigned core = static_cast<unsigned>(i % kCores);
    drain[i] = drain_ns(points[pt].desc, core, p0.points[pt].records[core]);
  });
  double drain_total = 0;
  for (const double d : drain) drain_total += d;

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  auto& v = rep.values;
  v["loop.epochs"] = d(epochs);
  v["loop.window_cycles_mean"] = ratio(d(epoch_cycles), d(epochs));
  v["loop.ns_per_epoch"] = ratio(median(measured_ns), d(epochs));
  v["core.load_stall_share"] = ratio(d(stall), d(core_cycles));
  v["trace.records"] = d(records);
  v["trace.ns_per_record"] = ratio(drain_total, d(records));
  v["cache.l1_accesses"] = d(l1);
  v["cache.l1_miss_rate"] = ratio(d(l1_miss), d(l1));
  v["cache.llc_mpki"] = ratio(d(llc_miss) * 1000.0, d(instr));
  v["cache.prefetch_fills"] = d(prefetch);
  v["secmem.meta_reads_per_read"] = ratio(d(meta_reads), d(data_reads));
  v["secmem.tree_walk_share"] = ratio(d(walks), d(data_reads));
  v["secmem.meta_miss_rate"] = ratio(meta_miss, meta_acc);
  v["dram.entries_per_cmd"] = ratio(d(entries), d(cmds));
  v["dram.scans_per_cmd"] = ratio(d(scans), d(cmds));
  v["dram.row_hit_rate"] = ratio(d(row_hits), d(row_total));
  v["dram.read_latency_mem_cycles"] = ratio(d(lat), d(lat_n));
}

/// Traced - untraced median wall time, with the sample counts behind it.
void add_tracing_overhead(const std::vector<double>& untraced_wall,
                          const std::vector<double>& traced_wall,
                          Report& rep) {
  rep.values["tracing.overhead_s"] =
      median(traced_wall) - median(untraced_wall);
  rep.values["tracing.untraced_passes"] =
      static_cast<double>(untraced_wall.size());
  rep.values["tracing.traced_passes"] = static_cast<double>(traced_wall.size());
}

void run_sweep_workload(const Options& opt, Report& rep,
                        std::vector<Span>& spans) {
  const auto points = sweep_points(opt.workload, opt.seed);
  std::printf("workload %s: %zu points, %u threads, %llu measured + %llu "
              "warmup instr/core, %u cores, %u channel(s)\n",
              opt.workload.c_str(), points.size(), kThreads,
              static_cast<unsigned long long>(kInstr),
              static_cast<unsigned long long>(kWarmup), kCores,
              points.front().channels);
  std::map<std::string, std::uint64_t> reference;
  const bool fixed = opt.seed == 0 && !opt.emit_goldens;
  if (fixed) reference = load_goldens(opt.goldens, opt.workload);
  if (fixed && reference.empty()) {
    rep.fail("no goldens for " + opt.workload + " in " + opt.goldens);
    return;
  }

  const auto epoch = Clock::now();
  std::vector<SweepPass> untraced, traced;
  int pass_no = 0;
  // Stop once another round would overrun --seconds.
  double round_s = 0;
  do {
    const auto r0 = Clock::now();
    for (const bool tr : {false, true}) {
      if (tr && !opt.trace) continue;
      const auto ps = Clock::now();
      SweepPass pass = run_sweep_pass(points, tr, epoch);
      std::vector<std::pair<std::string, std::uint64_t>> got;
      for (std::size_t i = 0; i < points.size(); ++i) {
        got.push_back({points[i].label(), pass.points[i].fp});
        ++rep.attempted;
        if (pass.points[i].result.hit_cycle_limit)
          rep.fail(points[i].label() + " hit the cycle limit");
      }
      check_fingerprints(got, reference, fixed, tr ? "traced" : "untraced",
                         rep);
      if (tr) {
        spans.push_back({"pass", pass_no, -1, ns_of(ps, epoch),
                         ns_of(Clock::now(), epoch)});
        for (std::size_t i = 0; i < pass.points.size(); ++i)
          for (Span s : pass.points[i].spans) {
            s.pass = pass_no;
            s.item = static_cast<int>(i);
            spans.push_back(s);
          }
      }
      (tr ? traced : untraced).push_back(std::move(pass));
      ++pass_no;
    }
    round_s = seconds_since(r0);
  } while (seconds_since(epoch) + round_s < opt.seconds);

  if (opt.emit_goldens) {
    for (std::size_t i = 0; i < points.size(); ++i)
      std::printf("GOLDEN %s %s %016llx\n", opt.workload.c_str(),
                  points[i].label().c_str(),
                  static_cast<unsigned long long>(untraced[0].points[i].fp));
  }

  std::vector<double> wall, setup, rate;
  for (const auto& p : untraced) {
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
    rate.push_back(ratio(static_cast<double>(p.measured_cycles) / 1e6,
                         p.measured_s));
  }
  const auto& outs = untraced.front().points;
  print_samples("wall_s samples", wall);
  std::printf("passes: %zu untraced, %zu traced\n", untraced.size(),
              traced.size());
  std::printf("wall_s            %.4f s   (median of %zu passes)\n",
              median(wall), wall.size());
  std::printf("sim_mcycles_per_s %.4f Mcycles/s (median of %zu passes)\n",
              median(rate), rate.size());
  std::printf("setup_s           %.5f s   (median of %zu passes, %zu Systems "
              "each)\n",
              median(setup), setup.size(), points.size());
  if (opt.workload == "fig6_mem") {
    const double ctr = mi_gain_pct(points, outs, "secddr_ctr");
    const double xts = mi_gain_pct(points, outs, "secddr_xts");
    std::printf("SecDDR+CTR vs tree64 (mem-int gmean): simulated %+.2f%%  "
                "paper %+.1f%%  err_ctr_mi_pp %.3f pp\n",
                ctr, kPaperCtrMiPct, std::fabs(ctr - kPaperCtrMiPct));
    std::printf("SecDDR+XTS vs tree64 (mem-int gmean): simulated %+.2f%%  "
                "paper %+.1f%%  err_xts_mi_pp %.3f pp\n",
                xts, kPaperXtsMiPct, std::fabs(xts - kPaperXtsMiPct));
  }

  if (!opt.trace) {
    rep.values["wall_s"] = median(wall);
    rep.values["setup_s"] = median(setup);
    rep.values["peak_rss_mb"] = peak_rss_mb();
    rep.values["throughput"] = median(rate);
    return;
  }
  add_sweep_layers(points, traced, rep);
  std::vector<double> traced_wall;
  for (const auto& p : traced) traced_wall.push_back(p.wall_s);
  add_tracing_overhead(wall, traced_wall, rep);
}

// ---------------------------------------------------------------------------
// Fuzz workload
// ---------------------------------------------------------------------------
void run_fuzz_workload(const Options& opt, Report& rep,
                       std::vector<Span>& spans) {
  fuzz::CampaignOptions copt;  // default profiles, functional leg only
  copt.trials = kFuzzTrials;
  copt.seed = reseed(copt.seed, opt.seed);
  copt.jobs = kCampaignJobs;
  copt.exec = fuzz::ExecutorOptions{};
  std::printf("workload fuzz: campaign seed 0x%llx, %llu trials per pass, "
              "%u job(s), functional leg\n",
              static_cast<unsigned long long>(copt.seed),
              static_cast<unsigned long long>(copt.trials), kCampaignJobs);

  std::map<std::string, std::uint64_t> reference;
  const bool fixed = opt.seed == 0 && !opt.emit_goldens;
  if (fixed) reference = load_goldens(opt.goldens, opt.workload);
  if (fixed && reference.empty()) {
    rep.fail("no goldens for fuzz in " + opt.goldens);
    return;
  }

  // Executor-call probe inputs: the seed corpus plus Mutator(seed) inputs.
  std::vector<fuzz::FuzzInput> probe = fuzz::seed_corpus();
  fuzz::Mutator mut(copt.seed);
  while (probe.size() < kProbeInputs) {
    fuzz::FuzzInput in = mut.random_input();
    mut.mutate(&in);
    probe.push_back(std::move(in));
  }

  const auto epoch = Clock::now();
  // Set-up: attest every profile once on each of kThreads fresh
  // executors, side by side. The first one then serves the call probe.
  std::vector<std::unique_ptr<fuzz::Executor>> fresh(kThreads);
  std::vector<double> setup(kThreads), attest_ms;
  std::vector<std::vector<Span>> attest_spans(kThreads);
  parallel_for(kThreads, kThreads, [&](std::size_t i) {
    fresh[i] = std::make_unique<fuzz::Executor>(copt.exec);
    const auto s0 = Clock::now();
    for (unsigned p = 0; p < fuzz::kProfileCount; ++p) {
      const auto a0 = Clock::now();
      if (fresh[i]->master_snapshot(p).empty())
        throw std::runtime_error("empty master snapshot");
      attest_spans[i].push_back({"attest", static_cast<int>(i),
                                 static_cast<int>(p), ns_of(a0, epoch),
                                 ns_of(Clock::now(), epoch)});
    }
    setup[i] = seconds_since(s0);
  });
  for (const auto& v : attest_spans)
    for (const Span& s : v) {
      attest_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      if (opt.trace) spans.push_back(s);
    }
  fuzz::Executor& ex = *fresh.front();

  std::vector<double> wall, rate, traced_wall, exec_us;
  double novel = 0, detected = 0;
  std::vector<std::uint64_t> probe_sigs;
  int pass_no = 0;
  // Stop once another round would overrun --seconds.
  double round_s = 0;
  do {
    const auto r0 = Clock::now();
    for (const bool tr : {false, true}) {
      if (tr && !opt.trace) continue;
      // kThreads identical campaigns side by side: each is one sample.
      std::vector<fuzz::CampaignResult> res(kThreads);
      std::vector<Span> cspans(kThreads);
      parallel_for(kThreads, kThreads, [&](std::size_t i) {
        const auto c0 = Clock::now();
        res[i] = fuzz::Campaign(copt).run();
        cspans[i] = {"campaign", pass_no, static_cast<int>(i),
                     ns_of(c0, epoch), ns_of(Clock::now(), epoch)};
      });
      std::vector<double>& walls = tr ? traced_wall : wall;
      for (std::size_t i = 0; i < kThreads; ++i) {
        const double secs =
            static_cast<double>(cspans[i].end_ns - cspans[i].start_ns) / 1e9;
        walls.push_back(secs);
        rep.attempted += res[i].executions;
        for (const auto& e : res[i].escapes)
          rep.fail("escape at trial " + std::to_string(e.trial) + ": " +
                   e.outcome.note);
        Fnv log_hash;
        log_hash.bytes(res[i].log);
        check_fingerprints({{"campaign_log", log_hash.h}}, reference, fixed,
                           tr ? "traced" : "untraced", rep);
        if (opt.emit_goldens && pass_no == 0 && i == 0)
          std::printf("GOLDEN fuzz campaign_log %016llx\n",
                      static_cast<unsigned long long>(log_hash.h));
        if (tr)
          spans.push_back(cspans[i]);
        else
          rate.push_back(
              ratio(static_cast<double>(res[i].executions), secs));
      }
      if (!tr) {
        ++pass_no;
        continue;
      }
      novel = ratio(static_cast<double>(res[0].corpus_size),
                    static_cast<double>(res[0].executions));
      detected = ratio(
          static_cast<double>(res[0].verdicts[static_cast<std::size_t>(
              fuzz::Verdict::kDetected)]),
          static_cast<double>(res[0].executions));
      // One span per executor call on the already-attested executor, off
      // the campaign clock.
      std::vector<std::uint64_t> sigs;
      for (std::size_t i = 0; i < probe.size(); ++i) {
        const auto e0 = Clock::now();
        const fuzz::Outcome o = ex.run(probe[i]);
        const auto e1 = Clock::now();
        spans.push_back({"exec", pass_no, static_cast<int>(i),
                         ns_of(e0, epoch), ns_of(e1, epoch)});
        exec_us.push_back(
            std::chrono::duration<double, std::micro>(e1 - e0).count());
        sigs.push_back(o.signature);
        ++rep.attempted;
        if (o.verdict == fuzz::Verdict::kEscape)
          rep.fail("probe input " + std::to_string(i) + " escaped");
      }
      if (probe_sigs.empty())
        probe_sigs = sigs;
      else if (probe_sigs != sigs)
        rep.fail("probe signatures differ between passes");
      ++pass_no;
    }
    round_s = seconds_since(r0);
  } while (seconds_since(epoch) + round_s < opt.seconds);

  std::printf("passes: %zu untraced, %zu traced\n", wall.size(),
              traced_wall.size());
  print_samples("wall_s samples", wall);
  print_samples("setup_s samples", setup);
  std::printf("wall_s            %.4f s   (median of %zu campaigns)\n",
              median(wall), wall.size());
  std::printf("fuzz_execs_per_s  %.2f execs/s (median of %zu campaigns)\n",
              median(rate), rate.size());
  std::printf("setup_s           %.5f s   (median of %zu executors attesting "
              "%u profiles)\n",
              median(setup), setup.size(), fuzz::kProfileCount);

  if (!opt.trace) {
    rep.values["wall_s"] = median(wall);
    rep.values["setup_s"] = median(setup);
    rep.values["peak_rss_mb"] = peak_rss_mb();
    rep.values["throughput"] = median(rate);
    return;
  }
  rep.values["fuzz.attest_ms"] = median(attest_ms);
  rep.values["fuzz.exec_us_p50"] = percentile(exec_us, 0.50);
  rep.values["fuzz.exec_us_p99"] = percentile(exec_us, 0.99);
  rep.values["fuzz.novel_share"] = novel;
  rep.values["fuzz.detected_share"] = detected;
  rep.values["fuzz.exec_samples"] = static_cast<double>(exec_us.size());
  add_tracing_overhead(wall, traced_wall, rep);
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------
/// The benchmark builds every configuration explicitly; a SECDDR_* knob in
/// the environment means someone expects it to change the work, so refuse
/// rather than silently ignore it.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "SECDDR_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      std::fprintf(stderr, "perfbench: refusing to run with %.*s set\n",
                   static_cast<int>(eq ? eq - *e : std::strlen(*e)), *e);
      clean = false;
    }
  return clean;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig6_mem|fig6_light|mem_4ch|"
               "fuzz> --seed <n> --seconds <s> --trace <0|1> --goldens "
               "<file> [--spans <file>] [--emit-goldens]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--emit-goldens") {
      o.emit_goldens = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end || v[0] == '-') return false;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(o.seconds > 0 && o.seconds <= 600))
        return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--goldens") {
      o.goldens = v;
    } else if (a == "--spans") {
      o.spans = v;
    } else {
      return false;
    }
  }
  return o.workload == "fig6_mem" || o.workload == "fig6_light" ||
         o.workload == "mem_4ch" || o.workload == "fuzz";
}

void print_host(const Options& o) {
  utsname u{};
  uname(&u);
  std::printf("perfbench host: nproc=%u kernel=%s %s compiler=\"%s\" "
              "build=%s\n",
              std::max(1u, std::thread::hardware_concurrency()), u.sysname,
              u.release, __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("perfbench config: workload=%s seed=%llu seconds=%g trace=%d "
              "sweep_threads=%u campaign_jobs=%u event_driven=1 mem_threads=1 "
              "power=off warm_checkpoint=none\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, kThreads, kCampaignJobs);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  if (!environment_clean()) return 2;
  print_host(opt);

  Report rep;
  std::vector<Span> spans;
  try {
    if (opt.workload == "fuzz")
      run_fuzz_workload(opt, rep, spans);
    else
      run_sweep_workload(opt, rep, spans);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  if (opt.trace && !opt.spans.empty()) write_spans(opt.spans, spans);

  for (const auto& e : rep.errors) std::printf("FAIL %s\n", e.c_str());
  std::printf("fail_share        %.6f (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(rep.failed),
                    static_cast<double>(std::max<std::uint64_t>(
                        rep.attempted, 1))),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  std::ostringstream metrics;
  metrics.precision(17);
  bool first = true;
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = rep.values.find(m.name);
    const double v = it == rep.values.end() ? 0.0 : it->second;
    std::printf("metric %-30s %.6g %s\n", m.name, v, m.unit);
    metrics << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
            << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }

  const bool correct = rep.failed == 0 && rep.attempted > 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(rep.attempted, 1)
     << ", \"failed\": " << rep.failed << ", \"metrics\": {"
     << metrics.str() << "}}";
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}
