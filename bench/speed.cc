// Simulation-loop speed: runs the fig6 sweep (suite x 5 security
// configurations) under both the tick-every-cycle and the event-driven
// loop and reports wall time, simulated core-cycles per second, and the
// speedup. The two runs must produce identical results (exit 1 if not),
// so this doubles as an end-to-end determinism check; the `perf` CTest
// smoke runs it with a bounded budget and no wall-time assertion.
//
// A channel-scaling section then re-runs the most memory-bound suite
// workload (mcf) at channels 1/2/4: the sharded backend must relieve the
// single-command-bus saturation (total IPC at every multi-channel point
// must not fall below the 1-channel baseline; exit 1 otherwise).
//
// A scan-cost section then checks that the per-bank issue scans never
// visit more entries per command than a global-deque walk would (exit 1
// otherwise).
//
// Every section's numbers are also written to a machine-checkable JSON
// file (BENCH_speed.json by default) so the perf trajectory is diffable
// per PR; each loop's entry carries its epoch telemetry (mean window
// width = core cycles per backend epoch).
//
// Extra knobs:
//   SECDDR_SPEED_MODE=fast|slow   run only one loop (profiling one side)
//   SECDDR_SPEED_PER_POINT=1      per-sweep-point wall/cycle lines on stderr
//   SECDDR_SPEED_JSON=path        JSON output path ('' disables;
//                                 default BENCH_speed.json)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "harness.h"
#include "sweep.h"

using namespace secddr;
using bench::BenchOptions;
using secmem::SecurityParams;

namespace {

struct ModeResult {
  double wall_s = 0.0;
  std::uint64_t simulated_cycles = 0;  ///< measured-phase core cycles
  double total_ipc = 0.0;              ///< checksum across modes
  std::uint64_t epochs = 0;        ///< backend epochs dispatched (measured)
  std::uint64_t epoch_cycles = 0;  ///< core cycles those epochs covered
};

/// Runs the sweep in one loop mode.
ModeResult run_mode(const std::vector<bench::SweepPoint>& points,
                    const BenchOptions& opt, bool event_driven) {
  const bool per_point = std::getenv("SECDDR_SPEED_PER_POINT") != nullptr;
  std::atomic<std::uint64_t> epochs{0}, epoch_cycles{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = bench::sweep_map(
      points.size(),
      [&](std::size_t i) -> sim::RunResult {
        const auto p0 = std::chrono::steady_clock::now();
        const auto traces =
            bench::make_trace_sources(points[i].workload, opt.cores);
        std::vector<sim::TraceSource*> ptrs;
        for (const auto& t : traces) ptrs.push_back(t.get());
        sim::SystemConfig cfg = bench::make_system_config(
            opt, points[i].security, points[i].timings);
        cfg.event_driven = event_driven;
        sim::System sys(cfg, ptrs);
        auto r = sys.run(opt.instructions, 4'000'000'000ull, opt.warmup);
        epochs.fetch_add(sys.backend().dispatch_epochs(),
                         std::memory_order_relaxed);
        epoch_cycles.fetch_add(sys.backend().dispatch_cycles(),
                               std::memory_order_relaxed);
        if (per_point) {
          const double dt = std::chrono::duration<double>(
              std::chrono::steady_clock::now() - p0).count();
          std::fprintf(stderr, "point %zu %s mode=%d wall=%.3f cycles=%llu\n",
                       i, points[i].workload.name.c_str(), event_driven, dt,
                       (unsigned long long)r.cycles);
        }
        return r;
      });
  const auto t1 = std::chrono::steady_clock::now();
  ModeResult m;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (const auto& r : results) {
    m.simulated_cycles += r.cycles;
    m.total_ipc += r.total_ipc;
  }
  m.epochs = epochs.load();
  m.epoch_cycles = epoch_cycles.load();
  return m;
}

std::vector<std::string> row_for(const char* name, const ModeResult& m) {
  return {name, TablePrinter::num(m.wall_s, 2),
          TablePrinter::num(static_cast<double>(m.simulated_cycles) / 1e6, 1),
          TablePrinter::num(static_cast<double>(m.simulated_cycles) / 1e6 /
                                (m.wall_s > 0 ? m.wall_s : 1e-9),
                            1)};
}

double mean_window(const ModeResult& m) {
  return m.epochs > 0 ? static_cast<double>(m.epoch_cycles) /
                            static_cast<double>(m.epochs)
                      : 0.0;
}

/// Minimal JSON assembly: every value this bench emits is a number, a
/// bool, or a C-identifier-ish name, so string building suffices.
struct JsonObject {
  std::string body;
  void field(const char* key, double v) {
    add(key, TablePrinter::num(v, 6));
  }
  void field(const char* key, std::uint64_t v) {
    add(key, std::to_string(v));
  }
  void field(const char* key, unsigned v) { add(key, std::to_string(v)); }
  void field(const char* key, bool v) { add(key, v ? "true" : "false"); }
  void field(const char* key, const std::string& v) {
    add(key, "\"" + v + "\"");
  }
  void raw(const char* key, const std::string& v) { add(key, v); }
  std::string done() const { return "{" + body + "}"; }

 private:
  void add(const char* key, const std::string& v) {
    if (!body.empty()) body += ",";
    body += "\"";
    body += key;
    body += "\":";
    body += v;
  }
};

JsonObject mode_json(const ModeResult& m) {
  JsonObject o;
  o.field("wall_s", m.wall_s);
  o.field("sim_cycles", m.simulated_cycles);
  o.field("total_ipc", m.total_ipc);
  o.field("epochs", m.epochs);
  o.field("mean_window_cycles", mean_window(m));
  return o;
}

}  // namespace

int main() {
  bench::print_header(
      "Simulation-loop speed: per-cycle vs event-driven (fig6 sweep)");
  const BenchOptions opt = BenchOptions::from_env();
  const char* mode_env = std::getenv("SECDDR_SPEED_MODE");
  const bool run_slow = !mode_env || std::strcmp(mode_env, "fast") != 0;
  const bool run_fast = !mode_env || std::strcmp(mode_env, "slow") != 0;

  const std::vector<SecurityParams> configs = {
      SecurityParams::baseline_tree_ctr(), SecurityParams::secddr_ctr(),
      SecurityParams::encrypt_only_ctr(), SecurityParams::secddr_xts(),
      SecurityParams::encrypt_only_xts(),
  };
  const auto points = bench::cross_sweep(workloads::suite(), configs, opt);
  std::printf("%zu sweep points, %u worker thread(s)\n\n", points.size(),
              bench::sweep_jobs());

  TablePrinter table({"loop", "wall [s]", "sim Mcycles", "Mcycles/s"});
  ModeResult slow, fast;
  if (run_slow) {
    slow = run_mode(points, opt, /*event_driven=*/false);
    table.add_row(row_for("per-cycle", slow));
  }
  if (run_fast) {
    fast = run_mode(points, opt, /*event_driven=*/true);
    table.add_row(row_for("event-driven", fast));
  }
  table.print();

  if (run_slow && run_fast) {
    if (slow.total_ipc != fast.total_ipc ||
        slow.simulated_cycles != fast.simulated_cycles) {
      std::fprintf(stderr,
                   "FAIL: loops disagree (ipc %.17g vs %.17g, cycles %llu vs "
                   "%llu)\n",
                   slow.total_ipc, fast.total_ipc,
                   static_cast<unsigned long long>(slow.simulated_cycles),
                   static_cast<unsigned long long>(fast.simulated_cycles));
      return 1;
    }
    std::printf("\nevent-driven speedup: %.2fx (identical results)\n",
                slow.wall_s / (fast.wall_s > 0 ? fast.wall_s : 1e-9));
  }

  // Channel scaling (fig6-style point): mcf, the suite's most memory-bound
  // workload, across the multi-channel backend. Each channel adds an
  // independent command/data bus and security engine, so total IPC must
  // not degrade as channels grow; at the paper's saturated 4-core config
  // it improves substantially.
  std::printf("\n=== Channel scaling: mcf x SecDDR-cnt, %u core(s) ===\n",
              opt.cores);
  TablePrinter chan_table(
      {"channels", "total IPC", "vs 1ch", "avg read lat [mem cyc]",
       "bus busy [cyc/chan]"});
  const auto* mcf = workloads::find("mcf");
  if (mcf == nullptr) {
    std::fprintf(stderr, "FAIL: workload 'mcf' missing from the suite\n");
    return 1;
  }
  double ipc_1ch = 0.0;
  unsigned regressed_at = 0;
  double regressed_ipc = 0.0;
  std::vector<std::string> chan_json;
  for (unsigned ch : {1u, 2u, 4u}) {
    BenchOptions copt = opt;
    copt.channels = ch;
    const sim::RunResult r =
        bench::run_workload(*mcf, SecurityParams::secddr_ctr(), copt);
    {
      JsonObject o;
      o.field("channels", ch);
      o.field("total_ipc", r.total_ipc);
      o.field("avg_read_latency_mem_cycles", r.dram.avg_read_latency());
      chan_json.push_back(o.done());
    }
    if (ch == 1) ipc_1ch = r.total_ipc;
    // Every multi-channel point must hold the 1-channel baseline, not
    // just the endpoint — a 2-channel-only regression must fail too.
    if (r.total_ipc < ipc_1ch && regressed_at == 0) {
      regressed_at = ch;
      regressed_ipc = r.total_ipc;
    }
    chan_table.add_row(
        {std::to_string(ch), TablePrinter::num(r.total_ipc, 3),
         TablePrinter::num(ipc_1ch > 0 ? r.total_ipc / ipc_1ch : 0.0, 2),
         TablePrinter::num(r.dram.avg_read_latency(), 1),
         TablePrinter::num(
             static_cast<double>(r.dram.data_bus_busy_cycles) / ch, 0)});
  }
  chan_table.print();
  if (regressed_at != 0) {
    std::fprintf(stderr,
                 "FAIL: %u-channel IPC %.4f below 1-channel IPC %.4f\n",
                 regressed_at, regressed_ipc, ipc_1ch);
    return 1;
  }

  // Scan cost: per-bank request queues organize controller entries so the
  // FR-FCFS issue scans visit O(active banks) records instead of walking
  // the global deques. "global-deque proxy" is the direction's queue
  // depth at each scan — exactly the entries the pre-per-bank scan
  // walked (its stamp dedup only cut repeat *timing checks*, not the
  // walk). Exit gate: per-bank scans must never visit more than the
  // global walk would have.
  std::printf("\n=== Issue-scan cost: entries visited per issued command "
              "===\n");
  TablePrinter scan_table({"workload", "commands", "per-bank [ent/cmd]",
                           "global-deque proxy [ent/cmd]", "reduction"});
  bool scan_regressed = false;
  for (const char* wl_name : {"mcf", "lbm", "omnetpp"}) {
    const auto* wl = workloads::find(wl_name);
    if (wl == nullptr) {
      std::fprintf(stderr, "FAIL: workload '%s' missing\n", wl_name);
      return 1;
    }
    const auto traces = bench::make_trace_sources(*wl, opt.cores);
    std::vector<sim::TraceSource*> ptrs;
    for (const auto& t : traces) ptrs.push_back(t.get());
    sim::System sys(bench::make_system_config(
                        opt, SecurityParams::secddr_ctr(),
                        dram::Timings::ddr4_3200()),
                    ptrs);
    sys.run(opt.instructions, 4'000'000'000ull, opt.warmup);
    dram::ScanStats ss;
    for (unsigned c = 0; c < sys.backend().channels(); ++c)
      ss += sys.backend().dram(c).scan_stats();
    if (ss.commands_issued == 0) continue;
    const double per_bank = static_cast<double>(ss.entries_visited) /
                            static_cast<double>(ss.commands_issued);
    const double global_proxy = static_cast<double>(ss.queue_depth_sum) /
                                static_cast<double>(ss.commands_issued);
    scan_table.add_row(
        {wl_name, std::to_string(ss.commands_issued),
         TablePrinter::num(per_bank, 1), TablePrinter::num(global_proxy, 1),
         TablePrinter::num(global_proxy / (per_bank > 0 ? per_bank : 1e-9),
                           2)});
    // Gate only when the queues are actually deep: per_bank additionally
    // counts index/rank records and FIFO-head walks, so on near-empty
    // queues (a couple of entries per scan) it can exceed the raw queue
    // depth even though the per-bank scan is strictly cheaper — the
    // comparison is only meaningful once depth dominates those constants.
    if (global_proxy >= 8.0 && per_bank > global_proxy) {
      std::fprintf(stderr,
                   "FAIL: %s per-bank scan visits %.1f entries/cmd, more "
                   "than the %.1f a global-deque walk would\n",
                   wl_name, per_bank, global_proxy);
      scan_regressed = true;
    }
  }
  scan_table.print();
  if (scan_regressed) return 1;

  // Machine-checkable perf trajectory (see file comment).
  const char* json_env = std::getenv("SECDDR_SPEED_JSON");
  const std::string json_path = json_env ? json_env : "BENCH_speed.json";
  if (!json_path.empty()) {
    JsonObject root;
    root.field("bench", std::string("speed"));
    root.field("instructions", opt.instructions);
    root.field("warmup", opt.warmup);
    root.field("cores", opt.cores);
    root.field("sweep_points", static_cast<std::uint64_t>(points.size()));
    root.field("hardware_concurrency",
               static_cast<unsigned>(std::thread::hardware_concurrency()));
    if (run_slow && run_fast) {
      JsonObject loop;
      loop.raw("per_cycle", mode_json(slow).done());
      loop.raw("event_driven", mode_json(fast).done());
      loop.field("speedup", fast.wall_s > 0 ? slow.wall_s / fast.wall_s : 0.0);
      root.raw("loop", loop.done());
    }
    std::string chans = "[";
    for (std::size_t i = 0; i < chan_json.size(); ++i)
      chans += (i ? "," : "") + chan_json[i];
    root.raw("channel_scaling", chans + "]");
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      const std::string out = root.done();
      std::fprintf(f, "%s\n", out.c_str());
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "WARN: could not write %s\n", json_path.c_str());
    }
  }
  return 0;
}
