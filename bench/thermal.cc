// Energy + thermal envelope: runs memory-bound suite workloads under the
// baseline and SecDDR security configurations with per-channel power
// accounting enabled and reports DRAM energy, average power, and the RC
// thermal-node temperatures — quantifying what the security metadata
// traffic costs in energy, not just cycles.
//
// Three exit-gated sections:
//   1. Accounting neutrality: every accounting-enabled run must be
//      bit-identical (cycles/IPC/DRAM counters) to the same run with
//      power disabled — measurement must never perturb timing.
//   2. Envelope: energy/power/peak-temperature table, baseline vs
//      SecDDR, realistic thermal constants (the numbers ROADMAP cites).
//   3. Throttle demo: a low-thermal-mass configuration whose trip point
//      sits just above the steady-state temperature, so the throttle
//      must engage (throttled_windows > 0) and the run must not finish
//      faster than its unthrottled twin.
//
// Results land in SECDDR_THERMAL_JSON (default BENCH_thermal.json) as
// one machine-checkable JSON object.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness.h"
#include "sweep.h"

using namespace secddr;
using bench::BenchOptions;
using secmem::SecurityParams;

namespace {

/// Minimal JSON assembly: every value this bench emits is a number, a
/// bool, or a C-identifier-ish name, so string building suffices.
struct JsonObject {
  std::string body;
  void field(const char* key, double v) { add(key, TablePrinter::num(v, 6)); }
  void field(const char* key, std::uint64_t v) { add(key, std::to_string(v)); }
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

sim::RunResult run_with_power(const workloads::WorkloadDesc& wl,
                              const SecurityParams& sec,
                              const BenchOptions& opt,
                              const dram::PowerConfig& power) {
  const auto traces = bench::make_trace_sources(wl, opt.cores);
  std::vector<sim::TraceSource*> ptrs;
  for (const auto& t : traces) ptrs.push_back(t.get());
  sim::SystemConfig cfg =
      bench::make_system_config(opt, sec, dram::Timings::ddr4_3200());
  cfg.power = power;
  sim::System sys(cfg, ptrs);
  return sys.run(opt.instructions, 4'000'000'000ull, opt.warmup);
}

/// Non-power result fields that power accounting must never change.
bool timing_identical(const sim::RunResult& a, const sim::RunResult& b) {
  return a.cycles == b.cycles && a.total_ipc == b.total_ipc &&
         a.dram.reads_completed == b.dram.reads_completed &&
         a.dram.writes_completed == b.dram.writes_completed &&
         a.dram.total_read_latency == b.dram.total_read_latency &&
         a.dram.activates == b.dram.activates &&
         a.engine.counter_fetches == b.engine.counter_fetches;
}

/// Channel-summed envelope numbers derived from power_per_channel.
struct Envelope {
  double energy_mj = 0.0;     ///< total DRAM energy, millijoules
  double avg_power_w = 0.0;   ///< summed over channels
  double peak_c = 0.0;        ///< hottest rank, any channel
  double dynamic_frac = 0.0;  ///< dynamic / total energy
  std::uint64_t windows = 0;
  std::uint64_t throttled_windows = 0;
  std::uint64_t remap_swaps = 0;
};

Envelope envelope_of(const sim::RunResult& r, std::uint64_t window_cycles) {
  // DDR4-3200: 1600 MHz memory clock. Accounted time per channel is the
  // closed windows, which is what the energy totals cover.
  constexpr double kMemHz = 1600e6;
  Envelope e;
  std::uint64_t total_fj = 0, dynamic_fj = 0;
  std::int64_t peak_mc = 0;
  for (const auto& p : r.power_per_channel) {
    if (!p.enabled) continue;
    total_fj += p.energy.total_fj();
    dynamic_fj += p.energy.dynamic_fj();
    e.windows = std::max(e.windows, p.windows);
    e.throttled_windows += p.throttled_windows;
    e.remap_swaps += p.remap_swaps;
    const double seconds =
        static_cast<double>(p.windows * window_cycles) / kMemHz;
    if (seconds > 0)
      e.avg_power_w += static_cast<double>(p.energy.total_fj()) * 1e-15 /
                       seconds;
    for (const auto& rank : p.ranks) peak_mc = std::max(peak_mc, rank.peak_mc);
  }
  e.energy_mj = static_cast<double>(total_fj) * 1e-12;
  e.peak_c = static_cast<double>(peak_mc) / 1000.0;
  e.dynamic_frac = total_fj > 0 ? static_cast<double>(dynamic_fj) /
                                      static_cast<double>(total_fj)
                                : 0.0;
  return e;
}

}  // namespace

int main() {
  bench::print_header(
      "DRAM energy + transient thermal envelope (baseline vs SecDDR)");
  const BenchOptions opt = BenchOptions::from_env();

  dram::PowerConfig accounting;
  accounting.enabled = true;  // realistic defaults, no policies

  const struct {
    const char* name;
    SecurityParams params;
  } configs[] = {
      {"baseline-tree", SecurityParams::baseline_tree_ctr()},
      {"secddr-ctr", SecurityParams::secddr_ctr()},
  };
  const std::vector<const char*> wl_names = {"mcf", "lbm", "omnetpp"};

  TablePrinter table({"workload", "security", "energy [mJ]", "avg power [W]",
                      "peak [C]", "dynamic frac", "identical"});
  std::vector<std::string> envelope_json;
  bool neutral = true;
  for (const char* wl_name : wl_names) {
    const auto* wl = workloads::find(wl_name);
    if (wl == nullptr) {
      std::fprintf(stderr, "FAIL: workload '%s' missing\n", wl_name);
      return 1;
    }
    for (const auto& c : configs) {
      const sim::RunResult plain =
          run_with_power(*wl, c.params, opt, dram::PowerConfig{});
      const sim::RunResult powered =
          run_with_power(*wl, c.params, opt, accounting);
      const bool identical = timing_identical(plain, powered);
      if (!identical) neutral = false;
      const Envelope e = envelope_of(powered, accounting.window_cycles);
      table.add_row({wl_name, c.name, TablePrinter::num(e.energy_mj, 3),
                     TablePrinter::num(e.avg_power_w, 2),
                     TablePrinter::num(e.peak_c, 2),
                     TablePrinter::num(e.dynamic_frac, 3),
                     identical ? "yes" : "NO"});
      JsonObject o;
      o.field("workload", std::string(wl_name));
      o.field("security", std::string(c.name));
      o.field("energy_mj", e.energy_mj);
      o.field("avg_power_w", e.avg_power_w);
      o.field("peak_c", e.peak_c);
      o.field("dynamic_frac", e.dynamic_frac);
      o.field("windows", e.windows);
      o.field("cycles", static_cast<std::uint64_t>(powered.cycles));
      o.field("total_ipc", powered.total_ipc);
      o.field("identical", identical);
      envelope_json.push_back(o.done());
    }
  }
  table.print();
  if (!neutral) {
    std::fprintf(stderr,
                 "FAIL: power accounting changed timing (must be a pure "
                 "observer)\n");
    return 1;
  }
  std::printf("\naccounting is timing-neutral (all rows bit-identical)\n");

  // Throttle demo: shrink the thermal capacitance so the node reaches
  // steady state within a bounded run (tau = R*C = 4 K/W * 500 nJ/K =
  // 2 us ~ 3 windows) and put the trip point between ambient and the
  // background-power steady state (~0.5 W/rank * 4 K/W ~ +1.9 K over
  // 45 C ambient), so any sustained traffic must trip it. The release
  // point also sits below the background steady state, so the gate stays
  // engaged — maximal throttled-window coverage for the exit check.
  std::printf("\n=== Thermal throttle demo: mcf x SecDDR-cnt ===\n");
  dram::PowerConfig demo = accounting;
  demo.thermal.c_nj_per_k = 500;
  demo.throttle = true;
  demo.trip_mc = 46'500;
  demo.release_mc = 46'200;
  demo.throttle_period = 4;
  const auto* mcf = workloads::find("mcf");
  if (mcf == nullptr) {
    std::fprintf(stderr, "FAIL: workload 'mcf' missing\n");
    return 1;
  }
  dram::PowerConfig demo_off = demo;
  demo_off.throttle = false;
  const sim::RunResult unthrottled =
      run_with_power(*mcf, SecurityParams::secddr_ctr(), opt, demo_off);
  const sim::RunResult throttled =
      run_with_power(*mcf, SecurityParams::secddr_ctr(), opt, demo);
  const Envelope eu = envelope_of(unthrottled, demo.window_cycles);
  const Envelope et = envelope_of(throttled, demo.window_cycles);
  TablePrinter demo_table({"throttle", "cycles", "total IPC", "peak [C]",
                           "throttled windows", "windows"});
  demo_table.add_row({"off", std::to_string(unthrottled.cycles),
                      TablePrinter::num(unthrottled.total_ipc, 3),
                      TablePrinter::num(eu.peak_c, 2), "-",
                      std::to_string(eu.windows)});
  demo_table.add_row({"on", std::to_string(throttled.cycles),
                      TablePrinter::num(throttled.total_ipc, 3),
                      TablePrinter::num(et.peak_c, 2),
                      std::to_string(et.throttled_windows),
                      std::to_string(et.windows)});
  demo_table.print();
  if (et.throttled_windows == 0) {
    std::fprintf(stderr,
                 "FAIL: throttle never engaged (peak %.3f C, trip %.3f C)\n",
                 et.peak_c, static_cast<double>(demo.trip_mc) / 1000.0);
    return 1;
  }
  if (throttled.cycles < unthrottled.cycles) {
    std::fprintf(stderr,
                 "FAIL: throttled run finished faster than unthrottled "
                 "(%llu < %llu cycles)\n",
                 static_cast<unsigned long long>(throttled.cycles),
                 static_cast<unsigned long long>(unthrottled.cycles));
    return 1;
  }
  std::printf("throttle engaged for %llu/%llu windows; slowdown %.3fx\n",
              static_cast<unsigned long long>(et.throttled_windows),
              static_cast<unsigned long long>(et.windows),
              unthrottled.cycles > 0
                  ? static_cast<double>(throttled.cycles) /
                        static_cast<double>(unthrottled.cycles)
                  : 0.0);

  const char* json_env = std::getenv("SECDDR_THERMAL_JSON");
  const std::string json_path = json_env ? json_env : "BENCH_thermal.json";
  if (!json_path.empty()) {
    JsonObject root;
    root.field("bench", std::string("thermal"));
    root.field("instructions", opt.instructions);
    root.field("warmup", opt.warmup);
    root.field("cores", opt.cores);
    root.field("window_cycles", accounting.window_cycles);
    std::string env = "[";
    for (std::size_t i = 0; i < envelope_json.size(); ++i)
      env += (i ? "," : "") + envelope_json[i];
    root.raw("envelope", env + "]");
    JsonObject th;
    th.field("trip_mc", static_cast<std::uint64_t>(demo.trip_mc));
    th.field("c_nj_per_k", demo.thermal.c_nj_per_k);
    th.field("throttle_period", demo.throttle_period);
    th.field("unthrottled_cycles", static_cast<std::uint64_t>(
                                       unthrottled.cycles));
    th.field("throttled_cycles", static_cast<std::uint64_t>(throttled.cycles));
    th.field("throttled_windows", et.throttled_windows);
    th.field("windows", et.windows);
    th.field("peak_c", et.peak_c);
    root.raw("throttle_demo", th.done());
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
