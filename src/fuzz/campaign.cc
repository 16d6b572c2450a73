#include "fuzz/campaign.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

namespace secddr::fuzz {

namespace {

bool env_flag(const char* name, bool fallback) {
  const char* s = std::getenv(name);
  if (!s || !*s) return fallback;
  return std::strcmp(s, "0") != 0;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

CampaignOptions CampaignOptions::from_env() {
  CampaignOptions o;
  if (const char* s = std::getenv("SECDDR_FUZZ_TRIALS"))
    o.trials = std::strtoull(s, nullptr, 10);
  if (const char* s = std::getenv("SECDDR_FUZZ_SEED"))
    o.seed = std::strtoull(s, nullptr, 0);
  if (const char* s = std::getenv("SECDDR_FUZZ_JOBS"))
    o.jobs = static_cast<unsigned>(std::strtoul(s, nullptr, 10));
  if (o.jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    o.jobs = hw ? hw : 1u;
  }
  if (const char* s = std::getenv("SECDDR_FUZZ_PROFILES")) o.profile_filter = s;
  o.exec.timing_leg = env_flag("SECDDR_FUZZ_SIM", false);
  o.exec.event_driven = env_flag("SECDDR_FUZZ_EVENT_DRIVEN", true);
  if (const char* s = std::getenv("SECDDR_FUZZ_SAVE_DIR")) o.save_dir = s;
  return o;
}

Campaign::Campaign(const CampaignOptions& opts) : opts_(opts) {
  for (unsigned p = 0; p < kProfileCount; ++p) {
    const std::string name = profile(p).name;
    if (opts_.profile_filter.empty() ||
        name.find(opts_.profile_filter) != std::string::npos)
      profiles_.push_back(p);
  }
  if (profiles_.empty())  // a filter matching nothing means "all"
    for (unsigned p = 0; p < kProfileCount; ++p) profiles_.push_back(p);
}

CampaignResult Campaign::run() {
  CampaignResult res;
  std::ostringstream log;
  log << "secddr-fuzz campaign seed=" << hex64(opts_.seed)
      << " trials=" << opts_.trials << " profiles=";
  for (std::size_t i = 0; i < profiles_.size(); ++i)
    log << (i ? "," : "") << profile(profiles_[i]).name;
  log << "\n";

  Mutator mutator(opts_.seed);
  Corpus corpus;
  // One executor per worker slot (masters are per-profile and expensive
  // to attest; workers reuse theirs across batches). Slot 0 doubles as
  // the merge-thread executor for seeds and minimization.
  std::vector<std::unique_ptr<Executor>> workers;
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned jobs = opts_.jobs ? opts_.jobs : std::max(1u, hw);
  for (unsigned j = 0; j < jobs; ++j)
    workers.push_back(std::make_unique<Executor>(opts_.exec));
  Executor& merge_exec = *workers[0];

  const auto in_profiles = [&](unsigned p) {
    for (const unsigned q : profiles_)
      if (q == p) return true;
    return false;
  };

  std::uint64_t trial_no = 0;
  const auto merge_one = [&](const FuzzInput& in, const Outcome& o) {
    ++res.executions;
    ++res.verdicts[static_cast<std::size_t>(o.verdict)];
    if (corpus.add_if_new(in, o.signature))
      log << "new trial=" << trial_no << " profile=" << profile(in.profile).name
          << " verdict=" << to_string(o.verdict) << " sig=" << hex64(o.signature)
          << " faults=" << o.faults_fired << "\n";
    if (o.verdict == Verdict::kEscape) {
      EscapeReport rep;
      rep.trial = trial_no;
      rep.input = in;
      rep.outcome = o;
      rep.minimized = minimize(in, [&](const FuzzInput& t) {
        return merge_exec.run(t).verdict == Verdict::kEscape;
      });
      log << "ESCAPE trial=" << trial_no
          << " profile=" << profile(in.profile).name << " note=" << o.note
          << "\n  plan: ";
      for (const FaultOp& op : rep.minimized.plan)
        log << to_string(op.cls) << "@" << op.trigger << " ";
      log << "(" << rep.minimized.ops.size() << " ops after minimization)\n";
      if (!opts_.save_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts_.save_dir, ec);
        const std::string stem =
            opts_.save_dir + "/escape-" + std::to_string(trial_no);
        std::string err;
        if (!save_input(rep.input, stem, &err) ||
            !save_input(rep.minimized, stem + "-min", &err))
          log << "  (save failed: " << err << ")\n";
        else
          log << "  saved: " << stem << ".{fplan,strace}\n";
      }
      res.escapes.push_back(std::move(rep));
    }
    ++trial_no;
  };

  // Seed corpus first: the classic single-fault experiments.
  for (const FuzzInput& in : seed_corpus()) {
    if (!in_profiles(in.profile)) continue;
    merge_one(in, merge_exec.run(in));
  }
  log << "seeded corpus=" << corpus.size() << " coverage=" << corpus.coverage()
      << "\n";

  // Mutation loop. Batches are generated sequentially from the master
  // RNG against the corpus state at batch start, executed in parallel,
  // and merged in generation order — the batch size is FIXED (not a
  // function of jobs), so the campaign transcript is identical at any
  // worker count.
  constexpr std::size_t kBatch = 64;
  std::vector<FuzzInput> batch;
  std::vector<Outcome> outcomes;
  for (std::uint64_t done = 0; done < opts_.trials;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBatch,
                                                         opts_.trials - done));
    batch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      FuzzInput in;
      if (corpus.size() > 0 && mutator.rng().chance(0.85))
        in = corpus[mutator.rng().next_below(corpus.size())];
      else
        in = mutator.random_input();
      mutator.mutate(&in);
      if (!in_profiles(in.profile))
        in.profile = profiles_[mutator.rng().next_below(profiles_.size())];
      batch.push_back(std::move(in));
    }
    outcomes.assign(n, Outcome{});
    std::atomic<std::size_t> next{0};
    const unsigned nthreads =
        static_cast<unsigned>(std::min<std::size_t>(jobs, n));
    std::vector<std::thread> pool;
    for (unsigned j = 0; j < nthreads; ++j) {
      pool.emplace_back([&, j] {
        Executor& ex = *workers[j];
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
          outcomes[i] = ex.run(batch[i]);
      });
    }
    for (std::thread& t : pool) t.join();
    for (std::size_t i = 0; i < n; ++i) merge_one(batch[i], outcomes[i]);
    done += n;
  }

  res.corpus_size = corpus.size();
  res.coverage = corpus.coverage();
  log << "done executions=" << res.executions << " corpus=" << res.corpus_size
      << " coverage=" << res.coverage;
  static const char* kVerdictNames[] = {"harmless", "detected", "corrected",
                                        "accounted", "escape"};
  for (std::size_t v = 0; v < res.verdicts.size(); ++v)
    log << " " << kVerdictNames[v] << "=" << res.verdicts[v];
  log << "\n";
  res.log = log.str();
  return res;
}

Outcome replay_saved(const std::string& stem, const ExecutorOptions& exec) {
  FuzzInput in;
  std::string err;
  if (!load_input(stem, &in, &err)) {
    Outcome o;
    o.verdict = Verdict::kEscape;
    o.note = "unreplayable input: " + err;
    return o;
  }
  Executor ex(exec);
  return ex.run(in);
}

}  // namespace secddr::fuzz
