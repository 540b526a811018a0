// agb_perfbench — the simulator benchmark harness (see README.md).
//
//   agb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--reduced 1]
//   agb_perfbench --selftest
//
// --reduced 1 shrinks every workload to seconds (the self-test's size).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable summary goes to
// standard error. An untraced run repeats kSeedsPerRun scenario seeds in
// whole rounds after one untimed warm-up repetition; each seed's host time
// is its best repetition, and every repetition of a seed must produce
// identical outputs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "core/sharded_scenario.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Scenario seeds an untraced run covers. The partial workloads admit
/// about 200 +- 14 broadcasts per seed, and a repetition's host time grows
/// with that Poisson count (7.3 s for 177, 8.6 s for 216 in one process),
/// so with one seed per run much of the spread between runs would be the
/// seeds' rather than the code's.
constexpr std::size_t kSeedsPerRun = 4;

/// The k-th scenario seed of a run: --seed itself, then hashes of it.
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t state = seed * kSeedsPerRun + k;
  return agb::splitmix64(state);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host time at process start, as near to it as the program can read it:
/// taken before the program's other static initialisers run.
Clock::time_point g_process_start;
__attribute__((constructor(101))) void note_process_start() {
  g_process_start = Clock::now();
}

/// One repetition: its outputs and host times. run_s covers construction
/// and run(); teardown_s the scenario's destruction. Reading the outputs
/// (fingerprints, receiver fractions) in between is not timed.
struct Rep {
  Outcome outcome;
  double run_s = 0.0;
  double teardown_s = 0.0;
  Clock::time_point run_end;
  [[nodiscard]] double total_s() const { return run_s + teardown_s; }
};

Outcome outcome_of(const agb::core::ScenarioResults& r) {
  Outcome o;
  o.delivery = r.delivery;
  o.net = r.net;
  o.overflow_drops = r.overflow_drops;
  o.age_limit_drops = r.age_limit_drops;
  o.refused = r.refused_broadcasts;
  o.decode_failures = r.decode_failures;
  o.offered_rate = r.offered_rate;
  o.avg_allowed_rate = r.avg_allowed_rate;
  o.peak_queue_len = r.peak_event_queue_len;
  return o;
}

Rep run_rep(const agb::core::ScenarioParams& p) {
  Rep rep;
  const auto start = Clock::now();
  if (p.sim_shards > 1) {
    auto scenario = std::make_unique<agb::core::ShardedScenario>(p);
    auto r = scenario->run();
    rep.run_end = Clock::now();
    rep.outcome = outcome_of(r.base);
    rep.outcome.fingerprints = std::move(r.node_fingerprints);
    rep.outcome.windows = r.windows;
    const auto teardown_start = Clock::now();
    scenario.reset();
    rep.teardown_s = seconds_between(teardown_start, Clock::now());
  } else {
    auto scenario = std::make_unique<agb::core::Scenario>(p);
    const auto r = scenario->run();
    rep.run_end = Clock::now();
    rep.outcome = outcome_of(r);
    const auto& tracker = scenario->tracker();
    rep.outcome.fingerprints = tracker.per_node_fingerprints();
    // Every broadcast a sender made, by its own count: a broadcast that
    // reached no node reads as 0 here and must not end the scan.
    for (agb::NodeId origin :
         agb::core::scenario_sender_ids(p.n, p.senders)) {
      const std::uint64_t made =
          scenario->nodes()[origin]->counters().broadcasts;
      rep.outcome.broadcasts += made;
      for (std::uint64_t seq = 0; seq < made; ++seq) {
        rep.outcome.receiver_fractions.push_back(
            tracker.receiver_fraction(agb::EventId{origin, seq}));
      }
    }
    const auto teardown_start = Clock::now();
    scenario.reset();
    rep.teardown_s = seconds_between(teardown_start, Clock::now());
  }
  rep.run_s = seconds_between(start, rep.run_end);
  return rep;
}

/// The same inputs with a zero horizon: builds the group, runs no event.
agb::core::ScenarioParams zero_horizon(agb::core::ScenarioParams p) {
  p.warmup = 0;
  p.duration = 0;
  p.cooldown = 0;
  return p;
}

double sim_seconds(const agb::core::ScenarioParams& p) {
  return static_cast<double>(p.warmup + p.duration + p.cooldown) / 1000.0;
}

/// n x simulated seconds per host second, setup excluded.
double nodes_sim_per_s(const agb::core::ScenarioParams& p, double total_s,
                       double setup_s) {
  return static_cast<double>(p.n) * sim_seconds(p) / (total_s - setup_s);
}

double peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

void append(std::vector<std::string>& into,
            const std::vector<std::string>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

/// Best (lowest) host times over a set of repetitions.
struct Best {
  double total_s = std::numeric_limits<double>::infinity();
  double teardown_s = std::numeric_limits<double>::infinity();
  void add(const Rep& rep) {
    total_s = std::min(total_s, rep.total_s());
    teardown_s = std::min(teardown_s, rep.teardown_s);
  }
};

/// The repetitions of one scenario seed within a run.
struct SeedRuns {
  agb::core::ScenarioParams p;
  Outcome first;  // outputs of its first repetition; later ones must equal it
  bool ran = false;
  int reps = 0;
  Best full;   // untraced repetitions
  Best setup;  // their zero-horizon twins
};

}  // namespace

Outcome simulate(const agb::core::ScenarioParams& p) {
  return run_rep(p).outcome;
}

RunReport run_workload(const Workload& w, const RunOptions& options) {
  RunReport report;

  // Untraced runs cover kSeedsPerRun scenario seeds; traced runs only the
  // first, which is --seed itself.
  std::vector<SeedRuns> seeds(options.trace ? 1 : kSeedsPerRun);
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    seeds[k].p = build_params(w, scenario_seed(options.seed, k),
                              options.reduced);
  }
  const auto& p = seeds[0].p;

  // Cold set-up: process start to a built group, measured once per process
  // (a second set-up in the same process would be a warm one).
  const Rep cold = run_rep(zero_horizon(p));
  const double setup_s = seconds_between(g_process_start, cold.run_end);

  const Rep warmup = run_rep(p);
  seeds[0].first = warmup.outcome;
  seeds[0].ran = true;
  append(report.problems, check_outcome(w, p, warmup.outcome));

  // Timed repetitions in whole rounds over the seeds, each preceded by a
  // zero-horizon one so the group build can be subtracted. Traced runs
  // alternate the repetitions of the one seed between two interleaved sets,
  // the untraced and the traced one; the harness instruments nothing inside
  // a repetition, so the two sets differ only by the host's noise, which is
  // what trace.overhead_pct reports.
  Best traced;
  Best traced_setup;
  const int min_reps = options.trace ? 2 : static_cast<int>(seeds.size());
  int reps = 0;
  double timed_s = 0.0;
  while (timed_s < options.seconds || reps < min_reps ||
         reps % static_cast<int>(seeds.size()) != 0) {
    SeedRuns& seed = seeds[static_cast<std::size_t>(reps) % seeds.size()];
    const bool traced_rep = options.trace && reps % 2 == 1;
    const Rep zero = run_rep(zero_horizon(seed.p));
    const Rep full = run_rep(seed.p);
    if (traced_rep) {
      traced_setup.add(zero);
      traced.add(full);
    } else {
      seed.setup.add(zero);
      seed.full.add(full);
    }
    if (!seed.ran) {
      seed.first = full.outcome;
      seed.ran = true;
      append(report.problems, check_outcome(w, seed.p, seed.first));
    } else {
      append(report.problems,
             check_same("seed " + std::to_string(seed.p.seed) +
                            " repetition " + std::to_string(seed.reps + 1),
                        seed.first, full.outcome, true));
    }
    timed_s += full.total_s();
    ++seed.reps;
    ++reps;
  }
  const double rss_kib = peak_rss_kib();
  const Outcome& out = seeds[0].first;

  // Reference runs on the same inputs, untimed: the classic engine for the
  // sharded workload (first seed only: it costs a classic repetition), and
  // lpbcast for the paper's claim.
  Outcome classic = out;
  double classic_s = std::min(seeds[0].full.total_s, traced.total_s);
  if (w.sharded) {
    auto classic_params = p;
    classic_params.sim_shards = 1;
    const Rep ref = run_rep(classic_params);
    classic = ref.outcome;
    classic_s = ref.total_s();
    append(report.problems, check_outcome(w, classic_params, classic));
    append(report.problems, check_same("sharded vs classic engine", classic,
                                       out, false));
  }
  if (w.paper_claim) {
    for (const SeedRuns& seed : seeds) {
      auto lpbcast = seed.p;
      lpbcast.adaptive = false;
      const Outcome lp = simulate(lpbcast);
      append(report.problems, check_paper_claim(seed.first, lp));
    }
  }

  // An operation is one timed repetition: a whole broadcast run of the
  // group, failed when it misses the atomicity goal. A seed's repetitions
  // have identical outputs (checked above), so they fail or succeed
  // together.
  report.attempted = static_cast<std::uint64_t>(reps);
  for (const SeedRuns& seed : seeds) {
    if (!meets_atomicity_goal(seed.first.delivery)) {
      report.failed += static_cast<std::uint64_t>(seed.reps);
    }
  }

  const auto n = static_cast<double>(p.n);
  if (!options.trace) {
    double host_s = 0.0;
    double deliveries = 0.0;
    double admitted = 0.0;
    for (const SeedRuns& seed : seeds) {
      const auto& d = seed.first.delivery;
      host_s += seed.full.total_s - seed.setup.total_s;
      deliveries += static_cast<double>(d.messages) * d.avg_receiver_pct /
                    100.0 * n / d.window_s;
      admitted += d.input_rate;
    }
    const auto count = static_cast<double>(seeds.size());
    report.metrics = {
        {"nodes_sim_per_s", n * sim_seconds(p) * count / host_s, "node-s/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_kib_per_node", rss_kib / n, "KiB"},
        {"deliveries_per_sim_s", deliveries / count, "1/s"},
        {"admitted_per_sim_s", admitted / count, "msg/s"},
    };
  } else {
    // The window-barrier layer: the same inputs on the sharded engine at
    // one and at two workers, against the classic engine.
    const auto sharded_rep = [&](std::size_t workers) {
      auto q = p;
      q.sim_shards = 4;
      q.sim_workers = workers;
      return run_rep(q);
    };
    const double one_worker_s = sharded_rep(1).total_s();
    const Rep two_workers = w.sharded ? Rep{} : sharded_rep(2);
    const double two_worker_s =
        w.sharded ? seeds[0].full.total_s : two_workers.total_s();
    const std::uint64_t windows =
        w.sharded ? out.windows : two_workers.outcome.windows;

    LayerShape shape;
    shape.n = p.n;
    shape.fanout = p.gossip.fanout;
    shape.period = p.gossip.gossip_period;
    shape.max_events = p.gossip.max_events;
    shape.max_event_ids = p.gossip.max_event_ids;
    shape.max_age = p.gossip.max_age;
    shape.payload_size = p.payload_size;
    shape.partial_view = p.partial_view;
    shape.view = p.view_params;
    shape.network = p.network;
    shape.alpha = p.adaptation.alpha;
    shape.minbuff_window = p.adaptation.min_buff_window;
    shape.bytes_per_message =
        out.net.delivered == 0 ? 0 : out.net.bytes_delivered / out.net.delivered;
    shape.queue_len = out.peak_queue_len;
    shape.tracked_messages = classic.receiver_fractions.size();
    shape.seed = options.seed;
    const auto costs = measure_layer_costs(shape);

    const double plain_nodes_per_s = nodes_sim_per_s(
        p, seeds[0].full.total_s, seeds[0].setup.total_s);
    const double traced_nodes_per_s =
        nodes_sim_per_s(p, traced.total_s, traced_setup.total_s);
    const auto count = [](auto v) { return static_cast<double>(v); };
    report.metrics = {
        {"core.setup_s", seeds[0].setup.total_s, "s"},
        {"core.teardown_s", traced.teardown_s, "s"},
        {"sim.events_scheduled", count(out.net.events_scheduled), "count"},
        {"sim.peak_queue_len", count(out.peak_queue_len), "count"},
        {"net.datagrams_sent", count(out.net.sent), "count"},
        {"net.batches", count(out.net.batches), "count"},
        {"codec.bytes_per_message", count(shape.bytes_per_message), "B"},
        {"gossip.overflow_drops", count(out.overflow_drops), "count"},
        {"gossip.age_limit_drops", count(out.age_limit_drops), "count"},
        {"adaptive.refused_broadcasts", count(out.refused), "count"},
        {"adaptive.allowed_per_s", out.avg_allowed_rate, "msg/s"},
        {"metrics.tracked_messages", count(shape.tracked_messages), "count"},
        {"metrics.non_atomic_messages",
         count(non_atomic_messages(out.delivery)), "count"},
        {"sharded.windows", count(windows), "count"},
        {"sharded.barrier_tax_s", one_worker_s - classic_s, "s"},
        {"sharded.parallel_speedup", one_worker_s / two_worker_s, "x"},
        {"trace.nodes_sim_per_s", traced_nodes_per_s, "node-s/s"},
        {"trace.overhead_pct",
         100.0 * (plain_nodes_per_s - traced_nodes_per_s) / plain_nodes_per_s,
         "%"},
    };
    for (const auto& [name, ns] : costs) {
      report.metrics.push_back({name, ns, "ns"});
    }
  }

  std::fprintf(stderr,
               "perfbench: %s: %d timed repetitions (%.1f s), cold setup "
               "%.4f s, peak RSS %.0f KiB\n",
               w.name.c_str(), reps, timed_s, setup_s, rss_kib);
  for (const SeedRuns& seed : seeds) {
    const auto& d = seed.first.delivery;
    // Latency to atomic is undefined when no message went atomic.
    char latency[64] = "n/a";
    if (non_atomic_messages(d) < d.messages) {
      std::snprintf(latency, sizeof(latency), "p50 %.0f ms p99 %.0f ms",
                    d.latency_p50_ms, d.latency_p99_ms);
    }
    std::fprintf(stderr,
                 "perfbench:   seed %llu: best of %d %.4f s (setup %.4f s), "
                 "%llu messages, avg receivers %.2f%%, atomic %.2f%%, "
                 "latency to atomic %s, %llu datagrams sent\n",
                 static_cast<unsigned long long>(seed.p.seed), seed.reps,
                 seed.full.total_s, seed.setup.total_s,
                 static_cast<unsigned long long>(d.messages),
                 d.avg_receiver_pct, d.atomicity_pct, latency,
                 static_cast<unsigned long long>(seed.first.net.sent));
  }
  for (const auto& problem : report.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
  }
  return report;
}

}  // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: agb_perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--reduced 1]\n"
               "       agb_perfbench --selftest\n"
               "workloads:");
  for (const auto& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

/// Parses a whole non-negative decimal integer; false on anything else.
bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--selftest") {
    return perfbench::run_selftest();
  }

  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  std::uint64_t reduced = 0;
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) {
      usage();
      return 2;
    }
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    bool ok = true;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      ok = have_seed = parse_u64(value, &seed);
    } else if (key == "--seconds") {
      ok = have_seconds = parse_u64(value, &seconds) && seconds >= 1;
    } else if (key == "--trace") {
      ok = have_trace = parse_u64(value, &trace) && trace <= 1;
    } else if (key == "--reduced") {
      ok = parse_u64(value, &reduced) && reduced <= 1;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "agb_perfbench: bad argument %s %s\n", key.c_str(),
                   value.c_str());
      usage();
      return 2;
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (w == nullptr || !have_seed || !have_seconds || !have_trace) {
    if (!workload.empty() && w == nullptr) {
      std::fprintf(stderr, "agb_perfbench: unknown workload '%s'\n",
                   workload.c_str());
    }
    usage();
    return 2;
  }
  options.seed = seed;
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.reduced = reduced == 1;

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(*w, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agb_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
