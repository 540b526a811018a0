// Shared declarations of the simulator benchmark harness.
//
// The harness drives the library only through its public API
// (core::Scenario / core::ShardedScenario and the layer classes timed in
// layers.cc); nothing inside src/ is instrumented. See README.md for the
// workloads, the metrics and the layer -> end-to-end map.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "metrics/delivery_tracker.h"
#include "sim/network.h"

namespace perfbench {

/// One benchmark workload: a registry preset plus key=value overrides, the
/// engine it runs on, and which workload-specific checks apply.
struct Workload {
  std::string name;
  std::string preset;
  std::vector<std::pair<std::string, std::string>> overrides;
  bool sharded = false;
  /// The paper's claim (Fig. 8): adaptation admits less than is offered and
  /// keeps atomicity above lpbcast's on the same inputs.
  bool paper_claim = false;
  /// Admitted broadcasts lie within 4 sigma of the Poisson expectation.
  bool poisson_admission = false;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The workload's parameters for `seed`. `reduced` shrinks the group and
/// horizon for the self-test (same per-node settings, seconds to run).
[[nodiscard]] agb::core::ScenarioParams build_params(const Workload& w,
                                                     std::uint64_t seed,
                                                     bool reduced);

/// What one run produced, reduced to the fields the checks read. Plain
/// data, so the self-test can corrupt a copy and watch a check fail.
struct Outcome {
  std::vector<std::uint64_t> fingerprints;  // per node, id order
  agb::metrics::DeliveryReport delivery;
  agb::sim::NetworkStats net;
  std::uint64_t overflow_drops = 0;
  std::uint64_t age_limit_drops = 0;
  std::uint64_t refused = 0;
  std::uint64_t decode_failures = 0;
  double offered_rate = 0.0;
  double avg_allowed_rate = 0.0;
  std::size_t peak_queue_len = 0;
  std::uint64_t windows = 0;  // sharded engine only
  /// Broadcasts the senders made, warm-up and cool-down included, by the
  /// senders' own counters, and the receiver fraction of each (classic
  /// engine only: the sharded engine exposes neither its nodes nor its
  /// tracker).
  std::uint64_t broadcasts = 0;
  std::vector<double> receiver_fractions;
};

/// Evaluated messages that did not reach more than 95% of the group.
[[nodiscard]] std::uint64_t non_atomic_messages(
    const agb::metrics::DeliveryReport& report);

/// The atomicity goal a run must meet to count as a successful operation:
/// at least 95% of its evaluated broadcasts reached more than 95% of the
/// group. Which single broadcasts miss depends on the seed; whether a run
/// meets the goal does not, on any workload here.
[[nodiscard]] bool meets_atomicity_goal(
    const agb::metrics::DeliveryReport& report);

/// Properties every run of the workload must have. Empty = all hold; each
/// entry names one violated property.
[[nodiscard]] std::vector<std::string> check_outcome(
    const Workload& w, const agb::core::ScenarioParams& p, const Outcome& o);

/// The paper's Fig. 8 claim, judged against an lpbcast run of the same
/// inputs: adaptive admits less than offered and is more often atomic.
[[nodiscard]] std::vector<std::string> check_paper_claim(
    const Outcome& adaptive, const Outcome& lpbcast);

/// Equality of two runs' scenario-visible outputs: per-node fingerprints,
/// delivery report, drop ledgers and the datagram ledger. `same_engine`
/// also compares the engine-internal queue and window counts, which differ
/// between the classic and the sharded engine by design.
[[nodiscard]] std::vector<std::string> check_same(const std::string& what,
                                                  const Outcome& a,
                                                  const Outcome& b,
                                                  bool same_engine);

/// The shape of a workload that the layer unit costs are measured at.
struct LayerShape {
  std::size_t n = 0;
  std::size_t fanout = 0;
  agb::TimeMs period = 0;
  std::size_t max_events = 0;
  std::size_t max_event_ids = 0;
  std::size_t max_age = 0;
  std::size_t payload_size = 0;
  bool partial_view = false;
  agb::membership::PartialViewParams view;
  agb::sim::NetworkParams network;
  double alpha = 0.9;
  std::size_t minbuff_window = 2;
  std::size_t bytes_per_message = 0;
  std::size_t queue_len = 0;
  std::size_t tracked_messages = 0;
  std::uint64_t seed = 0;
};

/// Unit costs (ns per call) of each layer's public calls on inputs of the
/// given shape, keyed by metric name. Each is the best of a few blocks.
[[nodiscard]] std::map<std::string, double> measure_layer_costs(
    const LayerShape& shape);

/// Runs `p` once on the engine it selects (sim_shards > 1: sharded) and
/// returns its outputs; the self-test corrupts these.
[[nodiscard]] Outcome simulate(const agb::core::ScenarioParams& p);

struct RunOptions {
  std::uint64_t seed = 42;
  double seconds = 10.0;  // timed repetitions run at least this long
  bool trace = false;
  bool reduced = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<std::string> problems;  // empty: every check held
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// One benchmark run of `w`: checks its outputs and measures the
/// end-to-end metrics (options.trace: the per-layer metrics).
[[nodiscard]] RunReport run_workload(const Workload& w,
                                     const RunOptions& options);

/// Runs every workload at reduced size and shows that each output check
/// fails on a corrupted result. Returns the process exit code.
int run_selftest();

}  // namespace perfbench
