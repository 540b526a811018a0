// Workload definitions and the output checks every run must pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "common/config.h"
#include "core/scenario_registry.h"

namespace perfbench {

namespace {

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads{
      // The paper's Fig. 8 point: 60 nodes, full membership, 30 msg/s
      // offered into 60-slot buffers; adaptation throttles the senders.
      {.name = "fig8-adaptive",
       .preset = "fig8",
       .overrides = {{"adaptive", "1"}, {"buffer", "60"}},
       .paper_claim = true},
      // The scale preset's per-node settings at 10^4 nodes: partial views,
      // 48-event buffers, 384-id dedup sets, classic single-queue engine.
      {.name = "partial-1e4",
       .preset = "scale-1e5",
       .overrides = {{"n", "10000"}},
       .poisson_admission = true},
      // The same inputs on the conservative-window sharded engine.
      {.name = "partial-1e4-sharded",
       .preset = "scale-1e5",
       .overrides = {{"n", "10000"}, {"sim_shards", "4"}, {"sim_workers", "2"}},
       .sharded = true,
       .poisson_admission = true},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

agb::core::ScenarioParams build_params(const Workload& w, std::uint64_t seed,
                                       bool reduced) {
  agb::Config cfg;
  for (const auto& [key, value] : w.overrides) cfg.set(key, value);
  if (reduced) {
    if (w.preset == "fig8") {
      cfg.set("quick", "1");
    } else {
      cfg.set("n", "1000");
    }
  }
  auto p = agb::core::ScenarioRegistry::instance().build(w.preset, cfg);
  p.seed = seed;
  return p;
}

std::uint64_t non_atomic_messages(
    const agb::metrics::DeliveryReport& report) {
  const auto atomic = static_cast<std::uint64_t>(std::llround(
      report.atomicity_pct * static_cast<double>(report.messages) / 100.0));
  return report.messages - std::min(atomic, report.messages);
}

bool meets_atomicity_goal(const agb::metrics::DeliveryReport& report) {
  return report.atomicity_pct >= 95.0;
}

std::vector<std::string> check_outcome(const Workload& w,
                                       const agb::core::ScenarioParams& p,
                                       const Outcome& o) {
  std::vector<std::string> problems;
  const auto n = static_cast<double>(p.n);

  // Datagram ledger: every node gossips once per period to `fanout`
  // targets. Random round phases move a node's count by at most one round.
  const auto horizon = p.warmup + p.duration + p.cooldown;
  const double expected = n * static_cast<double>(horizon / p.gossip.gossip_period) *
                          static_cast<double>(p.gossip.fanout);
  const double slack = n * static_cast<double>(p.gossip.fanout);
  const auto sent = static_cast<double>(o.net.sent);
  if (std::fabs(sent - expected) > slack) {
    problems.push_back(fmt("datagrams sent %.0f not within one round (%.0f) "
                           "of %.0f",
                           sent, slack, expected));
  }
  if (o.net.delivered > o.net.sent) {
    problems.push_back(fmt("delivered %.0f > sent %.0f",
                           static_cast<double>(o.net.delivered), sent));
  }
  if (o.decode_failures != 0) {
    problems.push_back(fmt("%.0f decode failures on a clean run",
                           static_cast<double>(o.decode_failures)));
  }

  // Receivers: every message reached between 1 and n nodes, and the
  // failed count is consistent with the report's atomic count. The
  // per-message figures come from the classic engine only; a sharded run's
  // outputs must equal a classic run's instead (check_same).
  const bool per_message = p.sim_shards <= 1;
  const auto& d = o.delivery;
  const auto messages = static_cast<double>(d.messages);
  if (d.messages == 0) problems.push_back("no message was evaluated");
  const double eps = 1e-9;
  if (d.avg_receiver_pct < 100.0 / n - eps || d.avg_receiver_pct > 100.0 + eps) {
    problems.push_back(fmt("avg receivers %.6f%% outside [%.6f%%, 100%%]",
                           d.avg_receiver_pct, 100.0 / n));
  }
  if (per_message && (o.receiver_fractions.size() != o.broadcasts ||
                      o.broadcasts < d.messages)) {
    problems.push_back(fmt("receiver scan covered %.0f of %.0f broadcasts "
                           "(%.0f evaluated)",
                           static_cast<double>(o.receiver_fractions.size()),
                           static_cast<double>(o.broadcasts), messages));
  }
  std::size_t out_of_range = 0;
  std::size_t atomic_tracked = 0;
  const auto threshold = static_cast<long long>(std::floor(0.95 * n)) + 1;
  for (double f : o.receiver_fractions) {
    const long long receivers = std::llround(f * n);
    if (receivers < 1 || receivers > static_cast<long long>(p.n)) ++out_of_range;
    if (receivers >= threshold) ++atomic_tracked;
  }
  if (out_of_range != 0) {
    problems.push_back(fmt("%.0f messages reached fewer than 1 or more than "
                           "n nodes",
                           static_cast<double>(out_of_range)));
  }
  const double atomic_exact = d.atomicity_pct * messages / 100.0;
  const double atomic = std::round(atomic_exact);
  if (std::fabs(atomic_exact - atomic) > 1e-6 || atomic > messages) {
    problems.push_back(fmt("atomicity %.9f%% of %.0f messages is not a whole "
                           "count",
                           d.atomicity_pct, messages));
  }
  if (std::fabs(d.output_rate * d.window_s - atomic) > 1e-6 * (atomic + 1)) {
    problems.push_back(fmt("output rate %.6f x window %.3f s != %.0f atomic",
                           d.output_rate, d.window_s, atomic));
  }
  if (per_message && static_cast<double>(atomic_tracked) < atomic) {
    problems.push_back(fmt("%.0f atomic messages reported, %.0f tracked",
                           atomic, static_cast<double>(atomic_tracked)));
  }

  if (w.poisson_admission) {
    const double mean = p.offered_rate * d.window_s;
    if (std::fabs(messages - mean) > 4.0 * std::sqrt(mean)) {
      problems.push_back(fmt("admitted %.0f outside 4 sigma of Poisson "
                             "mean %.1f (sigma %.2f)",
                             messages, mean, std::sqrt(mean)));
    }
  }

  return problems;
}

std::vector<std::string> check_paper_claim(const Outcome& adaptive,
                                           const Outcome& lpbcast) {
  std::vector<std::string> problems;
  const auto& a = adaptive.delivery;
  if (!(a.input_rate < adaptive.offered_rate)) {
    problems.push_back(fmt("adaptive admitted %.3f msg/s, not below offered "
                           "%.3f",
                           a.input_rate, adaptive.offered_rate));
  }
  if (!(a.atomicity_pct > lpbcast.delivery.atomicity_pct)) {
    problems.push_back(fmt("adaptive atomicity %.3f%% not above lpbcast's "
                           "%.3f%% on the same inputs",
                           a.atomicity_pct, lpbcast.delivery.atomicity_pct));
  }
  return problems;
}

std::vector<std::string> check_same(const std::string& what, const Outcome& a,
                                    const Outcome& b, bool same_engine) {
  std::vector<std::string> problems;
  const auto differ = [&](const char* field) {
    problems.push_back(what + ": " + field + " differs");
  };
  if (a.fingerprints.size() != b.fingerprints.size()) {
    differ("node count");
  } else {
    for (std::size_t i = 0; i < a.fingerprints.size(); ++i) {
      if (a.fingerprints[i] != b.fingerprints[i]) {
        problems.push_back(what + ": fingerprint of node " +
                           std::to_string(i) + " differs");
        break;
      }
    }
  }
  const auto& da = a.delivery;
  const auto& db = b.delivery;
  if (da.messages != db.messages || da.window_s != db.window_s ||
      da.input_rate != db.input_rate || da.output_rate != db.output_rate ||
      da.avg_receiver_pct != db.avg_receiver_pct ||
      da.atomicity_pct != db.atomicity_pct ||
      da.latency_p50_ms != db.latency_p50_ms ||
      da.latency_p99_ms != db.latency_p99_ms) {
    differ("delivery report");
  }
  if (a.overflow_drops != b.overflow_drops ||
      a.age_limit_drops != b.age_limit_drops) {
    differ("drop ledger");
  }
  if (a.refused != b.refused || a.decode_failures != b.decode_failures ||
      a.avg_allowed_rate != b.avg_allowed_rate) {
    differ("admission ledger");
  }
  const auto& na = a.net;
  const auto& nb = b.net;
  if (na.sent != nb.sent || na.sent_intra_cluster != nb.sent_intra_cluster ||
      na.sent_cross_cluster != nb.sent_cross_cluster ||
      na.delivered != nb.delivered || na.dropped_loss != nb.dropped_loss ||
      na.dropped_partition != nb.dropped_partition ||
      na.dropped_down != nb.dropped_down ||
      na.dropped_detached != nb.dropped_detached ||
      na.dropped_chaos != nb.dropped_chaos ||
      na.bytes_delivered != nb.bytes_delivered) {
    differ("datagram ledger");
  }
  if (same_engine &&
      (na.batches != nb.batches || na.events_scheduled != nb.events_scheduled ||
       a.peak_queue_len != b.peak_queue_len || a.windows != b.windows)) {
    differ("engine counters");
  }
  return problems;
}

}  // namespace perfbench
