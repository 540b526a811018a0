// Self-test of the output checks: each check passes on real results of the
// reduced-size workloads and fails once a single field of them is
// corrupted. run.py --selftest also runs every workload end to end at
// reduced size through the command-line interface.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

int g_failures = 0;

bool mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
  for (const auto& p : problems) {
    if (p.find(needle) != std::string::npos) return true;
  }
  return false;
}

void expect_pass(const std::string& what,
                 const std::vector<std::string>& problems) {
  const bool ok = problems.empty();
  std::printf("%s  %s passes on clean results\n", ok ? "ok  " : "FAIL",
              what.c_str());
  for (const auto& p : problems) std::printf("        %s\n", p.c_str());
  if (!ok) ++g_failures;
}

/// Corrupts a copy of `clean`, runs `check` on it and expects a problem
/// that mentions `needle`.
void expect_caught(const std::string& what, const Outcome& clean,
                   const std::function<void(Outcome&)>& corrupt,
                   const std::function<std::vector<std::string>(
                       const Outcome&)>& check,
                   const std::string& needle) {
  Outcome bad = clean;
  corrupt(bad);
  const bool ok = mentions(check(bad), needle);
  std::printf("%s  caught: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

}  // namespace

int run_selftest() {
  const Workload& fig8 = *find_workload("fig8-adaptive");
  const Workload& partial = *find_workload("partial-1e4");
  const Workload& sharded = *find_workload("partial-1e4-sharded");

  const auto pf = build_params(fig8, 42, true);
  auto pl = pf;
  pl.adaptive = false;
  const auto pp = build_params(partial, 42, true);
  const auto ps = build_params(sharded, 42, true);
  const Outcome adaptive = simulate(pf);
  const Outcome lpbcast = simulate(pl);
  const Outcome classic = simulate(pp);
  const Outcome classic_again = simulate(pp);
  const Outcome windowed = simulate(ps);

  expect_pass("fig8-adaptive output check", check_outcome(fig8, pf, adaptive));
  expect_pass("paper claim", check_paper_claim(adaptive, lpbcast));
  expect_pass("partial-1e4 output check", check_outcome(partial, pp, classic));
  expect_pass("partial-1e4-sharded output check",
              check_outcome(sharded, ps, windowed));
  expect_pass("repetition equality",
              check_same("rep", classic, classic_again, true));
  expect_pass("engine equality",
              check_same("engines", classic, windowed, false));

  const auto same_rep = [&](const Outcome& o) {
    return check_same("rep", classic, o, true);
  };
  const auto same_engine = [&](const Outcome& o) {
    return check_same("engines", classic, o, false);
  };
  const auto partial_check = [&](const Outcome& o) {
    return check_outcome(partial, pp, o);
  };
  const auto claim = [&](const Outcome& o) {
    return check_paper_claim(o, lpbcast);
  };

  expect_caught(
      "one node fingerprint flipped between repetitions", classic_again,
      [](Outcome& o) { o.fingerprints[o.fingerprints.size() / 3] ^= 1; },
      same_rep, "fingerprint");
  expect_caught(
      "one node fingerprint flipped on the sharded engine", windowed,
      [](Outcome& o) { o.fingerprints[o.fingerprints.size() / 2] ^= 1; },
      same_engine, "fingerprint");
  expect_caught(
      "one datagram removed from the sharded ledger", windowed,
      [](Outcome& o) { --o.net.sent; }, same_engine, "datagram ledger");
  expect_caught(
      "one delivery removed from the sharded ledger", windowed,
      [](Outcome& o) { --o.net.delivered; }, same_engine, "datagram ledger");
  expect_caught(
      "one overflow drop added on the sharded engine", windowed,
      [](Outcome& o) { ++o.overflow_drops; }, same_engine, "drop ledger");
  expect_caught(
      "avg receivers moved by one ulp on the sharded engine", windowed,
      [](Outcome& o) {
        o.delivery.avg_receiver_pct =
            std::nextafter(o.delivery.avg_receiver_pct, 0.0);
      },
      same_engine, "delivery report");
  expect_caught(
      "event queue peak differs between repetitions", classic_again,
      [](Outcome& o) { ++o.peak_queue_len; }, same_rep, "engine counters");
  expect_caught(
      "two rounds of datagrams missing", classic,
      [&](Outcome& o) { o.net.sent -= 2 * pp.n * pp.gossip.fanout; },
      partial_check, "datagrams sent");
  expect_caught(
      "more deliveries than datagrams sent", classic,
      [](Outcome& o) { o.net.delivered = o.net.sent + 1; }, partial_check,
      "delivered");
  expect_caught(
      "a decode failure on a clean run", classic,
      [](Outcome& o) { o.decode_failures = 1; }, partial_check, "decode");
  expect_caught(
      "a message that reached no node", classic,
      [](Outcome& o) { o.receiver_fractions[0] = 0.0; }, partial_check,
      "fewer than 1");
  expect_caught(
      "the receiver scan cut short of the broadcasts made", classic,
      [](Outcome& o) {
        o.receiver_fractions.resize(o.receiver_fractions.size() / 2);
      },
      partial_check, "receiver scan");
  expect_caught(
      "fewer broadcasts made than evaluated", classic,
      [](Outcome& o) {
        o.broadcasts = o.delivery.messages - 1;
        o.receiver_fractions.resize(o.broadcasts);
      },
      partial_check, "receiver scan");
  expect_caught(
      "a message that reached more than n nodes", classic,
      [&](Outcome& o) {
        o.receiver_fractions[1] = 1.0 + 1.0 / static_cast<double>(pp.n);
      },
      partial_check, "more than n");
  expect_caught(
      "average receivers below one node", classic,
      [&](Outcome& o) { o.delivery.avg_receiver_pct = 50.0 / pp.n; },
      partial_check, "avg receivers");
  expect_caught(
      "atomic count that is not a whole number of messages", classic,
      [](Outcome& o) {
        o.delivery.atomicity_pct +=
            50.0 / static_cast<double>(o.delivery.messages);
      },
      partial_check, "whole count");
  expect_caught(
      "output rate that disagrees with the atomic count", classic,
      [](Outcome& o) { o.delivery.output_rate += 1.0; }, partial_check,
      "output rate");
  expect_caught(
      "admitted broadcasts 5 sigma above the Poisson mean", classic,
      [&](Outcome& o) {
        const double mean = pp.offered_rate * o.delivery.window_s;
        o.delivery.messages =
            static_cast<std::uint64_t>(mean + 5.0 * std::sqrt(mean));
        o.delivery.atomicity_pct = 0.0;
        o.delivery.output_rate = 0.0;
      },
      partial_check, "Poisson");
  expect_caught(
      "adaptation admitting everything offered", adaptive,
      [](Outcome& o) { o.delivery.input_rate = o.offered_rate; }, claim,
      "not below offered");
  expect_caught(
      "adaptive atomicity no better than lpbcast", adaptive,
      [&](Outcome& o) {
        o.delivery.atomicity_pct = lpbcast.delivery.atomicity_pct;
      },
      claim, "not above lpbcast");

  std::printf("selftest: %s (%d failed)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
