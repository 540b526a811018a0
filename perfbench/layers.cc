// Per-layer unit costs: each layer's public calls timed from the harness on
// inputs shaped like the workload (group size, buffer and digest bounds,
// message size, queue length). Nothing inside the library is instrumented.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "adaptive/congestion_estimator.h"
#include "adaptive/minbuff_estimator.h"
#include "bench.h"
#include "common/rng.h"
#include "gossip/event_buffer.h"
#include "gossip/message.h"
#include "membership/full_membership.h"
#include "membership/partial_view.h"
#include "metrics/delivery_tracker.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/shard_channel.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using agb::EventId;
using agb::NodeId;
using agb::TimeMs;

constexpr int kBlocks = 5;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Best-of-kBlocks ns per op: `block` runs one block and returns the ns it
/// spent and the ops it did. One untimed block warms caches first.
template <typename Block>
double best_ns_per_op(Block&& block) {
  block();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kBlocks; ++i) {
    const auto [ns, ops] = block();
    best = std::min(best, ns / static_cast<double>(ops));
  }
  return best;
}

struct Timed {
  double ns;
  std::size_t ops;
};

/// Keeps results observable so the optimiser cannot drop the timed calls.
volatile std::uint64_t g_sink = 0;

agb::gossip::Event make_event(EventId id, std::uint32_t age,
                              const agb::gossip::Payload& payload) {
  agb::gossip::Event e;
  e.id = id;
  e.age = age;
  e.created_at = static_cast<TimeMs>(id.sequence);
  e.payload = payload;
  return e;
}

/// A gossip message shaped like the workload's: the digest a node of this
/// membership sends, and as many buffered events as bring the encoded size
/// to the workload's measured bytes per message.
agb::gossip::GossipMessage make_message(const LayerShape& s, agb::Rng& rng) {
  agb::gossip::GossipMessage m;
  m.sender = 1;
  m.round = 100;
  m.period = 10;
  m.min_buff = static_cast<std::uint32_t>(s.max_events);
  if (s.partial_view) {
    for (std::size_t i = 0; i < s.view.max_subs; ++i) {
      m.membership.subs.push_back(static_cast<NodeId>(rng.next_below(s.n)));
    }
  }
  const auto payload = agb::gossip::make_payload(
      std::vector<std::uint8_t>(s.payload_size, 0xab));
  std::uint64_t seq = 0;
  while (m.events.size() < s.max_events &&
         m.encode().size() < s.bytes_per_message) {
    m.events.push_back(make_event(
        EventId{static_cast<NodeId>(rng.next_below(s.n)), seq++},
        static_cast<std::uint32_t>(rng.next_below(s.max_age + 1)), payload));
  }
  return m;
}

double queue_ns(const LayerShape& s) {
  // Steady state at the workload's peak queue length: pop the next event,
  // run it, schedule a replacement up to one gossip period ahead.
  agb::sim::EventQueue queue;
  agb::Rng rng(s.seed);
  std::uint64_t fired = 0;
  const auto delay = [&] {
    return 1 + static_cast<TimeMs>(
                   rng.next_below(static_cast<std::uint64_t>(s.period)));
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(s.queue_len, 1); ++i) {
    queue.schedule(delay(), [&fired] { ++fired; });
  }
  constexpr std::size_t kOps = 200'000;
  const double ns = best_ns_per_op([&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      auto event = queue.pop();
      event->fn();
      queue.schedule(event->at + delay(), [&fired] { ++fired; });
    }
    return Timed{ns_since(start), kOps};
  });
  g_sink = g_sink + fired;
  return ns;
}

double send_batch_ns(const LayerShape& s, const agb::SharedBytes& payload) {
  // One round's fan-out through the simulated network, deliveries drained
  // outside the timed section.
  agb::sim::Simulator sim;
  agb::sim::SimNetwork net(sim, s.network, agb::Rng(s.seed));
  std::uint64_t bytes = 0;
  for (std::size_t id = 0; id < s.n; ++id) {
    net.attach(static_cast<NodeId>(id),
               [&bytes](const agb::Datagram& d, TimeMs) {
                 bytes += d.payload.size();
               });
  }
  agb::Rng rng(s.seed + 1);
  constexpr std::size_t kBatches = 256;
  constexpr int kRounds = 40;
  std::vector<agb::Multicast> batches(kBatches);
  const double ns = best_ns_per_op([&] {
    double spent = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      for (auto& batch : batches) {
        batch.from = static_cast<NodeId>(rng.next_below(s.n));
        batch.targets.clear();
        for (std::size_t t = 0; t < s.fanout; ++t) {
          batch.targets.push_back(static_cast<NodeId>(rng.next_below(s.n)));
        }
        batch.payload = payload;
      }
      const auto start = Clock::now();
      for (auto& batch : batches) net.send_batch(std::move(batch));
      spent += ns_since(start);
      sim.run();
    }
    return Timed{spent, kBatches * kRounds};
  });
  g_sink = g_sink + bytes;
  return ns;
}

double buffer_ns(const LayerShape& s) {
  // Per op of insert / bump_age / shrink_to at the workload's buffer bound.
  agb::gossip::EventBuffer buffer;
  agb::Rng rng(s.seed);
  const auto payload = agb::gossip::make_payload(
      std::vector<std::uint8_t>(s.payload_size, 0xab));
  std::vector<EventId> recent(s.max_events);
  std::uint64_t seq = 0;
  const auto insert_one = [&] {
    const EventId id{static_cast<NodeId>(rng.next_below(s.n)), seq};
    recent[seq % recent.size()] = id;
    ++seq;
    buffer.insert(make_event(id, 0, payload));
  };
  for (std::size_t i = 0; i < s.max_events; ++i) insert_one();
  constexpr std::size_t kIters = 50'000;
  std::uint64_t dropped = 0;
  const double ns = best_ns_per_op([&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      insert_one();
      buffer.bump_age(recent[rng.next_below(recent.size())],
                      static_cast<std::uint32_t>(rng.next_below(s.max_age)));
      dropped += buffer.shrink_to(s.max_events).size();
    }
    return Timed{ns_since(start), 3 * kIters};
  });
  g_sink = g_sink + dropped;
  return ns;
}

double dedup_ns(const LayerShape& s) {
  // Per insert into the dedup set at its bound: one new id (evicting the
  // oldest) and one duplicate of a recent id.
  agb::gossip::EventIdBuffer ids(s.max_event_ids);
  agb::Rng rng(s.seed);
  std::vector<EventId> recent(s.max_event_ids);
  std::uint64_t seq = 0;
  const auto fresh = [&] {
    const EventId id{static_cast<NodeId>(rng.next_below(s.n)), seq};
    recent[seq % recent.size()] = id;
    ++seq;
    return id;
  };
  for (std::size_t i = 0; i < s.max_event_ids; ++i) ids.insert(fresh());
  constexpr std::size_t kIters = 100'000;
  std::uint64_t inserted = 0;
  const double ns = best_ns_per_op([&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      inserted += ids.insert(fresh());
      inserted += ids.insert(recent[rng.next_below(recent.size())]);
    }
    return Timed{ns_since(start), 2 * kIters};
  });
  g_sink = g_sink + inserted;
  return ns;
}

double targets_ns(const LayerShape& s) {
  // Target selection from the membership the workload runs: a bootstrapped
  // partial view, or the full directory.
  agb::Rng rng(s.seed);
  std::unique_ptr<agb::membership::Membership> view;
  if (s.partial_view) {
    auto pv = std::make_unique<agb::membership::PartialView>(0, s.view,
                                                             rng.split());
    for (std::size_t idx : rng.sample_indices(s.n, s.view.max_view + 1)) {
      if (idx != 0) pv->add(static_cast<NodeId>(idx));
    }
    view = std::move(pv);
  } else {
    auto full = std::make_unique<agb::membership::FullMembership>(0, rng.split());
    for (std::size_t j = 1; j < s.n; ++j) full->add(static_cast<NodeId>(j));
    view = std::move(full);
  }
  constexpr std::size_t kIters = 100'000;
  std::uint64_t picked = 0;
  const double ns = best_ns_per_op([&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      picked += view->targets(s.fanout).size();
    }
    return Timed{ns_since(start), kIters};
  });
  g_sink = g_sink + picked;
  return ns;
}

double digest_ns(const LayerShape& s) {
  // One make_digest + apply_digest exchange between two partial views of
  // the workload's bounds and group size.
  agb::Rng rng(s.seed);
  agb::membership::PartialView a(1, s.view, rng.split());
  agb::membership::PartialView b(2, s.view, rng.split());
  for (auto* pv : {&a, &b}) {
    for (std::size_t idx : rng.sample_indices(s.n, s.view.max_view + 1)) {
      pv->add(static_cast<NodeId>(idx));
    }
  }
  constexpr std::size_t kIters = 50'000;
  const double ns = best_ns_per_op([&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      b.apply_digest(1, a.make_digest());
      a.apply_digest(2, b.make_digest());
    }
    return Timed{ns_since(start), 2 * kIters};
  });
  g_sink = g_sink + a.size() + b.size();
  return ns;
}

double estimator_ns(const LayerShape& s) {
  // The adaptive node's per-message estimator work: CongestionEstimator
  // observe + prune against a full buffer, MinBuffEstimator::on_header.
  // The buffer is refreshed between calls (untimed) so each observe sees
  // new events, as after a received gossip message.
  agb::gossip::EventBuffer buffer;
  agb::Rng rng(s.seed);
  const auto payload = agb::gossip::make_payload(
      std::vector<std::uint8_t>(s.payload_size, 0xab));
  std::uint64_t seq = 0;
  const auto refresh = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      buffer.insert(make_event(
          EventId{static_cast<NodeId>(rng.next_below(s.n)), seq++},
          static_cast<std::uint32_t>(rng.next_below(s.max_age + 1)), payload));
    }
    buffer.shrink_to(s.max_events);
  };
  refresh(s.max_events);
  agb::adaptive::CongestionEstimator congestion(s.alpha, 1.0);
  agb::adaptive::MinBuffEstimator min_buff(
      s.minbuff_window, static_cast<std::uint32_t>(s.max_events));
  const std::size_t min_buff_slots = std::max<std::size_t>(1, s.max_events / 2);
  constexpr std::size_t kIters = 20'000;
  agb::PeriodId period = 0;
  const double ns = best_ns_per_op([&] {
    double spent = 0.0;
    for (std::size_t i = 0; i < kIters; ++i) {
      refresh(4);
      const auto start = Clock::now();
      congestion.observe(buffer, min_buff_slots);
      congestion.prune(buffer);
      min_buff.on_header(period, static_cast<std::uint32_t>(
                                     s.max_events - rng.next_below(8)));
      spent += ns_since(start);
      if (i % 64 == 0) ++period;
    }
    return Timed{spent, kIters};
  });
  g_sink = g_sink + min_buff.estimate() +
           static_cast<std::uint64_t>(congestion.avg_age());
  return ns;
}

double on_delivery_ns(const LayerShape& s) {
  // DeliveryTracker::on_delivery at the workload's group size and number
  // of tracked broadcasts.
  agb::metrics::DeliveryTracker tracker(s.n);
  agb::Rng rng(s.seed);
  const std::size_t messages = std::max<std::size_t>(s.tracked_messages, 1);
  std::vector<EventId> ids;
  ids.reserve(messages);
  for (std::size_t i = 0; i < messages; ++i) {
    ids.push_back(EventId{static_cast<NodeId>(rng.next_below(s.n)), i});
    tracker.on_broadcast(ids.back(), ids.back().origin, 0);
  }
  constexpr std::size_t kIters = 200'000;
  TimeMs now = 0;
  const double ns = best_ns_per_op([&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      tracker.on_delivery(ids[rng.next_below(messages)],
                          static_cast<NodeId>(rng.next_below(s.n)), ++now);
    }
    return Timed{ns_since(start), kIters};
  });
  g_sink = g_sink + static_cast<std::uint64_t>(
                        tracker.receiver_fraction(ids.front()) * 1e6);
  return ns;
}

double channel_ns(const LayerShape& s, const agb::SharedBytes& payload) {
  // The window barrier's serial phase for one channel: drain about 20
  // datagrams per window and put them in canonical order.
  constexpr std::size_t kPerWindow = 20;
  constexpr std::size_t kWindows = 5'000;
  agb::sim::ShardChannel channel;
  agb::Rng rng(s.seed);
  std::vector<std::uint64_t> next_seq(s.n, 0);
  std::vector<agb::sim::CrossShardDatagram> batch;
  TimeMs window_end = 0;
  const double ns = best_ns_per_op([&] {
    double spent = 0.0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      ++window_end;
      for (std::size_t i = 0; i < kPerWindow; ++i) {
        const auto from = static_cast<NodeId>(rng.next_below(s.n));
        channel.push({window_end, from,
                      static_cast<NodeId>(rng.next_below(s.n)),
                      next_seq[from]++, payload});
      }
      const auto start = Clock::now();
      channel.drain(window_end, batch);
      std::sort(batch.begin(), batch.end(), agb::sim::canonical_before);
      spent += ns_since(start);
      batch.clear();
    }
    return Timed{spent, kWindows * kPerWindow};
  });
  return ns;
}

}  // namespace

std::map<std::string, double> measure_layer_costs(const LayerShape& s) {
  agb::Rng rng(s.seed);
  const auto message = make_message(s, rng);
  const auto encoded = message.encode();
  const agb::SharedBytes payload(encoded);

  std::map<std::string, double> out;
  out["sim.queue_ns_per_event"] = queue_ns(s);
  out["net.send_batch_ns"] = send_batch_ns(s, payload);
  out["codec.encode_ns"] = best_ns_per_op([&] {
    constexpr std::size_t kIters = 20'000;
    std::uint64_t bytes = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) bytes += message.encode().size();
    const double ns = ns_since(start);
    g_sink = g_sink + bytes;
    return Timed{ns, kIters};
  });
  out["codec.decode_ns"] = best_ns_per_op([&] {
    constexpr std::size_t kIters = 20'000;
    std::uint64_t ok = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      ok += agb::gossip::decode_any(encoded).index();
    }
    const double ns = ns_since(start);
    g_sink = g_sink + ok;
    return Timed{ns, kIters};
  });
  out["gossip.buffer_ns_per_op"] = buffer_ns(s);
  out["gossip.dedup_ns_per_op"] = dedup_ns(s);
  out["membership.targets_ns"] = targets_ns(s);
  out["membership.digest_ns"] = digest_ns(s);
  out["adaptive.estimator_ns"] = estimator_ns(s);
  out["metrics.on_delivery_ns"] = on_delivery_ns(s);
  out["sharded.channel_ns_per_datagram"] = channel_ns(s, payload);
  return out;
}

}  // namespace perfbench
