// common.cpp - shared workload pieces (see common.h).
#include "common.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "analysis/derive.h"
#include "container/flat_hash.h"
#include "probe/prober.h"
#include "probe/target_generator.h"
#include "routing/bgp_table.h"
#include "sim/rng.h"
#include "wire/icmpv6.h"

namespace perfbench {

sim::PaperWorld build_world() {
  return sim::make_paper_world(sim::PaperWorldOptions{});
}

std::vector<net::Prefix> draw_rotating_48s(const sim::Internet& internet,
                                           std::size_t count,
                                           std::uint64_t seed) {
  // Ground truth: every /48 inside (or covering) a rotating pool, with its
  // allocation size (which sets the later days' probes per /48) and the
  // devices it holds on average.
  struct Cost {
    unsigned allocation_length = 0;
    double devices = 0;
  };
  std::map<net::Prefix, Cost> cost_of;
  for (std::size_t p = 0; p < internet.provider_count(); ++p) {
    // Only the provider's prevailing allocation size (by /48s): a drawn
    // minority pool would flip the campaign's per-AS inference, and with
    // it the later days' granularity, for every /48 of the AS.
    std::map<unsigned, std::uint64_t> n48_by_length;
    for (const auto& pool : internet.provider(p).pools()) {
      const unsigned len = pool.config().prefix.length();
      n48_by_length[pool.config().allocation_length] +=
          len >= 48 ? 1 : std::uint64_t{1} << (48 - len);
    }
    if (n48_by_length.empty()) continue;
    const unsigned prevailing =
        std::max_element(n48_by_length.begin(), n48_by_length.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         })
            ->first;
    for (const auto& pool : internet.provider(p).pools()) {
      if (!pool.config().rotation.rotates()) continue;
      const unsigned length = pool.config().allocation_length;
      if (length != prevailing) continue;
      const net::Prefix prefix = pool.config().prefix;
      const double devices = static_cast<double>(pool.devices().size());
      const unsigned len = prefix.length();
      const std::uint64_t n48 =
          len >= 48 ? 1 : std::uint64_t{1} << (48 - len);
      for (std::uint64_t i = 0; i < n48; ++i) {
        Cost& cost = cost_of[len >= 48 ? net::Prefix{prefix.base(), 48}
                                       : prefix.subnet(48, net::Uint128{i})];
        cost.allocation_length = length;
        cost.devices += devices / static_cast<double>(n48);
      }
    }
  }
  // Stratify so every seed sweeps the same mix: each allocation size gets a
  // fixed quota of the draw (largest remainder, proportional to its /48s),
  // filled by one pick from each of `quota` equal population strata.
  // A /48 holding more than twice its class's median population (one
  // operator's mega-/48) is left out, so no single pick swings a day's cost.
  std::map<unsigned, std::vector<std::pair<double, net::Prefix>>> classes;
  for (const auto& [prefix, cost] : cost_of) {
    classes[cost.allocation_length].emplace_back(cost.devices, prefix);
  }
  std::size_t candidates = 0;
  for (auto& [length, members] : classes) {
    std::sort(members.begin(), members.end());
    const double limit = 2 * members[members.size() / 2].first;
    while (members.back().first > limit) members.pop_back();
    candidates += members.size();
  }
  count = std::min(count, candidates);
  std::vector<std::size_t> quota;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (const auto& [length, members] : classes) {
    const double share = static_cast<double>(count * members.size()) /
                         static_cast<double>(candidates);
    quota.push_back(static_cast<std::size_t>(share));
    assigned += quota.back();
    remainders.emplace_back(-(share - static_cast<double>(quota.back())),
                            quota.size() - 1);
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t i = 0; assigned < count; ++i, ++assigned) {
    ++quota[remainders[i].second];
  }
  sim::Rng rng{sim::mix64(seed, 0xD4A7)};
  std::vector<net::Prefix> out;
  std::size_t c = 0;
  for (auto& [length, members] : classes) {
    const std::size_t q = quota[c++];
    for (std::size_t k = 0; k < q; ++k) {
      const std::size_t lo = k * members.size() / q;
      const std::size_t hi = (k + 1) * members.size() / q;
      out.push_back(members[lo + rng.below(hi - lo)].second);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<net::MacAddress>> device_macs_by_target(
    const sim::Internet& internet, const std::vector<net::Prefix>& targets) {
  std::unordered_map<std::uint64_t, unsigned> owners;
  for (std::size_t p = 0; p < internet.provider_count(); ++p) {
    for (const auto& pool : internet.provider(p).pools()) {
      for (const auto& device : pool.devices()) ++owners[device.mac.bits()];
    }
  }
  std::vector<std::vector<net::MacAddress>> out(targets.size());
  for (std::size_t p = 0; p < internet.provider_count(); ++p) {
    for (const auto& pool : internet.provider(p).pools()) {
      const net::Prefix prefix = pool.config().prefix;
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (!prefix.contains(targets[t]) && !targets[t].contains(prefix)) {
          continue;
        }
        for (const auto& device : pool.devices()) {
          if (device.mode == sim::AddressingMode::kEui64 &&
              owners[device.mac.bits()] == 1) {
            out[t].push_back(device.mac);
          }
        }
      }
    }
  }
  for (auto& macs : out) std::sort(macs.begin(), macs.end());
  return out;
}

std::vector<net::MacAddress> flatten(
    const std::vector<std::vector<net::MacAddress>>& by_target) {
  std::vector<net::MacAddress> out;
  for (const auto& macs : by_target) {
    out.insert(out.end(), macs.begin(), macs.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t table_digest(const analysis::AggregateTable& t) {
  std::uint64_t d = 0x7AB1ED16E57ULL;
  d = sim::mix64(d, t.rows_scanned, t.eui_rows);
  d = sim::mix64(d, t.devices.size(), t.failed_files);
  for (const auto& [mac, dev] : t.devices) {
    d = sim::mix64(d, mac.bits(), dev.oui);
    d = sim::mix64(d, dev.observations, dev.day_bits);
    d = sim::mix64(d, dev.target_lo, dev.target_hi);
    d = sim::mix64(d, dev.response_lo, dev.response_hi);
    d = sim::mix64(d, static_cast<std::uint64_t>(dev.first_day),
                   static_cast<std::uint64_t>(dev.last_day));
    for (const auto& span : dev.per_as) {
      d = sim::mix64(d, span.asn, span.observations);
      d = sim::mix64(d, span.target_lo, span.target_hi);
      d = sim::mix64(d, span.response_lo, span.response_hi);
      for (const std::int64_t day : span.days.values()) {
        d = sim::mix64(d, static_cast<std::uint64_t>(day), 0x0DA1);
      }
    }
    for (const auto& s : dev.sightings) {
      d = sim::mix64(d, static_cast<std::uint64_t>(s.day), s.network);
    }
  }
  for (const auto& rollup : t.as_rollups) {
    d = sim::mix64(d, rollup.asn, rollup.observations);
    d = sim::mix64(d, rollup.devices, rollup.country.size());
  }
  return d;
}

bool run_query(const serve::ServeTable& table,
               const std::vector<net::MacAddress>& macs, std::uint64_t i) {
  const auto version = table.current();
  if (version == nullptr) return false;
  const net::MacAddress mac =
      macs.empty() ? net::MacAddress{} : macs[(i / 4) % macs.size()];
  switch (i % 4) {
    case 0:
      (void)analysis::allocation_median(*version);
      break;
    case 1:
      (void)analysis::pool_median(*version);
      break;
    case 2:
      if (const auto len = analysis::pool_length_for(*version, mac)) {
        (void)analysis::pool_for(*version, mac, *len);
      }
      break;
    default:
      (void)analysis::sightings_of(*version, mac);
      break;
  }
  return true;
}

namespace {

double ns_per(double seconds, std::size_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

}  // namespace

bool sample_unit_costs(sim::Internet& internet,
                       const std::vector<net::Prefix>& sample_48s,
                       std::span<const net::Ipv6Address> responses,
                       std::uint64_t seed, Metrics& out) {
  constexpr std::size_t kTargets = std::size_t{1} << 17;
  std::vector<net::Ipv6Address> targets;
  targets.reserve(kTargets);

  // Target generation: the zmap-permuted per-/64 stream of each /48.
  double start = wall_now();
  for (const auto& p48 : sample_48s) {
    probe::SubnetTargets gen{p48, 64, seed};
    net::Ipv6Address a;
    while (targets.size() < kTargets && gen.next(a)) targets.push_back(a);
    if (targets.size() >= kTargets) break;
  }
  out.set("probe.targetgen_ns", ns_per(wall_now() - start, targets.size()),
          "ns");

  // Sim delivery on the logical path, against the world's own state.
  const sim::TimePoint t = 40 * sim::kDay + sim::hours(12);
  std::size_t replies = 0;
  start = wall_now();
  for (const auto& target : targets) {
    if (internet.probe(target, 64, t)) ++replies;
  }
  out.set("sim.deliver_ns", ns_per(wall_now() - start, targets.size()), "ns");

  // The fast (logical) probe loop: prober + delivery + result batching.
  std::size_t received = 0;
  {
    sim::VirtualClock clock{t};
    probe::Prober prober{internet, clock,
                         {.packets_per_second = 1000000, .wire_mode = false}};
    start = wall_now();
    prober.sweep(targets, [&](std::span<const probe::ProbeResult> batch) {
      received += batch.size();
    });
    out.set("probe.loop_ns", ns_per(wall_now() - start, targets.size()), "ns");
  }

  // Wire build + parse of the echo request each target would get.
  std::size_t parsed = 0;
  {
    wire::Packet packet;
    const net::Ipv6Address vantage{0x2001067c2e8c0000ULL, 0x1};
    std::uint16_t sequence = 0;
    start = wall_now();
    for (const auto& target : targets) {
      wire::build_echo_request_into(packet, vantage, target, 0x5C37,
                                    sequence++);
      if (wire::parse_packet(packet)) ++parsed;
    }
    out.set("wire.build_parse_ns", ns_per(wall_now() - start, targets.size()),
            "ns");
  }

  // Attribution over the workload's own response column: a cold pass over
  // its distinct /64s (every lookup walks the trie), then the memoized
  // pass over every response.
  const routing::BgpTable& bgp = internet.bgp();
  std::vector<net::Ipv6Address> distinct;
  {
    container::FlatSet<std::uint64_t> seen;
    for (const auto& r : responses) {
      if (seen.insert(r.network()).second) distinct.push_back(r);
    }
  }
  routing::AttributionCache cache;
  std::size_t attributed = 0;
  start = wall_now();
  for (const auto& r : distinct) {
    if (bgp.attribute(r, cache) != nullptr) ++attributed;
  }
  out.set("routing.attribute_ns_cold",
          ns_per(wall_now() - start, distinct.size()), "ns");
  start = wall_now();
  for (const auto& r : responses) {
    if (bgp.attribute(r, cache) != nullptr) ++attributed;
  }
  out.set("routing.attribute_ns_memo",
          ns_per(wall_now() - start, responses.size()), "ns");
  out.set("routing.memo_hit_ratio",
          responses.empty() ? 0.0
                            : 1.0 - static_cast<double>(distinct.size()) /
                                        static_cast<double>(responses.size()),
          "ratio");
  return replies > 0 && received > 0 && parsed == targets.size() &&
         attributed > 0;
}

double span_s(const telemetry::Registry& registry, std::string_view suffix) {
  double total = 0;
  for (const auto& [path, stats] : registry.spans()) {
    if (path.size() >= suffix.size() &&
        std::string_view{path}.substr(path.size() - suffix.size()) == suffix) {
      total += static_cast<double>(stats.wall_ns) * 1e-9;
    }
  }
  return total;
}

double counter_value(const telemetry::Registry& registry,
                     std::string_view name) {
  const auto* c = registry.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double gauge_value(const telemetry::Registry& registry,
                   std::string_view name) {
  const auto* g = registry.find_gauge(name);
  return g == nullptr ? 0.0 : static_cast<double>(g->value());
}

double sketch_quantile(const telemetry::Registry& registry,
                       std::string_view name, double q) {
  const auto* s = registry.find_sketch(name);
  return s == nullptr ? 0.0 : static_cast<double>(s->quantile(q));
}

double sketch_sum(const telemetry::Registry& registry, std::string_view name) {
  const auto* s = registry.find_sketch(name);
  return s == nullptr ? 0.0 : static_cast<double>(s->sum());
}

const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      // Workload-level figures a user sees, reported where they exist.
      {"probes_per_s", "probes/s", "higher"},
      {"rows_per_s", "rows/s", "higher"},
      {"day0_s", "s", "lower"},
      {"day_s_p50", "s", "lower"},
      {"locate_ms_p50", "ms", "lower"},
      {"locate_ms_p95", "ms", "lower"},
      {"query_us_p50", "us", "lower"},
      {"query_us_p99", "us", "lower"},
      {"snapshot_bytes_per_row", "B/row", "lower"},
      // sim
      {"sim.world_build_s", "s", "lower"},
      {"sim.deliver_ns", "ns", "lower"},
      // probe
      {"probe.targetgen_ns", "ns", "lower"},
      {"probe.loop_ns", "ns", "lower"},
      {"probe.sent", "count", "lower"},
      {"probe.received", "count", "higher"},
      {"probe.response_ratio", "ratio", "higher"},
      // wire
      {"wire.build_parse_ns", "ns", "lower"},
      {"probe.wire_drops", "count", "lower"},
      // core: bootstrap
      {"bootstrap.seed_s", "s", "lower"},
      {"bootstrap.expand_s", "s", "lower"},
      {"bootstrap.density_s", "s", "lower"},
      {"bootstrap.rotation_s", "s", "lower"},
      {"ingest.batch_ns_p50", "ns", "lower"},
      {"bootstrap.cpu_s", "s", "lower"},
      {"bootstrap.allocs", "count", "lower"},
      // core: campaign (day 0, and the median later day)
      {"campaign.day0.sweep_s", "s", "lower"},
      {"campaign.day0.ingest_s", "s", "lower"},
      {"campaign.day0.alloc_infer_s", "s", "lower"},
      {"campaign.day0.checkpoint_s", "s", "lower"},
      {"campaign.later.sweep_s", "s", "lower"},
      {"campaign.later.ingest_s", "s", "lower"},
      {"campaign.later.alloc_infer_s", "s", "lower"},
      {"campaign.later.checkpoint_s", "s", "lower"},
      {"campaign.later.other_s", "s", "lower"},
      {"campaign.cpu_s", "s", "lower"},
      {"campaign.allocs", "count", "lower"},
      // core: tracker and rotation
      {"tracker.probes_per_locate", "count", "lower"},
      {"tracker.found_ratio", "ratio", "higher"},
      {"tracker.cpu_s", "s", "lower"},
      {"tracker.allocs", "count", "lower"},
      {"rotation.diff_ms_p50", "ms", "lower"},
      {"rotation.cpu_s", "s", "lower"},
      {"rotation.allocs", "count", "lower"},
      // routing
      {"routing.attribute_ns_cold", "ns", "lower"},
      {"routing.attribute_ns_memo", "ns", "lower"},
      {"routing.memo_hit_ratio", "ratio", "higher"},
      // corpus
      {"corpus.snapshot_bytes", "B", "lower"},
      {"corpus.snapshot_rows", "rows", "higher"},
      {"snapshot.write_ms", "ms", "lower"},
      {"snapshot.read_s", "s", "lower"},
      {"corpus.resume_s", "s", "lower"},
      {"corpus.blocks_read", "count", "lower"},
      {"corpus.blocks_skipped", "count", "higher"},
      {"resume.cpu_s", "s", "lower"},
      {"resume.allocs", "count", "lower"},
      // analysis
      {"analysis.scan_s", "s", "lower"},
      {"analysis.rows_scanned", "rows", "higher"},
      {"analysis.devices", "count", "higher"},
      {"analysis.cpu_s", "s", "lower"},
      {"analysis.allocs", "count", "lower"},
      // serve
      {"serve.delta_apply_ms_p50", "ms", "lower"},
      {"serve.reads", "count", "higher"},
      {"serve.reclaim_waits", "count", "lower"},
      {"query.cpu_s", "s", "lower"},
      {"query.allocs", "count", "lower"},
      // join
      {"join.run_s", "s", "lower"},
      {"join.spill_bytes", "B", "lower"},
      {"join.spill_runs", "count", "lower"},
      {"join.blocks_read", "count", "lower"},
      {"join.blocks_pruned", "count", "higher"},
      {"join.prune_ratio", "ratio", "higher"},
      {"join.peak_partition_rows", "rows", "lower"},
      {"join.dossiers", "count", "higher"},
      {"join.anchored", "count", "higher"},
      {"join.cpu_s", "s", "lower"},
      {"join.allocs", "count", "lower"},
      // telemetry / trace
      {"trace.overhead_pct", "%", "lower"},
  };
  return specs;
}

}  // namespace perfbench
