// campaign.cpp - the `campaign` workload: the write side of the attack.
//
// Timed: core::run_campaign in wire mode over a seeded draw of the world's
// ground-truth rotating /48s, writing a fresh checkpoint chain and feeding
// a serve::ServeTable while one reader thread issues the derive.h query
// mix against current() the whole time; then a week of core::Tracker::
// locate on devices planned from the final served version. Wire build/
// parse, snapshot encode + manifest, serve delta apply, queries beside
// writes and the tracker's locate latency all run here.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "analysis/input.h"
#include "common.h"
#include "core/campaign.h"
#include "core/tracker.h"
#include "corpus/checkpoint.h"
#include "probe/prober.h"
#include "serve/serve_table.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kTargets = 16;        ///< Rotating /48s swept daily.
constexpr unsigned kDays = 10;              ///< Campaign days.
constexpr std::size_t kTrackDevices = 24;   ///< Devices re-located daily.
constexpr std::int64_t kTrackDays = 7;      ///< One week of tracking.
/// Largest search space the tracking plan accepts: 2^12 allocation blocks.
constexpr unsigned kMaxSearchBits = 12;

/// Cumulative campaign stage sketches, read at each day boundary.
struct StageSums {
  double sweep = 0, ingest = 0, alloc_infer = 0, checkpoint = 0;
};

StageSums stage_sums(const telemetry::Registry& reg) {
  return {sketch_sum(reg, "campaign.sweep_ns") * 1e-9,
          sketch_sum(reg, "campaign.ingest_ns") * 1e-9,
          sketch_sum(reg, "campaign.alloc_infer_ns") * 1e-9,
          sketch_sum(reg, "campaign.checkpoint_ns") * 1e-9};
}

/// Where the tracked device really is: the simulator's ground truth.
struct TruthRef {
  std::size_t provider = 0;
  sim::Provider::DeviceRef ref;
};

std::optional<TruthRef> find_truth(const sim::Internet& internet,
                                   net::MacAddress mac) {
  for (std::size_t p = 0; p < internet.provider_count(); ++p) {
    if (const auto ref = internet.provider(p).find_device(mac)) {
      return TruthRef{p, *ref};
    }
  }
  return std::nullopt;
}

}  // namespace

IterationResult run_campaign(IterationContext& ctx) {
  const Config& config = ctx.config;
  Verdict& verdict = ctx.verdict;
  IterationResult out;

  const double setup_start = wall_now();
  sim::PaperWorld world = build_world();
  const double world_s = wall_now() - setup_start;
  sim::Internet& internet = world.internet;
  const routing::BgpTable& bgp = internet.bgp();
  const std::vector<net::Prefix> targets =
      draw_rotating_48s(internet, kTargets, sim::mix64(config.seed, 0xCA));
  const auto macs_by_target = device_macs_by_target(internet, targets);
  const std::vector<net::MacAddress> macs = flatten(macs_by_target);
  const std::string chain_dir = ctx.dir + "/chain";
  std::filesystem::create_directories(chain_dir);
  out.setup_s = wall_now() - setup_start;

  // nproc threads in total: the sweep shards plus the one reader.
  const unsigned sweep_threads = config.nproc > 1 ? config.nproc - 1 : 1;
  sim::VirtualClock clock{kStartTime};
  probe::Prober prober{internet, clock,
                       {.packets_per_second = 1000000, .wire_mode = true}};
  if (ctx.registry != nullptr) {
    ctx.registry->set_clock(&clock);
    prober.attach_telemetry(*ctx.registry);
  }

  serve::ServeOptions serve_options;
  serve_options.threads = sweep_threads;
  serve_options.bgp = &bgp;
  serve_options.registry = ctx.registry;
  serve_options.trace = ctx.trace;
  serve::ServeTable table{serve_options};

  std::vector<double> day_end;
  std::vector<StageSums> day_stages;
  core::CampaignOptions options;
  options.days = kDays;
  options.seed = sim::mix64(config.seed, 0xCA3B);
  options.threads = sweep_threads;
  options.checkpoint_dir = chain_dir;
  options.serve = &table;
  options.registry = ctx.registry;
  options.trace = ctx.trace;
  options.on_day_complete = [&](const core::DaySummary&) {
    day_end.push_back(wall_now());
    if (ctx.registry != nullptr) {
      day_stages.push_back(stage_sums(*ctx.registry));
    }
  };

  // The reader: one closed-loop caller, pin included in every query.
  std::vector<double> query_s;
  std::uint64_t null_after_publish = 0;
  const auto reader_body = [&](const std::stop_token& stop) {
    query_s.reserve(std::size_t{1} << 20);
    bool published = false;
    std::uint64_t i = 0;
    while (!stop.stop_requested()) {
      const double start = wall_now();
      const bool ok = run_query(table, macs, i);
      const double elapsed = wall_now() - start;
      if (!ok) {
        if (published) ++null_after_publish;
        std::this_thread::yield();
        continue;
      }
      published = true;
      ++i;
      if (query_s.size() < query_s.capacity()) query_s.push_back(elapsed);
    }
  };

  // --- Timed interval ---------------------------------------------------
  const CostTimer interval;
  const double campaign_start = wall_now();
  // jthread: stopped and joined on every path out of this scope.
  std::jthread reader{reader_body};
  core::CampaignResult result;
  const Cost campaign_cost = measure([&] {
    result = core::run_campaign(internet, clock, prober, targets, options);
  });
  reader.request_stop();
  reader.join();

  // Plan the tracking week from the final served version: pool from
  // pool_for, allocation length from the day-0 per-AS inference,
  // multi-AS MACs excluded.
  const auto version = table.current();
  std::vector<core::Tracker> trackers;
  struct Hit {
    std::size_t tracker = 0;
    net::Ipv6Address address;
    sim::TimePoint at = 0;
  };
  std::vector<Hit> hits;
  std::vector<double> locate_s;
  std::uint64_t locate_probes = 0;
  const Cost tracker_cost = measure([&] {
    if (version == nullptr) return;
    std::set<net::MacAddress> multi_as;
    for (const auto& m : analysis::multi_as_iids(*version)) {
      multi_as.insert(m.mac);
    }
    // Candidates round-robin over the targets, each target's devices in a
    // seeded order, so the tracked set follows the targets' stratified mix
    // of pool shapes.
    std::vector<net::MacAddress> order;
    {
      auto shuffled = macs_by_target;
      sim::Rng rng{sim::mix64(config.seed, 0x7AC)};
      std::size_t longest = 0;
      for (auto& list : shuffled) {
        for (std::size_t i = list.size(); i > 1; --i) {
          std::swap(list[i - 1], list[rng.below(i)]);
        }
        longest = std::max(longest, list.size());
      }
      for (std::size_t r = 0; r < longest; ++r) {
        for (const auto& list : shuffled) {
          if (r < list.size()) order.push_back(list[r]);
        }
      }
    }
    std::set<net::MacAddress> planned;
    for (const net::MacAddress mac : order) {
      if (trackers.size() >= kTrackDevices) break;
      if (multi_as.contains(mac) || !planned.insert(mac).second) continue;
      const auto pool_length = analysis::pool_length_for(*version, mac);
      if (!pool_length) continue;
      const auto pool = analysis::pool_for(*version, mac, *pool_length);
      if (!pool) continue;
      routing::AttributionCache cache;
      const routing::Advertisement* ad = bgp.attribute(pool->base(), cache);
      if (ad == nullptr) continue;
      const auto alloc = result.allocation_length_by_as.find(ad->origin_asn);
      if (alloc == result.allocation_length_by_as.end()) continue;
      // An attacker budgets probes per device: skip search spaces above
      // 2^kMaxSearchBits allocation blocks.
      if (alloc->second < pool->length() ||
          alloc->second - pool->length() > kMaxSearchBits) {
        continue;
      }
      core::TrackerConfig tc;
      tc.target_mac = mac;
      tc.pool = *pool;
      tc.allocation_length = alloc->second;
      tc.seed = sim::mix64(config.seed, mac.bits());
      tc.registry = ctx.registry;
      trackers.emplace_back(prober, tc);
    }
    const std::int64_t first_day = sim::day_of(clock.now()) + 1;
    for (std::int64_t day = first_day; day < first_day + kTrackDays; ++day) {
      clock.advance_to(day * sim::kDay + sim::hours(12));
      for (std::size_t i = 0; i < trackers.size(); ++i) {
        const double start = wall_now();
        const core::TrackAttempt attempt = trackers[i].locate(day);
        locate_s.push_back(wall_now() - start);
        locate_probes += attempt.probes_sent;
        if (attempt.found) hits.push_back({i, attempt.address, clock.now()});
      }
    }
  });
  const Cost cost = interval.stop();
  std::fprintf(stderr,
               "  campaign: %llu probes, %zu rows in %zu days (day 0: %.3f s, "
               "later days: %.3f s); tracker: %zu devices, %llu probes, "
               "%zu of %zu found in %.3f s\n",
               static_cast<unsigned long long>(result.probes_sent),
               result.observations.size(), day_end.size(),
               day_end.empty() ? 0.0 : day_end.front() - campaign_start,
               day_end.empty() ? 0.0 : day_end.back() - day_end.front(),
               trackers.size(), static_cast<unsigned long long>(locate_probes),
               hits.size(), locate_s.size(), tracker_cost.wall_s);
  out.wall_s = cost.wall_s;
  out.cpu_s = cost.cpu_s;
  out.work = static_cast<double>(prober.counters().sent);

  // --- Oracles (untimed) ------------------------------------------------
  verdict.check(result.resumed_days == 0,
                "campaign: fresh chain dir swept every day live");
  verdict.check(result.checkpoint_ok, "campaign: every checkpoint written");
  verdict.check(version != nullptr, "campaign: a version was published");
  verdict.check(null_after_publish == 0,
                "campaign: current() never null after the first publish");
  verdict.add_attempts(query_s.size());
  verdict.check(!trackers.empty(), "campaign: tracker plan is non-empty");
  std::uint64_t wrong = 0;
  for (const Hit& hit : hits) {
    const net::MacAddress mac = trackers[hit.tracker].config().target_mac;
    const auto truth = find_truth(internet, mac);
    if (!truth || hit.address != internet.provider(truth->provider)
                                     .wan_address(truth->ref, hit.at)) {
      ++wrong;
    }
  }
  verdict.add_attempts(hits.size() - wrong);
  if (wrong > 0) {
    verdict.check(false, "campaign: " + std::to_string(wrong) +
                             " tracker hits disagree with the sim's truth");
  }

  std::vector<std::string> paths;
  for (unsigned d = 0; d < kDays; ++d) {
    paths.push_back(chain_dir + "/" + corpus::snapshot_file_name(d));
  }
  const analysis::ChainInput chain{paths};
  analysis::AnalysisOptions analysis_options;
  analysis_options.threads = config.nproc;
  const analysis::AggregateTable fresh =
      analysis::analyze(chain, &bgp, analysis_options);
  const std::uint64_t served =
      version != nullptr ? table_digest(version->table) : 0;
  verdict.check(served == table_digest(fresh),
                "campaign: final served version equals analyze() over the "
                "chain just written");
  verdict.check(fresh.failed_files == 0, "campaign: chain files all readable");
  out.digest = sim::mix64(served, hits.size(), locate_probes);

  if (ctx.registry != nullptr) {
    const telemetry::Registry& reg = *ctx.registry;
    Metrics& m = out.layers;
    // Per-day wall times and stage split (day 0 vs the median later day).
    std::vector<double> later_day, later_sweep, later_ingest, later_infer,
        later_checkpoint, later_other;
    StageSums prev;
    for (std::size_t d = 0; d < day_end.size() && d < day_stages.size(); ++d) {
      const double day_s =
          day_end[d] - (d == 0 ? campaign_start : day_end[d - 1]);
      const StageSums& s = day_stages[d];
      const StageSums delta{s.sweep - prev.sweep, s.ingest - prev.ingest,
                            s.alloc_infer - prev.alloc_infer,
                            s.checkpoint - prev.checkpoint};
      prev = s;
      if (d == 0) {
        m.set("day0_s", day_s, "s");
        m.set("campaign.day0.sweep_s", delta.sweep, "s");
        m.set("campaign.day0.ingest_s", delta.ingest, "s");
        m.set("campaign.day0.alloc_infer_s", delta.alloc_infer, "s");
        m.set("campaign.day0.checkpoint_s", delta.checkpoint, "s");
        continue;
      }
      later_day.push_back(day_s);
      later_sweep.push_back(delta.sweep);
      later_ingest.push_back(delta.ingest);
      later_infer.push_back(delta.alloc_infer);
      later_checkpoint.push_back(delta.checkpoint);
      later_other.push_back(day_s - delta.sweep - delta.ingest -
                            delta.alloc_infer - delta.checkpoint);
    }
    m.set("day_s_p50", median(later_day), "s");
    m.set("campaign.later.sweep_s", median(later_sweep), "s");
    m.set("campaign.later.ingest_s", median(later_ingest), "s");
    m.set("campaign.later.alloc_infer_s", median(later_infer), "s");
    m.set("campaign.later.checkpoint_s", median(later_checkpoint), "s");
    m.set("campaign.later.other_s", median(later_other), "s");
    m.set_call("campaign", campaign_cost);

    const double sweep_s =
        day_end.empty() ? 0 : day_end.back() - campaign_start;
    m.set("probes_per_s",
          sweep_s > 0 ? static_cast<double>(result.probes_sent) / sweep_s : 0,
          "probes/s");
    const double sent = counter_value(reg, "probe.sent");
    const double received = counter_value(reg, "probe.received");
    m.set("probe.sent", sent, "count");
    m.set("probe.received", received, "count");
    m.set("probe.response_ratio", sent > 0 ? received / sent : 0.0, "ratio");
    m.set("probe.wire_drops", counter_value(reg, "probe.wire_drops"), "count");
    m.set("sim.world_build_s", world_s, "s");

    const double attempts = static_cast<double>(locate_s.size());
    m.set("locate_ms_p50", quantile(locate_s, 0.5) * 1e3, "ms");
    m.set("locate_ms_p95", quantile(locate_s, 0.95) * 1e3, "ms");
    m.set("tracker.probes_per_locate",
          attempts > 0 ? static_cast<double>(locate_probes) / attempts : 0,
          "count");
    m.set("tracker.found_ratio",
          attempts > 0 ? static_cast<double>(hits.size()) / attempts : 0,
          "ratio");
    m.set_call("tracker", tracker_cost);

    m.set("query_us_p50", quantile(query_s, 0.5) * 1e6, "us");
    m.set("query_us_p99", quantile(query_s, 0.99) * 1e6, "us");
    m.set("serve.delta_apply_ms_p50",
          sketch_quantile(reg, "serve.delta_apply_ns", 0.5) * 1e-6, "ms");
    m.set("serve.reads", static_cast<double>(table.reads()), "count");
    m.set("serve.reclaim_waits", counter_value(reg, "serve.reclaim_waits"),
          "count");

    const double bytes = static_cast<double>(dir_bytes(chain_dir, ".snap"));
    const double rows = static_cast<double>(result.observations.size());
    m.set("corpus.snapshot_bytes", bytes, "B");
    m.set("corpus.snapshot_rows", rows, "rows");
    m.set("snapshot_bytes_per_row", rows > 0 ? bytes / rows : 0, "B/row");
    m.set("snapshot.write_ms",
          sketch_quantile(reg, "campaign.checkpoint_ns", 0.5) * 1e-6, "ms");
    m.set("analysis.scan_s", span_s(reg, "analysis.scan"), "s");
    m.set("analysis.rows_scanned", counter_value(reg, "analysis.rows_scanned"),
          "rows");
    m.set("analysis.devices", gauge_value(reg, "analysis.devices"), "count");

    verdict.check(
        sample_unit_costs(internet, targets,
                          result.observations.response_column(), config.seed,
                          m),
        "campaign: unit-cost sample got replies, parses and attributions");
  }
  return out;
}

}  // namespace perfbench
