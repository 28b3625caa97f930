// replay.cpp - the `replay` workload: the read side, with zero probes.
//
// Setup writes a checkpoint chain through the same campaign code path
// (fast probe path) plus a seeded geo feed that covers a share of the
// chain's MACs and adds feed-only OUI blocks the join can prune. Timed:
// resume the chain into a fresh ServeTable (decode + manifest validation +
// delta re-apply), analysis::analyze over a ChainInput,
// core::detect_rotation_incremental over each consecutive day pair, a
// reads-only query burst, then join::DossierJoin::run with a spill dir.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/input.h"
#include "common.h"
#include "core/campaign.h"
#include "core/rotation_detector.h"
#include "corpus/checkpoint.h"
#include "corpus/geo_feed.h"
#include "corpus/snapshot.h"
#include "join/join.h"
#include "join/naive.h"
#include "netbase/eui64.h"
#include "probe/prober.h"
#include "serve/serve_table.h"
#include "sim/geo_feed.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kTargets = 24;  ///< Rotating /48s in the chain.
constexpr unsigned kDays = 7;         ///< Chain length.
constexpr std::uint64_t kQueries = 1 << 12;  ///< Reads-only burst.
constexpr unsigned kFeedCoveragePct = 60;    ///< Chain MACs in the feed.
constexpr std::uint64_t kAlienPerOui = 1 << 15;  ///< Feed-only records/OUI.

/// Writes the seeded feed: a share of the chain's MACs plus two OUI blocks
/// the chain never saw. Returns false on I/O failure.
bool write_feed(const std::string& path, const std::vector<net::MacAddress>&
                                             chain_macs,
                std::uint64_t seed) {
  std::set<std::uint32_t> chain_ouis;
  for (const auto mac : chain_macs) {
    chain_ouis.insert(static_cast<std::uint32_t>(mac.bits() >> 24));
  }
  sim::GeoFeedSpec spec;
  spec.seed = seed;
  for (std::uint32_t oui = 0xF4F200; spec.ouis.size() < 2; ++oui) {
    if (!chain_ouis.contains(oui)) spec.ouis.push_back(oui);
  }
  spec.devices_per_oui = kAlienPerOui;
  spec.last_day = kDays - 1;
  std::vector<sim::GeoRecord> records = sim::GeoFeedGenerator{spec}.generate();

  sim::Rng rng{sim::mix64(seed, 0x6E0)};
  for (const auto mac : chain_macs) {
    if (sim::mix64(seed, mac.bits()) % 100 >= kFeedCoveragePct) continue;
    sim::GeoRecord r;
    r.mac = mac;
    r.lat_udeg = static_cast<std::int32_t>(rng.below(180000000)) - 90000000;
    r.lon_udeg = static_cast<std::int32_t>(rng.below(360000000)) - 180000000;
    r.asn = 64500 + static_cast<std::uint32_t>(rng.below(8));
    r.last_day = static_cast<std::int64_t>(rng.below(kDays));
    records.push_back(r);
  }
  std::sort(records.begin(), records.end(),
            [](const sim::GeoRecord& a, const sim::GeoRecord& b) {
              return a.mac < b.mac;
            });
  corpus::GeoFeedWriter writer;
  if (!writer.open(path)) return false;
  for (const auto& r : records) writer.append(r);
  return writer.finish();
}

core::CampaignOptions chain_options(const Config& config,
                                    const std::string& chain_dir) {
  core::CampaignOptions options;
  options.days = kDays;
  options.seed = sim::mix64(config.seed, 0x2E9A);
  options.threads = config.nproc;
  options.checkpoint_dir = chain_dir;
  return options;
}

}  // namespace

IterationResult run_replay(IterationContext& ctx) {
  const Config& config = ctx.config;
  Verdict& verdict = ctx.verdict;
  IterationResult out;

  // --- Setup: world, chain, feed -----------------------------------------
  const double setup_start = wall_now();
  sim::PaperWorld world = build_world();
  const double world_s = wall_now() - setup_start;
  sim::Internet& internet = world.internet;
  const routing::BgpTable& bgp = internet.bgp();
  const std::vector<net::Prefix> targets =
      draw_rotating_48s(internet, kTargets, sim::mix64(config.seed, 0x2E));
  const std::vector<net::MacAddress> macs =
      flatten(device_macs_by_target(internet, targets));
  const std::string chain_dir = ctx.dir + "/chain";
  const std::string feed_path = ctx.dir + "/geo_feed.gfd";
  std::filesystem::create_directories(chain_dir);
  std::vector<std::string> paths;
  for (unsigned d = 0; d < kDays; ++d) {
    paths.push_back(chain_dir + "/" + corpus::snapshot_file_name(d));
  }
  {
    sim::VirtualClock clock{kStartTime};
    probe::Prober prober{internet, clock,
                         {.packets_per_second = 1000000, .wire_mode = false}};
    const core::CampaignResult written = core::run_campaign(
        internet, clock, prober, targets, chain_options(config, chain_dir));
    verdict.check(written.checkpoint_ok && written.resumed_days == 0,
                  "replay: setup chain written fresh");
    std::set<net::MacAddress> chain_macs;
    for (const auto& response : written.observations.response_column()) {
      if (const auto mac = net::embedded_mac(response)) chain_macs.insert(*mac);
    }
    verdict.check(write_feed(feed_path, {chain_macs.begin(), chain_macs.end()},
                             config.seed),
                  "replay: geo feed written");
  }
  out.setup_s = wall_now() - setup_start;

  // --- Timed interval ---------------------------------------------------
  const unsigned threads = config.nproc;
  serve::ServeOptions serve_options;
  serve_options.threads = threads;
  serve_options.bgp = &bgp;
  serve_options.registry = ctx.registry;
  serve_options.trace = ctx.trace;
  serve::ServeTable table{serve_options};
  sim::VirtualClock clock{kStartTime};
  probe::Prober prober{internet, clock,
                       {.packets_per_second = 1000000, .wire_mode = false}};
  if (ctx.registry != nullptr) ctx.registry->set_clock(&clock);
  core::CampaignOptions resume_options = chain_options(config, chain_dir);
  resume_options.serve = &table;
  resume_options.registry = ctx.registry;
  resume_options.trace = ctx.trace;

  analysis::AnalysisOptions analysis_options;
  analysis_options.threads = threads;
  analysis_options.trace = ctx.trace;

  join::JoinOptions join_options;
  join_options.threads = threads;
  join_options.spill_dir = ctx.dir + "/spill";
  join_options.bgp = &bgp;
  join_options.telemetry = ctx.registry;
  join::DossierJoin join{join_options};
  for (unsigned d = 0; d < kDays; ++d) join.add_corpus_day(paths[d], d);
  join.add_geo_feed(feed_path);

  const CostTimer interval;
  core::CampaignResult resumed;
  const Cost resume_cost = measure([&] {
    resumed = core::run_campaign(internet, clock, prober, targets,
                                 resume_options);
  });

  const analysis::ChainInput chain{paths};
  analysis::AggregateTable fresh;
  const Cost analysis_cost = measure([&] {
    fresh = analysis::analyze(chain, &bgp, analysis_options, ctx.registry);
  });

  std::vector<double> diff_s;
  std::uint64_t rotating = 0;
  std::uint64_t diff_failures = 0;
  const Cost rotation_cost = measure([&] {
    for (unsigned d = 1; d < kDays; ++d) {
      corpus::SnapshotReader today;
      core::Snapshot second;
      const bool read = today.open(paths[d]) &&
                        today.for_each_eui_pair(
                            [&](net::Ipv6Address t, net::Ipv6Address r) {
                              second.record(t, r);
                            });
      corpus::SnapshotReader prior;
      const bool opened = prior.open(paths[d - 1]);
      const double start = wall_now();
      const auto verdicts = core::detect_rotation_incremental(prior, second);
      diff_s.push_back(wall_now() - start);
      if (!read || !opened || !verdicts) {
        ++diff_failures;
        continue;
      }
      for (const auto& v : *verdicts) rotating += v.rotating ? 1 : 0;
    }
  });

  std::vector<double> query_s;
  query_s.reserve(kQueries);
  std::uint64_t null_versions = 0;
  const Cost query_cost = measure([&] {
    for (std::uint64_t i = 0; i < kQueries; ++i) {
      const double start = wall_now();
      if (!run_query(table, macs, i)) ++null_versions;
      query_s.push_back(wall_now() - start);
    }
  });

  std::optional<analysis::DossierTable> dossiers;
  const Cost join_cost = measure([&] { dossiers = join.run_table(); });
  const Cost cost = interval.stop();
  out.wall_s = cost.wall_s;
  out.cpu_s = cost.cpu_s;
  out.work = static_cast<double>(fresh.rows_scanned);

  // --- Oracles (untimed) ------------------------------------------------
  verdict.check(resumed.resumed_days == kDays,
                "replay: resumed every chain day (got " +
                    std::to_string(resumed.resumed_days) + ")");
  verdict.check(fresh.failed_files == 0 && fresh.rows_scanned > 0,
                "replay: chain decodes in full");
  const auto version = table.current();
  const std::uint64_t served =
      version != nullptr ? table_digest(version->table) : 0;
  verdict.check(served == table_digest(fresh),
                "replay: resumed ServeTable equals analyze() over the chain");
  verdict.check(diff_failures == 0, "replay: every day pair differenced");
  verdict.check(null_versions == 0, "replay: no null version in the burst");
  verdict.add_attempts(kQueries);
  join::NaiveJoinInputs naive_inputs;
  for (unsigned d = 0; d < kDays; ++d) {
    naive_inputs.corpus_files.push_back({paths[d], d});
  }
  naive_inputs.geo_feeds = {feed_path};
  naive_inputs.bgp = &bgp;
  const auto oracle = join::naive_join(naive_inputs);
  verdict.check(dossiers.has_value() && oracle.has_value() &&
                    dossiers->rows() == oracle->rows(),
                "replay: join output equals the naive-join oracle");
  out.digest = sim::mix64(served, rotating,
                          dossiers ? dossiers->size() : 0);

  if (ctx.registry != nullptr) {
    const telemetry::Registry& reg = *ctx.registry;
    const join::JoinStats& stats = join.stats();
    Metrics& m = out.layers;
    const double rows = static_cast<double>(fresh.rows_scanned);
    m.set("rows_per_s", rows / out.wall_s, "rows/s");
    m.set("sim.world_build_s", world_s, "s");
    m.set("corpus.resume_s", resume_cost.wall_s, "s");
    m.set_call("resume", resume_cost);
    m.set("analysis.scan_s", analysis_cost.wall_s, "s");
    m.set("analysis.rows_scanned", rows, "rows");
    m.set("analysis.devices", static_cast<double>(fresh.devices.size()),
          "count");
    m.set_call("analysis", analysis_cost);
    m.set("corpus.blocks_read",
          static_cast<double>(chain.blocks_read()) +
              gauge_value(reg, "corpus.blocks_read"),
          "count");
    m.set("corpus.blocks_skipped",
          static_cast<double>(chain.blocks_skipped()) +
              gauge_value(reg, "corpus.blocks_skipped"),
          "count");
    m.set("rotation.diff_ms_p50", median(diff_s) * 1e3, "ms");
    m.set_call("rotation", rotation_cost);
    m.set("query_us_p50", quantile(query_s, 0.5) * 1e6, "us");
    m.set("query_us_p99", quantile(query_s, 0.99) * 1e6, "us");
    m.set_call("query", query_cost);
    m.set("serve.delta_apply_ms_p50",
          sketch_quantile(reg, "serve.delta_apply_ns", 0.5) * 1e-6, "ms");
    m.set("serve.reads", static_cast<double>(table.reads()), "count");
    m.set("serve.reclaim_waits", counter_value(reg, "serve.reclaim_waits"),
          "count");
    m.set("join.run_s", join_cost.wall_s, "s");
    m.set_call("join", join_cost);
    m.set("join.spill_bytes", static_cast<double>(stats.spill_bytes), "B");
    m.set("join.spill_runs", static_cast<double>(stats.spill_runs), "count");
    m.set("join.blocks_read", static_cast<double>(stats.blocks_read), "count");
    m.set("join.blocks_pruned", static_cast<double>(stats.blocks_pruned),
          "count");
    const double blocks =
        static_cast<double>(stats.blocks_read + stats.blocks_pruned);
    m.set("join.prune_ratio",
          blocks > 0 ? static_cast<double>(stats.blocks_pruned) / blocks : 0,
          "ratio");
    m.set("join.peak_partition_rows",
          static_cast<double>(stats.peak_partition_rows), "rows");
    m.set("join.dossiers", static_cast<double>(stats.dossiers), "count");
    m.set("join.anchored", static_cast<double>(stats.anchored), "count");

    const double bytes = static_cast<double>(dir_bytes(chain_dir, ".snap"));
    m.set("corpus.snapshot_bytes", bytes, "B");
    m.set("corpus.snapshot_rows", rows, "rows");
    m.set("snapshot_bytes_per_row", rows > 0 ? bytes / rows : 0, "B/row");

    // Reader open + full column load, per chain file.
    std::vector<double> read_s;
    for (const auto& path : paths) {
      const double start = wall_now();
      corpus::SnapshotReader reader;
      std::vector<net::Ipv6Address> addresses;
      std::vector<sim::TimePoint> times;
      std::vector<std::uint16_t> type_codes;
      const bool ok = reader.open(path) && reader.read_targets(addresses) &&
                      reader.read_responses(addresses) &&
                      reader.read_type_codes(type_codes) &&
                      reader.read_times(times);
      read_s.push_back(wall_now() - start);
      verdict.check(ok, "replay: snapshot column load " + path);
    }
    m.set("snapshot.read_s", median(read_s), "s");
    verdict.check(
        sample_unit_costs(internet, targets,
                          resumed.observations.response_column(), config.seed,
                          m),
        "replay: unit-cost sample got replies, parses and attributions");
  }
  return out;
}

}  // namespace perfbench
