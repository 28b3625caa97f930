// Property suite for the engine's determinism contract: the full
// bootstrap-funnel + checkpointed campaign pipeline run through the
// sharded executor must produce a bit-identical corpus — every
// observation field, every derived prefix set, every funnel number, every
// byte of the on-disk snapshot chain and manifest — at ANY thread count.
// Each (scenario, seed, threads) cell builds a fresh world and is compared
// field-by-field against a cached threads=1 reference from an identical
// world. A campaign aborted mid-day must also resume to that same corpus
// and chain (§5f). The bootstrap's per-/48 rotation stage must also give
// exactly the verdicts of the whole-window two-snapshot diff it replaced.
//
// Under ThreadSanitizer the matrix shrinks (TSan runs ~15x slower) but
// still crosses both scenarios with real multi-threaded runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "core/bootstrap.h"
#include "core/campaign.h"
#include "core/observation.h"
#include "core/rotation_detector.h"
#include "netbase/mac_address.h"
#include "netbase/prefix.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "sim/sim_time.h"

namespace scent {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

enum class Scenario { kPaperWorld, kChurn };

const char* scenario_name(Scenario s) {
  return s == Scenario::kPaperWorld ? "paper_world" : "churn";
}

/// A fresh simulated Internet per run: equivalence must hold between two
/// *independently constructed* identical worlds, not merely two sweeps of
/// one world instance.
sim::Internet make_world(Scenario scenario, std::uint64_t seed) {
  if (scenario == Scenario::kPaperWorld) {
    sim::PaperWorldOptions options;
    options.seed = seed;
    options.tail_as_count = 2;
    options.scale = kTsan ? 0.04 : 0.08;
    options.devices_per_tail_pool = kTsan ? 12 : 24;
    options.versatel_pool_count = 2;
    options.tail_churn = 0.25;
    options.inject_pathologies = true;
    return std::move(sim::make_paper_world(options).internet);
  }

  // Churn scenario: a rotator and a static allocator whose customers join
  // and leave mid-campaign — the §4.3 false-positive source. Bounded
  // service intervals must not disturb determinism because activity is a
  // pure function of (device, t).
  sim::WorldBuilder builder{seed};
  {
    sim::ProviderSpec spec;
    spec.asn = 65101;
    spec.name = "ChurnRotator";
    spec.country = "DE";
    spec.advertisement = *net::Prefix::parse("2001:1111::/32");
    spec.vendors = {{net::Oui{0x3810d5}, 1.0}};
    sim::PoolSpec pool;
    pool.pool_length = 48;
    pool.allocation_length = 56;
    pool.rotation.kind = sim::RotationPolicy::Kind::kStride;
    pool.rotation.stride = 97;
    pool.device_count = 200;
    spec.pools = {pool};
    spec.eui64_fraction = 0.9;
    spec.churn_fraction = 0.35;
    builder.add_provider(spec);
  }
  {
    sim::ProviderSpec spec;
    spec.asn = 65102;
    spec.name = "ChurnStatic";
    spec.country = "VN";
    spec.advertisement = *net::Prefix::parse("2001:2222::/32");
    spec.vendors = {{net::Oui{0x98f428}, 1.0}};
    sim::PoolSpec pool;
    pool.pool_length = 48;
    pool.allocation_length = 60;
    pool.device_count = 1000;
    spec.pools = {pool};
    spec.eui64_fraction = 0.8;
    spec.churn_fraction = 0.5;
    builder.add_provider(spec);
  }
  return builder.take();
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    path = std::string{::testing::TempDir()} + "/scent_equiv_" + tag + "_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
}

/// Every file of a checkpoint directory, sorted by name, with its bytes.
struct ChainFiles {
  std::vector<std::string> names;
  std::vector<std::vector<char>> bytes;
};

ChainFiles read_chain(const std::string& dir) {
  ChainFiles chain;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    chain.names.push_back(entry.path().filename().string());
  }
  std::sort(chain.names.begin(), chain.names.end());
  for (const auto& name : chain.names) {
    chain.bytes.push_back(file_bytes(dir + "/" + name));
  }
  return chain;
}

void expect_same_chain(const ChainFiles& want, const ChainFiles& got) {
  ASSERT_EQ(want.names, got.names);
  for (std::size_t i = 0; i < want.names.size(); ++i) {
    EXPECT_EQ(want.bytes[i], got.bytes[i]) << "chain file " << want.names[i];
  }
}

probe::ProberOptions fast_prober_options() {
  probe::ProberOptions options;
  options.wire_mode = false;
  options.packets_per_second = 2000000;
  return options;
}

core::BootstrapOptions bootstrap_options(std::uint64_t seed,
                                         unsigned threads) {
  core::BootstrapOptions boot;
  boot.seed = seed ^ 0xF00D;
  boot.probes_per_48 = 4;
  boot.threads = threads;
  boot.oversubscribe = true;  // real multi-shard runs even on 1-core CI
  return boot;
}

core::CampaignOptions campaign_options(std::uint64_t seed, unsigned threads,
                                       const std::string& checkpoint_dir) {
  core::CampaignOptions campaign;
  campaign.days = kTsan ? 2 : 3;
  campaign.seed = seed ^ 0xCA3B;
  campaign.threads = threads;
  campaign.oversubscribe = true;
  campaign.checkpoint_dir = checkpoint_dir;
  return campaign;
}

struct PipelineRun {
  core::BootstrapResult boot;
  core::CampaignResult campaign;
  ChainFiles chain;  ///< The campaign's snapshot chain + manifest.
};

PipelineRun run_pipeline(Scenario scenario, std::uint64_t seed,
                         unsigned threads) {
  sim::Internet internet = make_world(scenario, seed);
  // 10:00 — outside the 00:00-06:00 rotation window, like a real campaign
  // (a bootstrap whose snapshots straddle mid-rotation churn is a
  // different experiment).
  sim::VirtualClock clock{sim::hours(10)};

  probe::Prober prober{internet, clock, fast_prober_options()};

  PipelineRun run;
  run.boot = core::run_bootstrap(internet, clock, prober,
                                 bootstrap_options(seed, threads));

  const TempDir dir{"t" + std::to_string(threads)};
  run.campaign =
      core::run_campaign(internet, clock, prober, run.boot.rotating_48s,
                         campaign_options(seed, threads, dir.path));
  EXPECT_TRUE(run.campaign.checkpoint_ok);
  run.chain = read_chain(dir.path);
  return run;
}

/// Observation has no operator== (and padding forbids memcmp); compare
/// every field of every element, in order.
void expect_same_corpus(const core::ObservationStore& want,
                        const core::ObservationStore& got) {
  ASSERT_EQ(want.size(), got.size());
  const auto& a = want.all();
  const auto& b = got.all();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].target, b[i].target) << "observation " << i;
    ASSERT_EQ(a[i].response, b[i].response) << "observation " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "observation " << i;
    ASSERT_EQ(a[i].code, b[i].code) << "observation " << i;
    ASSERT_EQ(a[i].time, b[i].time) << "observation " << i;
  }
  EXPECT_EQ(want.unique_responses(), got.unique_responses());
  EXPECT_EQ(want.unique_eui64_responses(), got.unique_eui64_responses());
  EXPECT_EQ(want.unique_eui64_iids(), got.unique_eui64_iids());
}

void expect_same_run(const PipelineRun& want, const PipelineRun& got) {
  // Bootstrap: every derived prefix set...
  EXPECT_EQ(want.boot.seed_48s, got.boot.seed_48s);
  EXPECT_EQ(want.boot.seed_32s, got.boot.seed_32s);
  EXPECT_EQ(want.boot.expanded_48s, got.boot.expanded_48s);
  EXPECT_EQ(want.boot.high_density_48s, got.boot.high_density_48s);
  EXPECT_EQ(want.boot.low_density_48s, got.boot.low_density_48s);
  EXPECT_EQ(want.boot.unresponsive_48s, got.boot.unresponsive_48s);
  EXPECT_EQ(want.boot.rotating_48s, got.boot.rotating_48s);
  // ...every rotation verdict...
  ASSERT_EQ(want.boot.verdicts.size(), got.boot.verdicts.size());
  for (std::size_t i = 0; i < want.boot.verdicts.size(); ++i) {
    EXPECT_EQ(want.boot.verdicts[i].prefix, got.boot.verdicts[i].prefix);
    EXPECT_EQ(want.boot.verdicts[i].rotating, got.boot.verdicts[i].rotating);
    EXPECT_EQ(want.boot.verdicts[i].eui_targets,
              got.boot.verdicts[i].eui_targets);
    EXPECT_EQ(want.boot.verdicts[i].changed, got.boot.verdicts[i].changed);
  }
  // ...the funnel accounting...
  EXPECT_EQ(want.boot.probes_sent, got.boot.probes_sent);
  EXPECT_EQ(want.boot.total_addresses, got.boot.total_addresses);
  EXPECT_EQ(want.boot.eui64_addresses, got.boot.eui64_addresses);
  EXPECT_EQ(want.boot.unique_iids, got.boot.unique_iids);
  // ...and the observation corpus itself, byte for byte.
  expect_same_corpus(want.boot.observations, got.boot.observations);

  // Campaign: daily funnel, inferred allocations, corpus.
  EXPECT_EQ(want.campaign.probes_sent, got.campaign.probes_sent);
  EXPECT_EQ(want.campaign.responses, got.campaign.responses);
  EXPECT_EQ(want.campaign.allocation_length_by_as,
            got.campaign.allocation_length_by_as);
  ASSERT_EQ(want.campaign.daily.size(), got.campaign.daily.size());
  for (std::size_t d = 0; d < want.campaign.daily.size(); ++d) {
    EXPECT_EQ(want.campaign.daily[d].day, got.campaign.daily[d].day);
    EXPECT_EQ(want.campaign.daily[d].probes, got.campaign.daily[d].probes);
    EXPECT_EQ(want.campaign.daily[d].responses,
              got.campaign.daily[d].responses);
    EXPECT_EQ(want.campaign.daily[d].unique_eui64_iids,
              got.campaign.daily[d].unique_eui64_iids);
  }
  expect_same_corpus(want.campaign.observations, got.campaign.observations);

  // The on-disk snapshot chain + manifest: byte-identical, file by file
  // (v2 block compression fans across the same thread count).
  expect_same_chain(want.chain, got.chain);
}

TEST(EngineEquivalence, ParallelPipelineIsBitIdenticalToSerial) {
  const std::vector<std::uint64_t> seeds =
      kTsan ? std::vector<std::uint64_t>{0x11}
            : std::vector<std::uint64_t>{0x11, 0x22, 0x33};
  const std::vector<unsigned> thread_counts =
      kTsan ? std::vector<unsigned>{2, 8}
            : std::vector<unsigned>{1, 2, 4, 8};

  for (const Scenario scenario : {Scenario::kPaperWorld, Scenario::kChurn}) {
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE(testing::Message()
                   << scenario_name(scenario) << " seed=0x" << std::hex
                   << seed);
      const PipelineRun reference = run_pipeline(scenario, seed, 1);
      // The reference must itself be nontrivial, or equivalence is vacuous.
      ASSERT_FALSE(reference.boot.rotating_48s.empty());
      ASSERT_GT(reference.campaign.observations.size(), 0u);
      ASSERT_FALSE(reference.chain.names.empty());

      for (const unsigned threads : thread_counts) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        const PipelineRun parallel = run_pipeline(scenario, seed, threads);
        expect_same_run(reference, parallel);
      }
    }
  }
}

TEST(EngineEquivalence, HardwareThreadCountAlsoMatches) {
  // threads=0 resolves to hardware concurrency — whatever this host has
  // must land on the same corpus too.
  const PipelineRun reference =
      run_pipeline(Scenario::kChurn, 0x44, 1);
  const PipelineRun hardware =
      run_pipeline(Scenario::kChurn, 0x44, 0);
  expect_same_run(reference, hardware);
}

TEST(EngineEquivalence, MidDayAbortResumesBitIdentically) {
  // Abort a checkpointed campaign from its progress hook on day 1 — the
  // day's rows are merged but nothing about the day is committed yet —
  // resume from the surviving chain at another thread count, and demand
  // the final corpus + chain match an uninterrupted run. The §5f
  // contract's mid-day half: a partially swept day leaves no trace.
  const std::uint64_t seed = 0x77;
  const unsigned threads = kTsan ? 2 : 4;

  struct MidDayAbort : std::runtime_error {
    MidDayAbort() : std::runtime_error{"mid-day abort"} {}
  };

  TempDir dir{"abort"};
  std::vector<net::Prefix> targets;
  {
    sim::Internet world = make_world(Scenario::kChurn, seed);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world, clock, fast_prober_options()};
    const auto booted = core::run_bootstrap(
        world, clock, prober, bootstrap_options(seed, threads));
    targets = booted.rotating_48s;
    ASSERT_FALSE(targets.empty());

    // The campaign's absolute day index depends on how far bootstrap
    // advanced the clock; abort relative to the first day seen.
    core::CampaignOptions abort_options =
        campaign_options(seed, threads, dir.path);
    std::int64_t first_seen = -1;
    abort_options.on_day_progress = [&first_seen](std::int64_t day,
                                                  std::size_t rows) {
      if (first_seen < 0) first_seen = day;
      if (day > first_seen && rows > 0) throw MidDayAbort{};
    };
    EXPECT_THROW(
        core::run_campaign(world, clock, prober, targets, abort_options),
        MidDayAbort);
  }
  // Day 0 committed before the abort; day 1 must not have.
  ASSERT_TRUE(std::filesystem::exists(dir.path + "/day_0000.snap"));
  ASSERT_FALSE(std::filesystem::exists(dir.path + "/day_0001.snap"));

  // Resume in a fresh process-equivalent: new world, new clock, same dir.
  core::CampaignResult resumed;
  {
    sim::Internet world = make_world(Scenario::kChurn, seed);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world, clock, fast_prober_options()};
    const auto booted = core::run_bootstrap(
        world, clock, prober, bootstrap_options(seed, threads));
    ASSERT_EQ(booted.rotating_48s, targets);
    resumed = core::run_campaign(world, clock, prober, targets,
                                 campaign_options(seed, 1, dir.path));
  }
  EXPECT_EQ(resumed.resumed_days, 1u);

  // Uninterrupted reference, own directory. Its progress hook must fire
  // exactly once per day, right after the merge, with the day's rows.
  TempDir whole_dir{"whole"};
  core::CampaignResult whole;
  std::vector<std::size_t> progress_rows;
  {
    sim::Internet world = make_world(Scenario::kChurn, seed);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world, clock, fast_prober_options()};
    (void)core::run_bootstrap(world, clock, prober,
                              bootstrap_options(seed, threads));
    core::CampaignOptions whole_options =
        campaign_options(seed, threads, whole_dir.path);
    whole_options.on_day_progress = [&](std::int64_t, std::size_t rows) {
      progress_rows.push_back(rows);
    };
    whole = core::run_campaign(world, clock, prober, targets, whole_options);
  }
  ASSERT_EQ(progress_rows.size(), whole.daily.size());
  std::size_t rows_seen = 0;
  for (const std::size_t rows : progress_rows) rows_seen += rows;
  EXPECT_EQ(rows_seen, whole.observations.size());

  expect_same_corpus(whole.observations, resumed.observations);
  EXPECT_EQ(whole.allocation_length_by_as, resumed.allocation_length_by_as);
  ASSERT_EQ(whole.daily.size(), resumed.daily.size());
  for (std::size_t d = 0; d < whole.daily.size(); ++d) {
    EXPECT_EQ(whole.daily[d].probes, resumed.daily[d].probes);
    EXPECT_EQ(whole.daily[d].unique_eui64_iids,
              resumed.daily[d].unique_eui64_iids);
  }
  expect_same_chain(read_chain(whole_dir.path), read_chain(dir.path));
}

/// The whole-window oracle: one fused analysis pass materializes both
/// §4.3 snapshots from the bootstrap's rotation-stage rows, and a single
/// global detect_rotation groups every target by its covering /48.
std::vector<core::RotationVerdict> whole_window_verdicts(
    const core::BootstrapResult& boot) {
  analysis::AnalysisOptions options;
  options.attribute = false;
  options.collect_sightings = false;
  for (const auto& rows : boot.snapshot_rows) {
    options.windows.push_back(analysis::RowWindow{rows.begin, rows.end});
  }
  const analysis::AggregateTable table =
      analysis::analyze(boot.observations, nullptr, options);
  return core::detect_rotation(table.window_snapshots[0],
                               table.window_snapshots[1]);
}

TEST(EngineRotationStage, PerUnitVerdictsMatchWholeWindowOracle) {
  const std::vector<std::uint64_t> seeds =
      kTsan ? std::vector<std::uint64_t>{0x11}
            : std::vector<std::uint64_t>{0x11, 0x22, 0x33};
  struct Shards {
    unsigned threads;
    bool oversubscribe;
  };
  const std::vector<Shards> shard_configs =
      kTsan ? std::vector<Shards>{{4, true}}
            : std::vector<Shards>{{1, false}, {4, true}, {8, true},
                                  {8, false}};

  for (const Scenario scenario : {Scenario::kPaperWorld, Scenario::kChurn}) {
    for (const std::uint64_t seed : seeds) {
      for (const Shards shards : shard_configs) {
        SCOPED_TRACE(testing::Message()
                     << scenario_name(scenario) << " seed=0x" << std::hex
                     << seed << std::dec << " threads=" << shards.threads
                     << " oversubscribe=" << shards.oversubscribe);
        sim::Internet internet = make_world(scenario, seed);
        sim::VirtualClock clock{sim::hours(10)};
        probe::Prober prober{internet, clock, fast_prober_options()};
        core::BootstrapOptions options =
            bootstrap_options(seed, shards.threads);
        options.oversubscribe = shards.oversubscribe;
        const core::BootstrapResult boot =
            core::run_bootstrap(internet, clock, prober, options);

        // The snapshot rows are the last two sweeps, back to back, a day
        // apart.
        const auto& [first, second] = boot.snapshot_rows;
        ASSERT_LT(first.begin, first.end);
        ASSERT_EQ(first.end, second.begin);
        ASSERT_LT(second.begin, second.end);
        ASSERT_EQ(second.end, boot.observations.size());
        EXPECT_GE(boot.observations.time(second.begin),
                  boot.observations.time(first.begin) + options.snapshot_gap);

        const auto want = whole_window_verdicts(boot);
        ASSERT_FALSE(want.empty());
        ASSERT_EQ(boot.verdicts.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          SCOPED_TRACE(testing::Message() << "verdict " << i);
          EXPECT_EQ(boot.verdicts[i].prefix, want[i].prefix);
          EXPECT_EQ(boot.verdicts[i].eui_targets, want[i].eui_targets);
          EXPECT_EQ(boot.verdicts[i].changed, want[i].changed);
          EXPECT_EQ(boot.verdicts[i].rotating, want[i].rotating);
        }
      }
    }
  }
}

}  // namespace
}  // namespace scent
