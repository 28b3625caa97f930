// Tests for checkpoint/resume campaigns (§5f): a run killed after day K
// and resumed from its checkpoint directory must produce a corpus, result
// and on-disk snapshot chain bit-identical to an uninterrupted run — at
// any thread count, and over v1 days written by an older build — and a
// corrupt or forged chain must be discarded, not trusted.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "corpus/checkpoint.h"
#include "corpus/snapshot.h"
#include "probe/prober.h"
#include "sim/scenario.h"

namespace scent::core {
namespace {

using namespace scent;

struct CampaignFixture {
  sim::PaperWorld world;
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober;
  std::vector<net::Prefix> targets;

  CampaignFixture()
      : world(sim::make_tiny_world(0xCA0, 48)),
        prober(world.internet, clock,
               {.packets_per_second = 1000000, .wire_mode = false}) {
    const auto& pool = world.internet.provider(world.versatel).pools()[0];
    for (std::uint64_t i = 0; i < 4; ++i) {
      targets.push_back(net::Prefix{
          pool.config().prefix.subnet(48, net::Uint128{i}).base(), 48});
    }
  }
};

struct TempDir {
  std::string path;
  explicit TempDir(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_resume_" + tag + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  if (f == nullptr) return bytes;
  unsigned char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

/// Full-result equality: every observation column, the daily funnel, the
/// totals, the frozen allocation inference, and the rebuilt indexes.
void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    ASSERT_EQ(a.observations.target(i), b.observations.target(i)) << i;
    ASSERT_EQ(a.observations.response(i), b.observations.response(i)) << i;
    ASSERT_EQ(a.observations.type_code(i), b.observations.type_code(i)) << i;
    ASSERT_EQ(a.observations.time(i), b.observations.time(i)) << i;
  }
  EXPECT_EQ(a.observations.unique_responses(),
            b.observations.unique_responses());
  EXPECT_EQ(a.observations.unique_eui64_iids(),
            b.observations.unique_eui64_iids());
  EXPECT_EQ(a.observations.by_mac().size(), b.observations.by_mac().size());
  ASSERT_EQ(a.daily.size(), b.daily.size());
  for (std::size_t d = 0; d < a.daily.size(); ++d) {
    EXPECT_EQ(a.daily[d].day, b.daily[d].day);
    EXPECT_EQ(a.daily[d].probes, b.daily[d].probes);
    EXPECT_EQ(a.daily[d].responses, b.daily[d].responses);
    EXPECT_EQ(a.daily[d].unique_eui64_iids, b.daily[d].unique_eui64_iids);
  }
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.allocation_length_by_as, b.allocation_length_by_as);
}

/// The on-disk chains must match byte for byte, snapshots and manifest.
void expect_same_chain(const std::string& dir_a, const std::string& dir_b,
                       unsigned days) {
  for (unsigned d = 0; d < days; ++d) {
    const std::string name = corpus::snapshot_file_name(d);
    EXPECT_EQ(slurp(dir_a + "/" + name), slurp(dir_b + "/" + name)) << name;
  }
  EXPECT_EQ(slurp(corpus::manifest_path(dir_a)),
            slurp(corpus::manifest_path(dir_b)));
}

CampaignResult run(CampaignFixture& f, unsigned days, const std::string& dir,
                   unsigned threads = 1) {
  CampaignOptions options;
  options.days = days;
  options.threads = threads;
  options.checkpoint_dir = dir;
  return run_campaign(f.world.internet, f.clock, f.prober, f.targets,
                      options);
}

TEST(CampaignCheckpoint, ResumeMatchesUninterrupted) {
  TempDir whole{"whole"};
  TempDir split{"split"};

  CampaignFixture uninterrupted;
  const auto expected = run(uninterrupted, 5, whole.path);
  ASSERT_TRUE(expected.checkpoint_ok);
  EXPECT_EQ(expected.resumed_days, 0u);

  // "Kill" after day 2 by running a shorter horizon, then resume with a
  // fresh process-equivalent: new world, new clock, new prober.
  CampaignFixture before_kill;
  const auto partial = run(before_kill, 2, split.path);
  ASSERT_TRUE(partial.checkpoint_ok);

  CampaignFixture resumed;
  const auto result = run(resumed, 5, split.path);
  ASSERT_TRUE(result.checkpoint_ok);
  EXPECT_EQ(result.resumed_days, 2u);
  expect_same_result(expected, result);
  expect_same_chain(whole.path, split.path, 5);
}

TEST(CampaignCheckpoint, ResumeIsThreadCountInvariant) {
  // §5d determinism across process boundaries AND shard counts: a 4-thread
  // resume of a 4-thread partial run must equal a 1-thread uninterrupted
  // campaign, chain included.
  TempDir serial{"serial"};
  TempDir threaded{"threaded"};

  CampaignFixture uninterrupted;
  const auto expected = run(uninterrupted, 4, serial.path, /*threads=*/1);

  CampaignFixture before_kill;
  (void)run(before_kill, 2, threaded.path, /*threads=*/4);
  CampaignFixture resumed;
  const auto result = run(resumed, 4, threaded.path, /*threads=*/4);
  EXPECT_EQ(result.resumed_days, 2u);
  expect_same_result(expected, result);
  expect_same_chain(serial.path, threaded.path, 4);
}

TEST(CampaignCheckpoint, CheckpointingDoesNotPerturbTheResult) {
  TempDir dir{"inert"};
  CampaignFixture plain;
  CampaignOptions options;
  options.days = 3;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);
  CampaignFixture checkpointed;
  const auto result = run(checkpointed, 3, dir.path);
  expect_same_result(expected, result);
}

TEST(CampaignCheckpoint, ShorterHorizonReplaysPrefixWithoutProbing) {
  TempDir dir{"prefix"};
  CampaignFixture longer;
  (void)run(longer, 4, dir.path);

  CampaignFixture plain;
  CampaignOptions options;
  options.days = 2;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);

  CampaignFixture resumed;
  const auto result = run(resumed, 2, dir.path);
  EXPECT_EQ(result.resumed_days, 2u);
  // Everything came from the chain: the prober never went on the wire.
  EXPECT_EQ(resumed.prober.counters().sent, 0u);
  expect_same_result(expected, result);
}

TEST(CampaignCheckpoint, CorruptManifestStartsFresh) {
  TempDir dir{"badmanifest"};
  {
    std::FILE* f =
        std::fopen(corpus::manifest_path(dir.path).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a manifest\n", f);
    std::fclose(f);
  }
  CampaignFixture plain;
  CampaignOptions options;
  options.days = 2;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);

  CampaignFixture fresh;
  const auto result = run(fresh, 2, dir.path);
  EXPECT_EQ(result.resumed_days, 0u);
  ASSERT_TRUE(result.checkpoint_ok);
  expect_same_result(expected, result);
  // The rewritten chain is valid again.
  const auto reloaded = corpus::load_checkpoint(dir.path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->days.size(), 2u);
}

TEST(CampaignCheckpoint, CorruptSnapshotChainStartsFresh) {
  TempDir dir{"badsnap"};
  CampaignFixture first;
  (void)run(first, 2, dir.path);

  // Flip one byte inside day 0's snapshot; the manifest still parses, but
  // replay must reject the chain and start over.
  const std::string day0 = dir.path + "/" + corpus::snapshot_file_name(0);
  {
    std::FILE* f = std::fopen(day0.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    std::fputc(byte ^ 0x10, f);
    std::fclose(f);
  }

  CampaignFixture plain;
  CampaignOptions options;
  options.days = 3;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);

  CampaignFixture fresh;
  const auto result = run(fresh, 3, dir.path);
  EXPECT_EQ(result.resumed_days, 0u);
  expect_same_result(expected, result);
}

TEST(CampaignCheckpoint, DifferentSeedDiscardsTheCheckpoint) {
  TempDir dir{"seed"};
  CampaignFixture first;
  (void)run(first, 2, dir.path);

  CampaignFixture second;
  CampaignOptions options;
  options.days = 2;
  options.seed = 0xD1FF;
  options.checkpoint_dir = dir.path;
  const auto result = run_campaign(second.world.internet, second.clock,
                                   second.prober, second.targets, options);
  EXPECT_EQ(result.resumed_days, 0u);
  EXPECT_EQ(result.daily.size(), 2u);
}

TEST(CampaignCheckpoint, ExtendingACompletedCampaign) {
  // A finished 2-day campaign re-run with days=5 continues from day 2.
  TempDir dir{"extend"};
  TempDir whole{"extend_whole"};
  CampaignFixture uninterrupted;
  const auto expected = run(uninterrupted, 5, whole.path);

  CampaignFixture first;
  (void)run(first, 2, dir.path);
  CampaignFixture extended;
  const auto result = run(extended, 5, dir.path);
  EXPECT_EQ(result.resumed_days, 2u);
  expect_same_result(expected, result);
  expect_same_chain(whole.path, dir.path, 5);
}

TEST(CampaignCheckpoint, ResumesOverCommittedV1Days) {
  // A chain whose days 1 and 2 were written as format v1 by an older
  // build, resumed and extended by the v2-only writer. The committed v1
  // files were generated once from this fixture's campaign and are never
  // regenerated: they pin that the reader still replays v1 days exactly.
  TempDir whole{"v1_whole"};
  TempDir mixed{"v1_mixed"};
  CampaignFixture uninterrupted;
  const auto expected = run(uninterrupted, 5, whole.path);

  CampaignFixture first;
  (void)run(first, 3, mixed.path);
  for (const unsigned day : {1u, 2u}) {
    const std::string name = corpus::snapshot_file_name(day);
    std::filesystem::copy_file(
        std::string{SCENT_TEST_DATA_DIR} + "/campaign_v1_" + name,
        mixed.path + "/" + name,
        std::filesystem::copy_options::overwrite_existing);
  }

  CampaignFixture resumed;
  const auto result = run(resumed, 5, mixed.path);
  EXPECT_EQ(result.resumed_days, 3u);
  expect_same_result(expected, result);
  for (const unsigned day : {0u, 3u, 4u}) {
    const std::string name = corpus::snapshot_file_name(day);
    EXPECT_EQ(slurp(whole.path + "/" + name), slurp(mixed.path + "/" + name))
        << name;
  }
  EXPECT_EQ(slurp(corpus::manifest_path(whole.path)),
            slurp(corpus::manifest_path(mixed.path)));
  for (const unsigned day : {1u, 2u}) {
    corpus::SnapshotReader reader;
    ASSERT_TRUE(reader.open(mixed.path + "/" + corpus::snapshot_file_name(day)))
        << corpus::to_string(reader.error());
    EXPECT_EQ(reader.version(), corpus::kSnapshotFormatV1);
  }
}

TEST(CampaignCheckpoint, DayRecordsMustNameTheirOwnSnapshot) {
  // The manifest is untrusted input. A day record naming any file other
  // than the one the campaign writes for that ordinal — here a valid,
  // row-count-matching snapshot one directory up — or dating it to another
  // day discards the chain instead of resuming from it.
  TempDir outer{"escape"};
  const std::string dir = outer.path + "/chain";
  std::filesystem::create_directories(dir);

  CampaignFixture plain;
  CampaignOptions options;
  options.days = 2;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);

  CampaignFixture first;
  (void)run(first, 2, dir);
  const std::string day0 = corpus::snapshot_file_name(0);
  std::filesystem::rename(dir + "/" + day0, outer.path + "/" + day0);
  auto manifest = corpus::load_checkpoint(dir);
  ASSERT_TRUE(manifest.has_value());
  manifest->days[0].snapshot_file = "../" + day0;
  ASSERT_TRUE(corpus::save_checkpoint(dir, *manifest));

  CampaignFixture escaped;
  const auto from_escape = run(escaped, 2, dir);
  EXPECT_EQ(from_escape.resumed_days, 0u);
  expect_same_result(expected, from_escape);

  // The fresh run rewrote a valid chain; now shift one record's day.
  manifest = corpus::load_checkpoint(dir);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->days.size(), 2u);
  manifest->days[1].day += 5;
  ASSERT_TRUE(corpus::save_checkpoint(dir, *manifest));

  CampaignFixture redated;
  const auto from_redated = run(redated, 2, dir);
  EXPECT_EQ(from_redated.resumed_days, 0u);
  expect_same_result(expected, from_redated);
}

}  // namespace
}  // namespace scent::core
