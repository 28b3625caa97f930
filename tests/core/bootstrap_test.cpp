// Stage-level tests for the §4 funnel beyond the integration suite:
// advertisement filtering, the unique-last-hop filter, traceroute seeding,
// rotator grouping, and the rotation stage's telemetry.
#include "core/bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "netbase/eui64.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/metrics.h"

namespace scent::core {
namespace {

using namespace scent;

/// Small single-rotator world with a /40 advertisement (256 /48s).
sim::PaperWorld one_provider_world(std::uint64_t seed,
                                   unsigned advert_length = 40) {
  sim::WorldBuilder builder{seed};
  sim::PaperWorld world;
  sim::ProviderSpec spec;
  spec.asn = 65001;
  spec.name = "Solo";
  spec.country = "DE";
  spec.advertisement =
      net::Prefix{*net::Ipv6Address::parse("2001:db8::"), advert_length};
  spec.vendors = {{net::Oui{0x3810d5}, 1.0}};
  spec.eui64_fraction = 1.0;
  spec.low_byte_fraction = 0.0;
  spec.silent_fraction = 0.0;
  sim::PoolSpec pool;
  pool.pool_length = 46;
  pool.allocation_length = 56;
  pool.rotation.kind = sim::RotationPolicy::Kind::kStride;
  pool.rotation.stride = 236;
  pool.device_count = 900;
  spec.pools.push_back(pool);
  world.versatel = builder.add_provider(spec);
  world.internet = builder.take();
  return world;
}

probe::ProberOptions fast_opts() {
  probe::ProberOptions o;
  o.wire_mode = false;
  o.packets_per_second = 2000000;
  return o;
}

TEST(Bootstrap, AdvertLengthFilterSkipsBroadPrefixes) {
  // A /24 advertisement must be ignored with the default /32 filter.
  sim::PaperWorld world = one_provider_world(0xB001, 24);
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober{world.internet, clock, fast_opts()};
  const auto result = run_bootstrap(world.internet, clock, prober);
  EXPECT_TRUE(result.seed_48s.empty());
  EXPECT_TRUE(result.rotating_48s.empty());
}

TEST(Bootstrap, MinAdvertLengthOptionWidensScope) {
  sim::PaperWorld world = one_provider_world(0xB001, 24);
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober{world.internet, clock, fast_opts()};
  BootstrapOptions options;
  options.min_advert_length = 24;
  options.probes_per_48 = 4;
  const auto result = run_bootstrap(world.internet, clock, prober, options);
  EXPECT_FALSE(result.seed_48s.empty());
  EXPECT_FALSE(result.rotating_48s.empty());
}

TEST(Bootstrap, TracerouteSeedingMatchesProbeSeeding) {
  // Both stage-0 modes must discover the same /48 set: the traceroute's
  // last hop is the same CPE the single probe elicits.
  sim::PaperWorld world_a = one_provider_world(0xB002);
  sim::PaperWorld world_b = one_provider_world(0xB002);
  sim::VirtualClock clock_a{sim::hours(10)};
  sim::VirtualClock clock_b{sim::hours(10)};
  probe::Prober prober_a{world_a.internet, clock_a, fast_opts()};
  probe::Prober prober_b{world_b.internet, clock_b, fast_opts()};

  BootstrapOptions probe_mode;
  probe_mode.probes_per_48 = 2;
  BootstrapOptions trace_mode = probe_mode;
  trace_mode.seed_with_traceroute = true;

  const auto a = run_bootstrap(world_a.internet, clock_a, prober_a,
                               probe_mode);
  const auto b = run_bootstrap(world_b.internet, clock_b, prober_b,
                               trace_mode);
  EXPECT_EQ(a.seed_48s, b.seed_48s);
  EXPECT_EQ(a.rotating_48s, b.rotating_48s);
  // Traceroute mode costs strictly more packets for the same answer.
  EXPECT_GT(b.probes_sent, a.probes_sent);
}

TEST(Bootstrap, SharedLastHopSuppressesNonCustomer48s) {
  // A provider delegating one /44 to a single site: 16 /48s all answered
  // by the same CPE. The "unique EUI per /48" filter must reject them.
  sim::WorldBuilder builder{0xB003};
  sim::ProviderSpec spec;
  spec.asn = 65002;
  spec.name = "BigSite";
  spec.country = "JP";
  spec.advertisement = *net::Prefix::parse("2001:db9::/40");
  spec.vendors = {{net::Oui{0x344b50}, 1.0}};
  spec.eui64_fraction = 1.0;
  spec.low_byte_fraction = 0.0;
  spec.silent_fraction = 0.0;
  sim::PoolSpec pool;
  pool.pool_length = 44;
  pool.allocation_length = 44;  // the whole pool is one customer
  pool.device_count = 1;
  spec.pools.push_back(pool);
  builder.add_provider(spec);
  sim::Internet internet = builder.take();

  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober{internet, clock, fast_opts()};
  BootstrapOptions options;
  options.probes_per_48 = 2;
  const auto result = run_bootstrap(internet, clock, prober, options);
  // The device responded, but no /48 qualifies as a customer /48.
  EXPECT_GT(result.eui64_addresses, 0u);
  EXPECT_TRUE(result.seed_48s.empty());
}

TEST(Bootstrap, GroupingSortsByCountDescending) {
  routing::BgpTable bgp;
  bgp.announce({*net::Prefix::parse("2001:db8::/32"), 1, "DE", "A"});
  bgp.announce({*net::Prefix::parse("2003::/32"), 2, "GR", "B"});
  std::vector<net::Prefix> rotators = {
      *net::Prefix::parse("2001:db8:1::/48"),
      *net::Prefix::parse("2001:db8:2::/48"),
      *net::Prefix::parse("2003:0:1::/48"),
  };
  const auto by_asn = rotators_by_asn(rotators, bgp);
  ASSERT_EQ(by_asn.size(), 2u);
  EXPECT_EQ(by_asn[0].key, "1");
  EXPECT_EQ(by_asn[0].count, 2u);
  const auto by_country = rotators_by_country(rotators, bgp);
  EXPECT_EQ(by_country[0].key, "DE");
  // Unattributable prefixes are dropped.
  rotators.push_back(*net::Prefix::parse("2a00::/48"));
  EXPECT_EQ(rotators_by_asn(rotators, bgp).size(), 2u);
}

TEST(Bootstrap, FunnelCountersAreMonotone) {
  sim::PaperWorld world = one_provider_world(0xB004);
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober{world.internet, clock, fast_opts()};
  BootstrapOptions options;
  options.probes_per_48 = 4;
  const auto result = run_bootstrap(world.internet, clock, prober, options);
  EXPECT_GE(result.total_addresses, result.eui64_addresses);
  EXPECT_GE(result.eui64_addresses, result.unique_iids);
  // Every rotating /48 came through the high-density stage.
  for (const auto& p48 : result.rotating_48s) {
    EXPECT_TRUE(std::find(result.high_density_48s.begin(),
                          result.high_density_48s.end(),
                          p48) != result.high_density_48s.end());
  }
  // Density partition covers all expanded /48s exactly once.
  EXPECT_EQ(result.expanded_48s.size(),
            result.high_density_48s.size() + result.low_density_48s.size() +
                result.unresponsive_48s.size());
}

/// The single-rotator world plus a static /48 pool (2001:db8:8::/48) of
/// EUI-64 CPEs that all switch to privacy addressing at `upgrade_at` — §8's
/// firmware fix, landing between the density stage and the rotation sweeps.
sim::PaperWorld upgraded_48_world(sim::TimePoint upgrade_at) {
  sim::PaperWorld world = one_provider_world(0xB006);
  sim::Provider& provider = world.internet.provider(world.versatel);
  sim::PoolConfig pool;
  pool.prefix = *net::Prefix::parse("2001:db8:8::/48");
  pool.allocation_length = 56;
  pool.seed = 0xB006;
  const std::size_t pool_index = provider.add_pool(pool);
  sim::RotationPool& upgraded = provider.pools()[pool_index];
  for (std::uint32_t d = 0; d < 200; ++d) {
    sim::CpeDevice device;
    device.id = 100000 + d;
    device.mac = net::MacAddress{0x344b50000000ULL + d};
    device.initial_slot = d;
    device.privacy_upgrade_at = upgrade_at;
    upgraded.add_device(device);
  }
  return world;
}

TEST(Bootstrap, EuiSilentHighDensity48GetsNoVerdict) {
  // A high-density /48 whose CPEs answer both rotation sweeps only from
  // privacy addresses has no EUI-64 target to compare, so it must get no
  // verdict — neither rotating nor stable.
  const net::Prefix silent = *net::Prefix::parse("2001:db8:8::/48");
  probe::ProberOptions opts = fast_opts();
  opts.packets_per_second = 1000000;  // 1us per probe: distinct send times
  BootstrapOptions options;
  options.probes_per_48 = 4;

  // Pilot without the upgrade: the /48 is EUI-responsive and gets a
  // verdict. Its first rotation-sweep row was sent after every earlier
  // stage's probe and no later than any responsive rotation probe, so an
  // upgrade at that instant silences exactly the two rotation sweeps.
  sim::TimePoint upgrade_at = 0;
  {
    sim::PaperWorld world = upgraded_48_world(sim::days(10000));
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world.internet, clock, opts};
    const auto pilot = run_bootstrap(world.internet, clock, prober, options);
    ASSERT_TRUE(std::any_of(
        pilot.verdicts.begin(), pilot.verdicts.end(),
        [&](const RotationVerdict& v) { return v.prefix == silent; }));
    upgrade_at = pilot.observations.time(pilot.snapshot_rows[0].begin);
  }

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    sim::PaperWorld world = upgraded_48_world(upgrade_at);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world.internet, clock, opts};
    options.threads = threads;
    options.oversubscribe = true;
    const auto result = run_bootstrap(world.internet, clock, prober, options);

    EXPECT_TRUE(std::binary_search(result.high_density_48s.begin(),
                                   result.high_density_48s.end(), silent));
    // Both sweeps drew responses inside the /48, none of them EUI-64.
    for (const auto& rows : result.snapshot_rows) {
      std::size_t inside = 0;
      std::size_t eui = 0;
      for (std::size_t i = rows.begin; i < rows.end; ++i) {
        if (!silent.contains(result.observations.target(i))) continue;
        ++inside;
        if (net::is_eui64(result.observations.response(i))) ++eui;
      }
      EXPECT_GT(inside, 0u);
      EXPECT_EQ(eui, 0u);
    }
    EXPECT_FALSE(result.verdicts.empty());
    for (const auto& v : result.verdicts) {
      EXPECT_NE(v.prefix, silent);
      EXPECT_GT(v.eui_targets, 0u);
    }
  }
}

TEST(Bootstrap, RotationTelemetryMatchesVerdicts) {
  // The rotation.* metrics on a bootstrap registry are a pure function of
  // the verdict list, recorded once whatever the shard count.
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    sim::PaperWorld world = one_provider_world(0xB005);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world.internet, clock, fast_opts()};
    telemetry::Registry registry;
    BootstrapOptions options;
    options.probes_per_48 = 4;
    options.threads = threads;
    options.oversubscribe = true;
    options.registry = &registry;
    const auto result = run_bootstrap(world.internet, clock, prober, options);
    ASSERT_FALSE(result.verdicts.empty());

    std::uint64_t rotating = 0;
    telemetry::Histogram churn{{0, 10, 25, 50, 75, 90, 100}};
    for (const auto& v : result.verdicts) {
      if (v.rotating) ++rotating;
      if (v.eui_targets > 0) churn.observe(100 * v.changed / v.eui_targets);
    }
    EXPECT_EQ(rotating, result.rotating_48s.size());

    const telemetry::Counter* checked =
        registry.find_counter("rotation.checked_48s");
    const telemetry::Counter* flagged =
        registry.find_counter("rotation.rotating_48s");
    const telemetry::Histogram* churn_pct =
        registry.find_histogram("rotation.churn_pct");
    ASSERT_NE(checked, nullptr);
    ASSERT_NE(flagged, nullptr);
    ASSERT_NE(churn_pct, nullptr);
    EXPECT_EQ(checked->value(), result.verdicts.size());
    EXPECT_EQ(flagged->value(), rotating);
    EXPECT_EQ(churn_pct->bounds(), churn.bounds());
    EXPECT_EQ(churn_pct->buckets(), churn.buckets());
    EXPECT_EQ(churn_pct->count(), churn.count());
    EXPECT_EQ(churn_pct->sum(), churn.sum());
  }
}

}  // namespace
}  // namespace scent::core
