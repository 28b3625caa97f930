// discover.cpp - the `discover` workload: the §4 funnel end to end.
//
// Timed: core::run_bootstrap (seed -> expand -> density -> rotation) on a
// freshly built paper world, fast (logical) probe path, every core. The
// probe loop, sim delivery, engine sweeps, ingest and the rotation-stage
// analysis scan do the work; wire, snapshot, serve, join and tracker do
// none.
#include <cstdio>
#include <string>

#include "common.h"
#include "core/bootstrap.h"
#include "probe/prober.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Order-sensitive digest of the rotating-/48 list.
std::uint64_t prefixes_digest(const std::vector<net::Prefix>& prefixes) {
  std::uint64_t d = 0x48D16E57ULL;
  for (const auto& p : prefixes) {
    d = sim::mix64(d, p.base().network(), p.length());
  }
  return sim::mix64(d, prefixes.size());
}

}  // namespace

IterationResult run_discover(IterationContext& ctx) {
  const Config& config = ctx.config;
  IterationResult out;

  const double setup_start = wall_now();
  sim::PaperWorld world = build_world();
  out.setup_s = wall_now() - setup_start;

  sim::VirtualClock clock{kStartTime};
  probe::Prober prober{world.internet, clock,
                       {.packets_per_second = 1000000, .wire_mode = false}};
  core::BootstrapOptions options;
  options.seed = sim::mix64(config.seed, 0xB007);
  // Two probes per /48 (bench_table1_rotators uses 8): with one, the seed
  // stage's recall of sparse /48s swings the high-density set, and with it
  // the rotation stage's cost and Table 1's AS count, from seed to seed.
  options.probes_per_48 = 2;
  options.threads = config.nproc;
  options.registry = ctx.registry;
  options.trace = ctx.trace;
  if (ctx.registry != nullptr) {
    ctx.registry->set_clock(&clock);
    prober.attach_telemetry(*ctx.registry);
  }

  core::BootstrapResult result;
  const Cost cost = measure([&] {
    result = core::run_bootstrap(world.internet, clock, prober, options);
  });
  out.wall_s = cost.wall_s;
  out.cpu_s = cost.cpu_s;
  out.work = static_cast<double>(result.probes_sent);
  out.digest = prefixes_digest(result.rotating_48s);
  std::fprintf(stderr,
               "  funnel: %zu seed /48s, %zu expanded, %zu high-density, "
               "%zu rotating\n",
               result.seed_48s.size(), result.expanded_48s.size(),
               result.high_density_48s.size(), result.rotating_48s.size());

  // Oracles: Table 1's shape.
  Verdict& verdict = ctx.verdict;
  const auto& bgp = world.internet.bgp();
  const auto by_asn = core::rotators_by_asn(result.rotating_48s, bgp);
  const auto by_country = core::rotators_by_country(result.rotating_48s, bgp);
  verdict.check(!by_asn.empty() && by_asn.front().key == "8881",
                "discover: AS8881 tops the rotating-/48 ranking (top: AS" +
                    (by_asn.empty() ? std::string{"-"} : by_asn.front().key) +
                    ")");
  verdict.check(!by_country.empty() && by_country.front().key == "DE",
                "discover: DE tops the per-country ranking");
  verdict.check(by_asn.size() >= 20,
                "discover: >= 20 ASes hold rotating /48s (got " +
                    std::to_string(by_asn.size()) + ")");
  verdict.check(result.eui64_addresses > result.unique_iids,
                "discover: more EUI-64 addresses than unique IIDs");

  if (ctx.registry != nullptr) {
    const telemetry::Registry& reg = *ctx.registry;
    Metrics& m = out.layers;
    m.set("probes_per_s", out.work / out.wall_s, "probes/s");
    m.set("sim.world_build_s", out.setup_s, "s");
    m.set("bootstrap.seed_s", span_s(reg, "bootstrap/seed"), "s");
    m.set("bootstrap.expand_s", span_s(reg, "bootstrap/expand"), "s");
    m.set("bootstrap.density_s", span_s(reg, "bootstrap/density"), "s");
    m.set("bootstrap.rotation_s", span_s(reg, "bootstrap/rotation"), "s");
    m.set("ingest.batch_ns_p50", sketch_quantile(reg, "ingest.batch_ns", 0.5),
          "ns");
    m.set_call("bootstrap", cost);
    const double sent = counter_value(reg, "probe.sent");
    const double received = counter_value(reg, "probe.received");
    m.set("probe.sent", sent, "count");
    m.set("probe.received", received, "count");
    m.set("probe.response_ratio", sent > 0 ? received / sent : 0.0, "ratio");
    m.set("probe.wire_drops", counter_value(reg, "probe.wire_drops"), "count");
    m.set("analysis.scan_s", span_s(reg, "analysis.scan"), "s");
    m.set("analysis.rows_scanned", counter_value(reg, "analysis.rows_scanned"),
          "rows");
    m.set("analysis.devices", gauge_value(reg, "analysis.devices"), "count");

    // Unit costs on this workload's own targets (the rotating /48s it
    // found) and responses (its observation corpus).
    ctx.verdict.check(
        sample_unit_costs(world.internet, result.rotating_48s,
                          result.observations.response_column(), config.seed,
                          m),
        "discover: unit-cost sample got replies, parses and attributions");
  }
  return out;
}

}  // namespace perfbench
