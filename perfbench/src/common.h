// common.h - the pieces the three workloads share: seeded worlds and
// targets, output digests, the derive.h query mix, layer unit costs on a
// workload's own inputs, and registry readers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/aggregate.h"
#include "harness.h"
#include "netbase/ipv6_address.h"
#include "netbase/mac_address.h"
#include "netbase/prefix.h"
#include "serve/serve_table.h"
#include "sim/internet.h"
#include "sim/scenario.h"
#include "telemetry/metrics.h"
#include "trace/recorder.h"

namespace perfbench {

using namespace scent;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned nproc = 1;
  std::string workdir;    ///< Fresh, empty directory owned by this run.
  std::string trace_out;  ///< Chrome trace JSON path (traced runs).
};

/// Everything one iteration hands back to the harness loop.
struct IterationResult {
  double setup_s = 0;  ///< World build + input generation.
  double wall_s = 0;   ///< The timed interval.
  double cpu_s = 0;    ///< Process CPU over the timed interval.
  double work = 0;     ///< Work units done in the interval (probes or rows).
  double peak_rss_mb = 0;  ///< Process peak RSS during the iteration.
  /// Digest of the workload's deterministic output; every iteration of one
  /// seed, traced or not, must produce the same value.
  std::uint64_t digest = 0;
  Metrics layers;  ///< Per-layer metrics (traced iterations only).
};

/// Per-iteration inputs from the harness loop.
struct IterationContext {
  const Config& config;
  std::string dir;  ///< Fresh directory for this iteration's files.
  telemetry::Registry* registry = nullptr;  ///< Non-null when traced.
  trace::TraceCollector* trace = nullptr;   ///< Non-null when traced.
  Verdict& verdict;
};

// --- Worlds and inputs -------------------------------------------------

/// The paper world every workload measures. Its topology is fixed, like
/// the one Internet the paper measured; the run seed varies the
/// measurement's own choices instead (probe targets and order, campaign
/// targets, tracked devices, the geo feed), so every seed does the same
/// amount of work and seeds differ only in what they touch.
[[nodiscard]] sim::PaperWorld build_world();

/// First virtual instant of every workload's clock.
constexpr sim::TimePoint kStartTime = sim::hours(10);

/// A seeded draw of `count` of the world's ground-truth rotating /48s,
/// stratified by allocation size and population so every seed sweeps the
/// same mix of coarse and fine, sparse and dense /48s. Sorted.
[[nodiscard]] std::vector<net::Prefix> draw_rotating_48s(
    const sim::Internet& internet, std::size_t count, std::uint64_t seed);

/// Ground truth, per target: the EUI-64 device MACs whose pool overlaps
/// it, excluding MACs the world gives to more than one device. Sorted.
[[nodiscard]] std::vector<std::vector<net::MacAddress>> device_macs_by_target(
    const sim::Internet& internet, const std::vector<net::Prefix>& targets);

/// The sorted, de-duplicated union of per-target MAC lists.
[[nodiscard]] std::vector<net::MacAddress> flatten(
    const std::vector<std::vector<net::MacAddress>>& by_target);

/// Order-sensitive digest of every field a reader of the table can see.
[[nodiscard]] std::uint64_t table_digest(const analysis::AggregateTable& t);

// --- The derive.h query mix ------------------------------------------

/// One query from the fixed mix, pin included: allocation_median,
/// pool_median, pool_length_for + pool_for, sightings_of — rotating
/// through `macs` for the per-device kinds. Returns false when no version
/// was published.
bool run_query(const serve::ServeTable& table,
               const std::vector<net::MacAddress>& macs, std::uint64_t i);

// --- Layer unit costs on the workload's own inputs ------------------------

/// Times target generation, sim delivery, the fast probe loop and wire
/// build+parse over targets drawn from `sample_48s`, and cold/memoized BGP
/// attribution over `responses`; records probe.targetgen_ns, sim.deliver_ns,
/// probe.loop_ns, wire.build_parse_ns, routing.attribute_ns_cold,
/// routing.attribute_ns_memo and routing.memo_hit_ratio. Returns whether
/// every stage did real work: the sim and the prober got replies, every
/// packet parsed back, and some response was attributed.
[[nodiscard]] bool sample_unit_costs(
    sim::Internet& internet, const std::vector<net::Prefix>& sample_48s,
    std::span<const net::Ipv6Address> responses, std::uint64_t seed,
    Metrics& out);

// --- Registry readers --------------------------------------------------

/// Total wall seconds of every span whose path ends in `suffix`.
[[nodiscard]] double span_s(const telemetry::Registry& registry,
                            std::string_view suffix);
[[nodiscard]] double counter_value(const telemetry::Registry& registry,
                                   std::string_view name);
[[nodiscard]] double gauge_value(const telemetry::Registry& registry,
                                 std::string_view name);
/// Sketch quantile and sum in raw units (ns for *_ns sketches).
[[nodiscard]] double sketch_quantile(const telemetry::Registry& registry,
                                     std::string_view name, double q);
[[nodiscard]] double sketch_sum(const telemetry::Registry& registry,
                                std::string_view name);

/// Per-layer metric names every traced run reports, with units, in the
/// order BENCHMARK.json lists them. Layers a workload does not reach report
/// 0, which is the claim "this layer does no work here".
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* better;
};
[[nodiscard]] const std::vector<LayerSpec>& layer_specs();

}  // namespace perfbench
