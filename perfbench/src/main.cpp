// main.cpp - the scent end-to-end benchmark harness.
//
//   scent_perfbench --workload {discover|campaign|replay} --seed N
//                   --seconds S --trace {0|1} --workdir DIR
//                   [--trace-out FILE] [--threads N]
//   scent_perfbench --list-layers
//
// Runs closed-loop iterations of one workload for about S seconds: one
// unmeasured warm-up, then whole cycles over four sub-seeds derived from
// N. Every iteration builds its own world and inputs (timed as set-up),
// runs the timed interval, and checks the outputs against their oracles
// outside it; all iterations of one sub-seed must agree on the output
// digest. The first stdout line records the run; the last is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics as medians over iterations; traced runs
// alternate untraced and traced iterations and report the per-layer
// metrics (medians over the traced ones) plus the tracing overhead. The
// exit status is nonzero when any oracle failed. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "sim/rng.h"
#include "trace/chrome_export.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Sub-seeds a run derives from --seed. Iterations cycle through them, so
/// each run's medians cover several inputs, not one.
constexpr std::uint64_t kSubSeeds = 4;
/// Measured iterations at least (the warm-up iteration comes on top).
constexpr std::size_t kMinIterations = kSubSeeds;
constexpr std::size_t kMinTracedIterations = 4;  ///< Two of each kind.
constexpr std::size_t kMaxIterations = 64;

int usage() {
  std::fprintf(stderr,
               "usage: scent_perfbench --workload {discover|campaign|replay} "
               "--seed N --seconds S --trace {0|1} --workdir DIR "
               "[--trace-out FILE] [--threads N] | --list-layers\n");
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_layers() {
  for (const auto& spec : layer_specs()) {
    std::printf("%s\t%s\t%s\n", spec.name, spec.unit, spec.better);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-layers") {
      print_layers();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--threads") {
      config.nproc = std::max(1ul, std::strtoul(value, nullptr, 10));
    } else {
      return usage();
    }
  }
  IterationResult (*workload)(IterationContext&) = nullptr;
  if (config.workload == "discover") workload = run_discover;
  if (config.workload == "campaign") workload = run_campaign;
  if (config.workload == "replay") workload = run_replay;
  if (workload == nullptr || config.workdir.empty()) return usage();
  std::error_code ec;
  if (!std::filesystem::is_directory(config.workdir, ec) ||
      !std::filesystem::is_empty(config.workdir, ec)) {
    std::fprintf(stderr, "error: --workdir must be an existing empty dir\n");
    return 2;
  }

  // Run record: what produced these numbers.
  std::printf("{\"run\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"threads\": %u, "
              "\"nproc\": %u, \"build_type\": \"%s\"}}\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              json_number(config.seconds).c_str(), config.trace ? 1 : 0,
              config.nproc, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  // The traced run counts allocations in every iteration, traced or not,
  // so the two halves of its overhead comparison pay the same cost.
  set_alloc_counting(config.trace);

  Verdict verdict;
  std::vector<IterationResult> plain;
  std::vector<IterationResult> traced;
  std::map<std::uint64_t, std::uint64_t> digest_of_seed;
  // A cycle gives every sub-seed one iteration (one untraced + traced pair
  // in a traced run); runs end on a cycle boundary.
  const std::size_t cycle = config.trace ? 2 : kSubSeeds;
  const double start = wall_now();
  for (std::size_t i = 0; i < kMaxIterations; ++i) {
    // Iteration 0 warms caches and lazy set-up and is checked but not
    // measured; a traced run then alternates untraced and traced ones,
    // each pair on one sub-seed.
    const bool warmup = i == 0;
    const bool with_trace = config.trace && !warmup && i % 2 == 0;
    const std::size_t slot = warmup ? 0 : (i - 1) / (config.trace ? 2 : 1);
    Config iteration_config = config;
    iteration_config.seed = sim::mix64(config.seed, slot % kSubSeeds);
    const std::string dir = config.workdir + "/iter_" + std::to_string(i);
    std::filesystem::create_directories(dir, ec);
    telemetry::Registry registry;
    trace::TraceCollector collector;
    IterationContext ctx{iteration_config, dir,
                         with_trace ? &registry : nullptr,
                         with_trace ? &collector : nullptr, verdict};
    reset_peak_rss();
    const double iteration_start = wall_now();
    IterationResult result = workload(ctx);
    const double iteration_s = wall_now() - iteration_start;
    const double iteration_rss_mb = peak_rss_mb();
    remove_tree(dir);

    // Every iteration of one sub-seed, traced or not, must agree.
    const auto [known, fresh] =
        digest_of_seed.try_emplace(iteration_config.seed, result.digest);
    verdict.check(fresh || known->second == result.digest,
                  "iteration " + std::to_string(i) +
                      " output digest differs from an earlier iteration of "
                      "the same seed");
    if (with_trace && !config.trace_out.empty()) {
      verdict.check(trace::write_chrome_trace(config.trace_out, collector),
                    "chrome trace written to " + config.trace_out);
    }
    std::fprintf(stderr,
                 "iteration %zu%s: setup %.3f s, wall %.3f s, cpu %.3f s, "
                 "work %.0f\n",
                 i, warmup ? " (warm-up)" : with_trace ? " (traced)" : "",
                 result.setup_s, result.wall_s, result.cpu_s, result.work);
    if (warmup) continue;
    result.peak_rss_mb = iteration_rss_mb;
    (with_trace ? traced : plain).push_back(std::move(result));

    // Stop on a cycle boundary once the minimum is met and either the time
    // is up or another cycle would overrun it by more than a quarter.
    const std::size_t done = plain.size() + traced.size();
    const std::size_t needed =
        config.trace ? kMinTracedIterations : kMinIterations;
    const double elapsed = wall_now() - start;
    if (done >= needed && done % cycle == 0 &&
        (elapsed >= config.seconds ||
         elapsed + iteration_s * static_cast<double>(cycle) >
             1.25 * config.seconds)) {
      break;
    }
  }

  const auto collect = [](const std::vector<IterationResult>& runs,
                          auto field) {
    std::vector<double> values;
    for (const auto& r : runs) values.push_back(field(r));
    return median(values);
  };
  Metrics metrics;
  if (!config.trace) {
    metrics.set("setup_s",
                collect(plain, [](const auto& r) { return r.setup_s; }), "s");
    metrics.set("wall_s",
                collect(plain, [](const auto& r) { return r.wall_s; }), "s");
    metrics.set("cpu_s", collect(plain, [](const auto& r) { return r.cpu_s; }),
                "s");
    metrics.set("work_per_s",
                collect(plain,
                        [](const auto& r) { return r.work / r.wall_s; }),
                "1/s");
    metrics.set("peak_rss_mb",
                collect(plain, [](const auto& r) { return r.peak_rss_mb; }),
                "MB");
  } else {
    for (const auto& spec : layer_specs()) {
      std::vector<double> values;
      for (const auto& r : traced) {
        const auto it = r.layers.values().find(spec.name);
        values.push_back(it == r.layers.values().end() ? 0.0
                                                       : it->second.value);
      }
      metrics.set(spec.name, median(values), spec.unit);
    }
    const double plain_wall =
        collect(plain, [](const auto& r) { return r.wall_s; });
    const double traced_wall =
        collect(traced, [](const auto& r) { return r.wall_s; });
    metrics.set("trace.overhead_pct",
                plain_wall > 0 ? (traced_wall / plain_wall - 1.0) * 100.0 : 0,
                "%");
  }

  std::string json = "{\"correct\": ";
  json += verdict.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdict.attempted());
  json += ", \"failed\": " + std::to_string(verdict.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.values()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(value.value) +
            ", \"unit\": \"" + value.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return verdict.failed() == 0 ? 0 : 1;
}
