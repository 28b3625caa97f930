#include "engine/executor.h"

#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "engine/parallel.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"
#include "trace/recorder.h"

namespace scent::engine {

unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SweepPlan::SweepPlan(std::span<const SweepUnit> units,
                     const probe::ProberOptions& prober_options,
                     sim::TimePoint start, unsigned shard_count)
    : start_(start) {
  gap_ = prober_options.packets_per_second == 0
             ? 0
             : sim::kSecond / static_cast<sim::Duration>(
                                  prober_options.packets_per_second);

  cumulative_.reserve(units.size() + 1);
  cumulative_.push_back(0);
  for (const auto& unit : units) {
    cumulative_.push_back(
        cumulative_.back() +
        probe::SubnetTargets{unit.prefix, unit.sub_length, unit.seed}.size());
  }

  // Contiguous partition, balanced by probe count: unit k goes to the
  // shard its starting probe offset falls into. Monotone in k, so each
  // shard owns a contiguous range and shard order == unit order.
  if (shard_count == 0) shard_count = 1;
  shard_begin_.assign(shard_count + 1, units.size());
  const std::uint64_t total = total_probes();
  std::size_t k = 0;
  for (unsigned s = 0; s < shard_count; ++s) {
    shard_begin_[s] = k;
    if (total == 0) continue;  // degenerate: everything lands in shard 0
    // Extend shard s while unit k's starting offset is inside its slice
    // [total*s/N, total*(s+1)/N).
    const std::uint64_t slice_end =
        total * static_cast<std::uint64_t>(s + 1) / shard_count;
    while (k < units.size() && cumulative_[k] < slice_end) ++k;
  }
  if (total == 0) shard_begin_[0] = 0;
  shard_begin_[shard_count] = units.size();
}

namespace {

/// The sharded sweep in three steps: construction resolves the shard
/// count and precomputes the plan, run_shard(s) executes one shard's units
/// (thread-safe across distinct shards — each call owns only shard-local
/// state), and finish() performs the deterministic shard-order merge and
/// advances the caller's clock.
class ShardedSweep {
 public:
  ShardedSweep(sim::Internet& internet, sim::VirtualClock& clock,
               std::span<const SweepUnit> units,
               const probe::ProberOptions& prober_options,
               const SweepOptions& options)
      : internet_(internet),
        clock_(clock),
        units_(units),
        prober_options_(prober_options),
        options_(options),
        plan_(units, prober_options, clock.now(),
              effective_threads(options.threads, options.oversubscribe)),
        shards_(plan_.shard_count()) {
    report_.threads_used = plan_.shard_count();
    report_.start = plan_.start();
    report_.units.resize(units.size());
    if (options_.trace != nullptr) {
      for (auto& shard : shards_) {
        shard.recorder = std::make_unique<trace::TraceRecorder>(
            options_.trace->recorder_capacity());
      }
    }
  }

  ShardedSweep(const ShardedSweep&) = delete;
  ShardedSweep& operator=(const ShardedSweep&) = delete;

  [[nodiscard]] unsigned threads() const noexcept {
    return plan_.shard_count();
  }

  /// Runs shard `s`'s units at their precomputed serial start times,
  /// streaming results into `sink` (may be null). Call at most once per
  /// shard; calls for distinct shards may run concurrently.
  void run_shard(unsigned s, UnitSink* sink);

  /// Shard-order merge: counters, net stats, shard registries, "sweep
  /// shard s" trace lanes — then advances the clock to the schedule end.
  /// Call once, after every run_shard call has returned.
  [[nodiscard]] SweepReport finish();

 private:
  /// Everything one worker owns; kept alive until the finish() merge.
  struct ShardState {
    probe::Prober::Counters counters;
    sim::Internet::Stats stats;
    telemetry::Registry registry;
    std::unique_ptr<trace::TraceRecorder> recorder;  ///< Only when tracing.
  };

  sim::Internet& internet_;
  sim::VirtualClock& clock_;
  std::span<const SweepUnit> units_;
  const probe::ProberOptions& prober_options_;
  const SweepOptions& options_;
  SweepPlan plan_;
  SweepReport report_;
  std::vector<ShardState> shards_;
};

void ShardedSweep::run_shard(unsigned s, UnitSink* sink) {
  ShardState& state = shards_[s];
  sim::VirtualClock shard_clock{plan_.start()};
  trace::TraceRecorder* recorder = state.recorder.get();
  if (recorder != nullptr) recorder->set_clock(&shard_clock);
  probe::Prober prober{internet_, shard_clock, prober_options_};
  // Per-shard derived stream: distinct wire sequence numbers per shard
  // (marks packets, never results — the determinism contract holds).
  prober.seed_sequence(
      static_cast<std::uint16_t>(sim::mix64(options_.seed, s)));
  if (options_.merge_registry != nullptr) {
    prober.attach_telemetry(state.registry);
  }
  sim::NetContext net_ctx;
  prober.set_net_context(&net_ctx);

  for (std::size_t k = plan_.shard_first(s); k < plan_.shard_last(s); ++k) {
    // Replay the serial schedule: jump to exactly where a
    // single-threaded run's clock would stand at this unit.
    shard_clock.advance_to(plan_.unit_start(k));
    // Fresh response-policy state per unit: the unit's results depend
    // only on (world, unit, start time, prober options), never on which
    // units ran before it on this shard.
    net_ctx.response.reset();

    const probe::Prober::Counters before = prober.counters();
    if (recorder != nullptr) recorder->begin("sweep.unit");
    if (sink != nullptr) sink->on_unit_begin(k);
    prober.sweep_subnets(
        units_[k].prefix, units_[k].sub_length, units_[k].seed,
        [&](std::span<const probe::ProbeResult> batch) {
          if (sink != nullptr) sink->on_results(k, batch);
        });
    if (sink != nullptr) sink->on_unit_end(k);
    if (recorder != nullptr) {
      recorder->end("sweep.unit");
      recorder->counter("sweep.responses",
                        static_cast<std::int64_t>(
                            prober.counters().received - before.received));
    }

    UnitOutcome& outcome = report_.units[k];
    outcome.sent = prober.counters().sent - before.sent;
    outcome.responded = prober.counters().received - before.received;
    outcome.shard = s;
    outcome.start = plan_.unit_start(k);
  }

  state.counters = prober.counters();
  state.stats = net_ctx.stats;
}

SweepReport ShardedSweep::finish() {
  // Deterministic merge, shard order == unit order == serial order.
  for (unsigned s = 0; s < plan_.shard_count(); ++s) {
    report_.counters.sent += shards_[s].counters.sent;
    report_.counters.received += shards_[s].counters.received;
    report_.net_stats.merge(shards_[s].stats);
    if (options_.merge_registry != nullptr) {
      options_.merge_registry->merge_counters_from(shards_[s].registry);
    }
    if (options_.trace != nullptr) {
      char lane[32];
      std::snprintf(lane, sizeof lane, "sweep shard %u", s);
      options_.trace->drain(lane, *shards_[s].recorder);
    }
  }
  internet_.absorb_stats(report_.net_stats);

  clock_.advance_to(plan_.end_time());
  report_.end = clock_.now();
  return std::move(report_);
}

}  // namespace

SweepReport run_sharded_sweep(
    sim::Internet& internet, sim::VirtualClock& clock,
    std::span<const SweepUnit> units,
    const probe::ProberOptions& prober_options, const SweepOptions& options,
    const std::function<UnitSink*(unsigned shard)>& sink_for_shard) {
  ShardedSweep sweep{internet, clock, units, prober_options, options};
  const unsigned threads = sweep.threads();

  std::vector<UnitSink*> sinks(threads, nullptr);
  for (unsigned s = 0; s < threads; ++s) sinks[s] = sink_for_shard(s);

  // One worker per shard; a single shard runs inline on the calling
  // thread (the serial fallback — no spawn/join overhead when the clamp
  // or the request leaves us with one effective worker).
  run_shards(threads,
             [&sweep, &sinks](unsigned s) { sweep.run_shard(s, sinks[s]); });

  return sweep.finish();
}

}  // namespace scent::engine
