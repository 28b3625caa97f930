#include "core/rotation_detector.h"

#include <algorithm>

#include "corpus/snapshot.h"

namespace scent::core {
namespace {

/// Accumulate on the pre-masked upper-64 /48 bits — one mask per target
/// instead of constructing (and hashing) a Prefix value per lookup. The
/// Prefix is materialized only when verdicts are emitted.
using Per48 = container::FlatMap<std::uint64_t, RotationCounts>;

constexpr std::uint64_t kMask48 = 0xffffffffffff0000ULL;

/// The §4.3 counting rule, first half: a target EUI-responsive in the
/// first snapshot counts once, and as changed unless the second snapshot
/// holds the same pair.
void count_first(RotationCounts& c, const Snapshot& second,
                 net::Ipv6Address target, net::Ipv6Address response) {
  ++c.eui_targets;
  const auto it = second.map().find(target);
  if (it == second.map().end() || it->second != response) ++c.changed;
}

/// Second half: a target that appeared only in the second snapshot counts
/// once, as churn.
void count_appeared(RotationCounts& c) {
  ++c.eui_targets;
  ++c.changed;
}

/// Both halves over two in-memory snapshots; `counts_for(target)` names the
/// tallies a target feeds.
template <typename CountsFor>
void tally(const Snapshot& first, const Snapshot& second,
           CountsFor&& counts_for) {
  for (const auto& [target, response] : first.map()) {
    count_first(counts_for(target), second, target, response);
  }
  for (const auto& [target, response] : second.map()) {
    if (!first.map().contains(target)) count_appeared(counts_for(target));
  }
}

/// Shared verdict emission: sorts by prefix (robust to the accumulation
/// order, which differs between the full and incremental paths only in
/// principle) and feeds the rotation telemetry.
std::vector<RotationVerdict> emit_verdicts(const Per48& per_48,
                                           std::uint64_t churn_threshold,
                                           telemetry::Registry* registry) {
  std::vector<RotationVerdict> verdicts;
  verdicts.reserve(per_48.size());
  for (const auto& [net48, counts] : per_48) {
    verdicts.push_back(rotation_verdict(
        net::Prefix{net::Ipv6Address{net48, 0}, 48}, counts,
        churn_threshold));
  }
  std::sort(verdicts.begin(), verdicts.end(),
            [](const RotationVerdict& a, const RotationVerdict& b) {
              return a.prefix < b.prefix;
            });
  record_rotation_telemetry(verdicts, registry);
  return verdicts;
}

}  // namespace

RotationCounts count_rotation(const Snapshot& first, const Snapshot& second) {
  RotationCounts counts;
  tally(first, second,
        [&counts](net::Ipv6Address) -> RotationCounts& { return counts; });
  return counts;
}

RotationVerdict rotation_verdict(net::Prefix prefix, RotationCounts counts,
                                 std::uint64_t churn_threshold) {
  RotationVerdict v;
  v.prefix = prefix;
  v.eui_targets = counts.eui_targets;
  v.changed = counts.changed;
  v.rotating = counts.changed > churn_threshold;
  return v;
}

void record_rotation_telemetry(std::span<const RotationVerdict> verdicts,
                               telemetry::Registry* registry) {
  if (registry == nullptr) return;
  telemetry::Histogram& churn =
      registry->histogram("rotation.churn_pct", {0, 10, 25, 50, 75, 90, 100});
  std::uint64_t rotating = 0;
  for (const auto& v : verdicts) {
    if (v.rotating) ++rotating;
    if (v.eui_targets > 0) churn.observe(100 * v.changed / v.eui_targets);
  }
  registry->counter("rotation.checked_48s").add(verdicts.size());
  registry->counter("rotation.rotating_48s").add(rotating);
}

std::vector<RotationVerdict> detect_rotation(const Snapshot& first,
                                             const Snapshot& second,
                                             std::uint64_t churn_threshold,
                                             telemetry::Registry* registry) {
  Per48 per_48;
  tally(first, second, [&per_48](net::Ipv6Address target) -> RotationCounts& {
    return per_48[target.network() & kMask48];
  });
  return emit_verdicts(per_48, churn_threshold, registry);
}

std::optional<std::vector<RotationVerdict>> detect_rotation_incremental(
    corpus::SnapshotReader& prior, const Snapshot& second,
    std::uint64_t churn_threshold, telemetry::Registry* registry) {
  Per48 per_48;
  // The streamed pass needs the prior day's target set again for the
  // appeared-only-in-second pass; a flat set of addresses is 16 B/target —
  // far below the two-full-stores footprint the incremental mode avoids.
  container::FlatSet<net::Ipv6Address, net::Ipv6AddressHash> prior_targets;
  prior_targets.reserve(
      static_cast<std::size_t>(prior.eui_pair_count()));

  const bool streamed = prior.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        prior_targets.insert(target);
        count_first(per_48[target.network() & kMask48], second, target,
                    response);
      });
  if (!streamed) return std::nullopt;

  for (const auto& [target, response] : second.map()) {
    if (!prior_targets.contains(target)) {
      count_appeared(per_48[target.network() & kMask48]);
    }
  }
  return emit_verdicts(per_48, churn_threshold, registry);
}

}  // namespace scent::core
