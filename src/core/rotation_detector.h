// rotation_detector.h - two-snapshot prefix-rotation detection (§4.3).
//
// Scan the same targets, in the same order, 24 hours apart. For every target
// whose response was an EUI-64 address in either snapshot, compare the
// <target, response> pairs: any difference — a different EUI-64, a
// disappearance, or a fresh appearance — marks the target's /48 as
// exhibiting rotation-like churn. The paper deliberately sets no churn
// threshold so gradual or non-uniform rotation still registers; this
// implementation exposes the threshold as a parameter (default 0) so the
// ablation bench can sweep it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "container/flat_hash.h"
#include "netbase/eui64.h"
#include "netbase/ipv6_address.h"
#include "netbase/prefix.h"
#include "telemetry/metrics.h"

namespace scent::corpus {
class SnapshotReader;
}  // namespace scent::corpus

namespace scent::core {

/// A snapshot: target -> EUI-64 response address (non-EUI and silent
/// targets are simply absent). Flat-map backed: iteration is in target
/// first-recording order, i.e. probe order — deterministic.
class Snapshot {
 public:
  using Map = container::FlatMap<net::Ipv6Address, net::Ipv6Address,
                                 net::Ipv6AddressHash>;

  void record(net::Ipv6Address target, net::Ipv6Address response) {
    if (net::is_eui64(response)) map_[target] = response;
  }

  /// Empties the snapshot but keeps its table, so per-unit scratch
  /// snapshots refill without reallocating.
  void clear() noexcept { map_.clear(); }

  [[nodiscard]] const Map& map() const noexcept { return map_; }

 private:
  Map map_;
};

struct RotationVerdict {
  net::Prefix prefix;              ///< The /48 under test.
  std::uint64_t eui_targets = 0;   ///< Targets EUI-responsive in either snap.
  std::uint64_t changed = 0;       ///< Pairs that differ between snaps.
  bool rotating = false;
};

/// One /48's tallies under the §4.3 counting rule.
struct RotationCounts {
  std::uint64_t eui_targets = 0;
  std::uint64_t changed = 0;
};

/// The counting rule over two snapshots whose targets all lie in one /48
/// (one sweep unit's rows per snapshot): every target EUI-responsive in
/// either snapshot counts once, and counts as changed unless both hold the
/// same pair. detect_rotation applies the same rule per covering /48.
[[nodiscard]] RotationCounts count_rotation(const Snapshot& first,
                                            const Snapshot& second);

/// The verdict for one /48's counts: rotating when `changed` exceeds
/// `churn_threshold`.
[[nodiscard]] RotationVerdict rotation_verdict(net::Prefix prefix,
                                               RotationCounts counts,
                                               std::uint64_t churn_threshold);

/// Feeds a finished verdict list into the rotation telemetry: bumps
/// `rotation.checked_48s` / `rotation.rotating_48s` and observes each
/// /48's churn percentage in `rotation.churn_pct`. No-op without a
/// registry.
void record_rotation_telemetry(std::span<const RotationVerdict> verdicts,
                               telemetry::Registry* registry);

/// Compares two snapshots and classifies each /48 (grouping targets by
/// their covering /48), in prefix order. A /48 is flagged when the
/// changed-pair count exceeds `churn_threshold` (paper default: any change
/// at all). With a registry, records the verdicts' rotation telemetry.
[[nodiscard]] std::vector<RotationVerdict> detect_rotation(
    const Snapshot& first, const Snapshot& second,
    std::uint64_t churn_threshold = 0,
    telemetry::Registry* registry = nullptr);

/// Incremental variant for longitudinal campaigns: diffs today's snapshot
/// against the *persisted* prior day, streaming the prior snapshot's
/// deduplicated EUI-pair section (already in Snapshot-map form, recorded at
/// write time) instead of holding two full stores in memory. Verdicts are
/// identical to detect_rotation(prior-day Snapshot, second) — the on-disk
/// pair section has exactly the in-memory Snapshot's semantics. Returns
/// nullopt if the reader fails (unopened file or corrupt section); telemetry
/// is untouched in that case.
[[nodiscard]] std::optional<std::vector<RotationVerdict>>
detect_rotation_incremental(corpus::SnapshotReader& prior,
                            const Snapshot& second,
                            std::uint64_t churn_threshold = 0,
                            telemetry::Registry* registry = nullptr);

}  // namespace scent::core
