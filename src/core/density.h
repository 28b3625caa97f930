// density.h - EUI-64 density classification of candidate /48s (§4.2).
//
// The discovery funnel probes one address per /56 of each candidate /48 and
// counts distinct EUI-64 response addresses. Density = unique EUI-64
// responses / probes sent. Prefixes with <= 2 unique responses (< 0.01 of
// 256 probes) are "low density" — typically a /48 delegated whole to one
// site or load-balanced across two interfaces — and are dropped from the
// (expensive) per-/64 rotation probing that follows.
#pragma once

#include <cstdint>

#include "container/flat_hash.h"
#include "core/observation.h"
#include "netbase/eui64.h"
#include "netbase/prefix.h"

namespace scent::core {

enum class DensityClass : std::uint8_t {
  kUnresponsive,  ///< No responses at all.
  kLow,           ///< <= low_threshold unique EUI-64 responders.
  kHigh,          ///< More: worth exhaustive probing.
};

struct DensityResult {
  net::Prefix prefix;
  std::uint64_t probes_sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t unique_eui64 = 0;
  DensityClass klass = DensityClass::kUnresponsive;

  [[nodiscard]] double density() const noexcept {
    return probes_sent == 0
               ? 0.0
               : static_cast<double>(unique_eui64) /
                     static_cast<double>(probes_sent);
  }
};

/// Classifies one candidate prefix from its ingested ObservationStore slice
/// (the sweep stores responsive results only). `probes_sent` is the number
/// of probes the sweep issued into the prefix. Reads only the response
/// column.
[[nodiscard]] inline DensityResult classify_density(
    net::Prefix prefix, std::uint64_t probes_sent,
    ObservationStore::View responsive,
    std::uint64_t low_threshold = 2) {
  DensityResult result;
  result.prefix = prefix;
  result.probes_sent = probes_sent;
  result.responses = responsive.size();
  container::FlatSet<net::Ipv6Address, net::Ipv6AddressHash> eui;
  for (std::size_t i = 0; i < responsive.size(); ++i) {
    const net::Ipv6Address response = responsive.response(i);
    if (net::is_eui64(response)) eui.insert(response);
  }
  result.unique_eui64 = eui.size();
  if (result.responses == 0) {
    result.klass = DensityClass::kUnresponsive;
  } else if (result.unique_eui64 <= low_threshold) {
    result.klass = DensityClass::kLow;
  } else {
    result.klass = DensityClass::kHigh;
  }
  return result;
}

}  // namespace scent::core
