// range_table.h - frozen longest-prefix-match table as sorted address ranges.
//
// The simulated Internet routes every probe to its owning provider, tens of
// millions of lookups per discovery run, against a route set that only
// changes while the world is built. This table flattens that route set once:
// the address space becomes a sorted list of disjoint ranges, each carrying
// the value of the most specific route covering it (or none), so a lookup is
// one binary search over contiguous keys instead of a 32-48 level pointer
// walk down a PrefixTrie. Keys are full 128-bit addresses, so routes of any
// length from /0 to /128 flatten the same way.
//
// PrefixTrie stays the structure for mutable tables (BgpTable, Blocklist)
// and is the oracle this table is tested against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/prefix.h"

namespace scent::routing {

class RangeTable {
 public:
  /// One route to flatten. `value` must not be kNoValue.
  struct Route {
    net::Prefix prefix;
    std::uint32_t value = 0;
  };

  static constexpr std::uint32_t kNoValue = 0xffffffffU;

  /// The empty table: every lookup misses.
  RangeTable() = default;

  /// Flattens `routes`. Where one prefix appears several times the last
  /// occurrence wins, as repeated PrefixTrie::insert calls would leave it.
  explicit RangeTable(std::vector<Route> routes) {
    // Prefix order puts a covering prefix before everything it covers (same
    // base, shorter length first); the stable sort keeps duplicates in
    // insertion order so the last of each run is the surviving route.
    std::stable_sort(routes.begin(), routes.end(),
                     [](const Route& a, const Route& b) {
                       return a.prefix < b.prefix;
                     });

    // Sweep in address order with the chain of open (enclosing) routes on a
    // stack. Prefixes either nest or are disjoint, so a route starting past
    // the top's last address closes the top, and the range after it falls
    // back to the route beneath.
    struct Open {
      net::Uint128 last;
      std::uint32_t value;
    };
    std::vector<Open> open;
    const auto enclosing = [&open] {
      return open.empty() ? kNoValue : open.back().value;
    };
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const Route& route = routes[i];
      if (i + 1 < routes.size() && routes[i + 1].prefix == route.prefix) {
        continue;  // superseded by a later duplicate
      }
      const net::Uint128 first = route.prefix.first().bits();
      while (!open.empty() && open.back().last < first) {
        const net::Uint128 resume = open.back().last + net::Uint128{1};
        open.pop_back();
        mark(resume, enclosing());
      }
      mark(first, route.value);
      open.push_back({route.prefix.last().bits(), route.value});
    }
    while (!open.empty()) {
      const net::Uint128 last = open.back().last;
      open.pop_back();
      // A route ending at the top of the address space leaves nothing after
      // it; neither does any route enclosing it.
      if (last == net::Uint128::max()) continue;
      mark(last + net::Uint128{1}, enclosing());
    }
  }

  /// The value of the most specific route covering `a`, if any.
  [[nodiscard]] std::optional<std::uint32_t> find(
      net::Ipv6Address a) const noexcept {
    // starts_[0] is address 0, so upper_bound never returns begin(). The
    // limb-wise comparison measures faster here than Uint128's operator<=>.
    const auto it = std::upper_bound(
        starts_.begin(), starts_.end(), a.bits(),
        [](const net::Uint128& key, const net::Uint128& start) {
          return key.hi() < start.hi() ||
                 (key.hi() == start.hi() && key.lo() < start.lo());
        });
    const std::uint32_t value =
        values_[static_cast<std::size_t>(it - starts_.begin()) - 1];
    if (value == kNoValue) return std::nullopt;
    return value;
  }

 private:
  /// Starts a range at `start` owned by `value`. Starts arrive in
  /// non-decreasing order; a repeated start overrides the range it would
  /// have opened, which was empty.
  void mark(net::Uint128 start, std::uint32_t value) {
    if (starts_.back() == start) {
      values_.back() = value;
      return;
    }
    starts_.push_back(start);
    values_.push_back(value);
  }

  // Range i spans [starts_[i], starts_[i + 1]) and maps to values_[i];
  // kNoValue marks an unrouted gap. Starts and values are separate arrays
  // so the binary search touches only keys.
  std::vector<net::Uint128> starts_{net::Uint128{}};
  std::vector<std::uint32_t> values_{kNoValue};
};

}  // namespace scent::routing
