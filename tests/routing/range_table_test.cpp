// Differential tests for the frozen range table against PrefixTrie, the
// longest-prefix-match oracle: seeded random route sets with nested,
// adjacent and duplicate prefixes at every length from /0 to /128, probed at
// each prefix's edges and at random addresses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "routing/prefix_trie.h"
#include "routing/range_table.h"

namespace scent::routing {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }
net::Ipv6Address addr(const char* text) {
  return *net::Ipv6Address::parse(text);
}

/// A route list plus the oracle built from it with the same insert order.
struct RouteSet {
  std::vector<RangeTable::Route> routes;
  PrefixTrie<std::uint32_t> trie;

  void add(net::Prefix prefix) {
    const auto value = static_cast<std::uint32_t>(routes.size());
    routes.push_back({prefix, value});
    trie.insert(prefix, value);
  }
};

std::optional<std::uint32_t> oracle(const PrefixTrie<std::uint32_t>& trie,
                                    net::Ipv6Address a) {
  const auto match = trie.longest_match(a);
  if (!match) return std::nullopt;
  return *match->value;
}

/// Every address a boundary error would show at: each prefix's first and
/// last address and the addresses just outside it.
std::vector<net::Ipv6Address> edge_addresses(
    const std::vector<RangeTable::Route>& routes) {
  std::vector<net::Ipv6Address> out;
  for (const auto& route : routes) {
    const net::Uint128 first = route.prefix.first().bits();
    const net::Uint128 last = route.prefix.last().bits();
    out.emplace_back(first);
    out.emplace_back(last);
    if (last != net::Uint128::max()) out.emplace_back(last + net::Uint128{1});
    if (first != net::Uint128{}) out.emplace_back(first - net::Uint128{1});
  }
  return out;
}

void expect_matches_oracle(const RouteSet& set,
                           const std::vector<net::Ipv6Address>& queries) {
  const RangeTable table{set.routes};
  for (const auto& a : queries) {
    ASSERT_EQ(table.find(a), oracle(set.trie, a)) << a.to_string();
  }
}

net::Uint128 random_bits(std::mt19937_64& rng) {
  const std::uint64_t hi = rng();
  return net::Uint128{hi, rng()};
}

TEST(RangeTable, EmptyTableMissesEverything) {
  const RangeTable table;
  EXPECT_EQ(table.find(addr("::")), std::nullopt);
  EXPECT_EQ(table.find(addr("2001:db8::1")), std::nullopt);
  EXPECT_EQ(table.find(net::Ipv6Address{net::Uint128::max()}), std::nullopt);
}

TEST(RangeTable, MoreSpecificShadowsCoveringPrefix) {
  const RangeTable table{{{pfx("2001:db8::/32"), 1},
                          {pfx("2001:db8:1::/48"), 2},
                          {pfx("2001:db8:1:2::/64"), 3}}};
  EXPECT_EQ(table.find(addr("2001:db8::1")), 1u);
  EXPECT_EQ(table.find(addr("2001:db8:1::1")), 2u);
  EXPECT_EQ(table.find(addr("2001:db8:1:2::1")), 3u);
  EXPECT_EQ(table.find(addr("2001:db8:1:3::")), 2u);
  EXPECT_EQ(table.find(addr("2001:db8:2::")), 1u);
  EXPECT_EQ(table.find(addr("2001:db9::")), std::nullopt);
}

TEST(RangeTable, LastDuplicateWins) {
  const RangeTable table{{{pfx("2001:db8::/32"), 1},
                          {pfx("2001:db8:1::/48"), 2},
                          {pfx("2001:db8::/32"), 3}}};
  EXPECT_EQ(table.find(addr("2001:db8::1")), 3u);
  EXPECT_EQ(table.find(addr("2001:db8:ffff::")), 3u);
  EXPECT_EQ(table.find(addr("2001:db8:1::")), 2u);
}

TEST(RangeTable, AdjacentRoutesMeetWithoutGap) {
  const RangeTable table{{{pfx("2001:db8:0:8000::/49"), 5},
                          {pfx("2001:db8::/49"), 4}}};
  EXPECT_EQ(table.find(addr("2001:db7:ffff:ffff:ffff:ffff:ffff:ffff")),
            std::nullopt);
  EXPECT_EQ(table.find(addr("2001:db8::")), 4u);
  EXPECT_EQ(table.find(addr("2001:db8:0:7fff:ffff:ffff:ffff:ffff")), 4u);
  EXPECT_EQ(table.find(addr("2001:db8:0:8000::")), 5u);
  EXPECT_EQ(table.find(addr("2001:db8:0:ffff:ffff:ffff:ffff:ffff")), 5u);
  EXPECT_EQ(table.find(addr("2001:db8:1::")), std::nullopt);
}

TEST(RangeTable, DefaultRouteAndHostRoutesAtTheEnds) {
  const net::Ipv6Address top{net::Uint128::max()};
  const RangeTable table{{{pfx("::/0"), 0},
                          {net::Prefix{top, 128}, 1},
                          {net::Prefix{addr("::"), 128}, 2},
                          {pfx("ffff::/16"), 3}}};
  EXPECT_EQ(table.find(addr("::")), 2u);
  EXPECT_EQ(table.find(addr("::1")), 0u);
  EXPECT_EQ(table.find(addr("fffe:ffff::")), 0u);
  EXPECT_EQ(table.find(addr("ffff::")), 3u);
  EXPECT_EQ(table.find(net::Ipv6Address{net::Uint128::max() -
                                        net::Uint128{1}}),
            3u);
  EXPECT_EQ(table.find(top), 1u);
}

TEST(RangeTable, MatchesTrieOnRandomNestedAdjacentAndDuplicateRoutes) {
  std::mt19937_64 rng{0x5CE27AB1Eull};
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    RouteSet set;
    // A few anchors per trial make prefixes of different lengths around
    // the same address nest instead of scattering disjointly.
    std::vector<net::Uint128> anchors(1 + rng() % 4);
    for (auto& anchor : anchors) anchor = random_bits(rng);
    const std::size_t count = 1 + rng() % 48;
    while (set.routes.size() < count) {
      const std::uint64_t kind = rng() % 8;
      if (kind == 0 && !set.routes.empty()) {
        // Re-announce an earlier prefix under a new value.
        set.add(set.routes[rng() % set.routes.size()].prefix);
      } else if (kind == 1 && !set.routes.empty()) {
        // The next prefix of the same length: touches at the boundary.
        const net::Prefix prev = set.routes[rng() % set.routes.size()].prefix;
        if (prev.length() == 0) continue;
        const net::Uint128 size = net::Uint128{1} << (128 - prev.length());
        set.add(net::Prefix{net::Ipv6Address{prev.base().bits() + size},
                            prev.length()});
      } else {
        // Lengths span /0../128, weighted toward routing-table lengths.
        const unsigned length =
            rng() % 4 == 0 ? static_cast<unsigned>(rng() % 129)
                           : 24 + static_cast<unsigned>(rng() % 41);
        net::Uint128 bits = anchors[rng() % anchors.size()];
        if (rng() % 2 == 0) bits ^= net::Uint128{rng() % 256} << (rng() % 72);
        set.add(net::Prefix{net::Ipv6Address{bits}, length});
      }
    }
    std::vector<net::Ipv6Address> queries = edge_addresses(set.routes);
    for (int q = 0; q < 64; ++q) {
      queries.emplace_back(random_bits(rng));
      net::Uint128 near = anchors[rng() % anchors.size()];
      near ^= random_bits(rng) >> (rng() % 128);
      queries.emplace_back(near);
    }
    expect_matches_oracle(set, queries);
  }
}

TEST(RangeTable, MatchesTrieOnEveryLengthAroundOneAddress) {
  // One chain of 129 nested prefixes, /0 through /128, around one address,
  // inserted in shuffled order with every fourth one announced twice.
  std::mt19937_64 rng{0xC4A1};
  const net::Uint128 center = random_bits(rng);
  std::vector<unsigned> lengths(129);
  for (unsigned i = 0; i <= 128; ++i) lengths[i] = i;
  std::shuffle(lengths.begin(), lengths.end(), rng);
  RouteSet set;
  for (const unsigned length : lengths) {
    set.add(net::Prefix{net::Ipv6Address{center}, length});
    if (length % 4 == 0) set.add(net::Prefix{net::Ipv6Address{center}, length});
  }
  expect_matches_oracle(set, edge_addresses(set.routes));
}

}  // namespace
}  // namespace scent::routing
