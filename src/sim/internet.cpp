#include "sim/internet.h"

namespace scent::sim {

std::size_t Internet::add_provider(ProviderConfig config) {
  const std::size_t index = providers_.size();
  for (const auto& prefix : config.advertisements) {
    bgp_.announce(routing::Advertisement{prefix, config.asn, config.country,
                                         config.name});
    routes_.push_back({prefix, static_cast<std::uint32_t>(index)});
  }
  forwarding_ = routing::RangeTable{routes_};
  providers_.push_back(std::make_unique<Provider>(std::move(config)));
  return index;
}

std::optional<ProbeReply> Internet::probe(net::Ipv6Address target,
                                          std::uint8_t hop_limit,
                                          TimePoint t) {
  ++stats_.probes_received;
  const auto provider_index = route(target);
  if (!provider_index) {
    ++stats_.unrouted;
    return std::nullopt;
  }
  auto reply = providers_[*provider_index]->handle_probe(target, hop_limit, t);
  if (reply) ++stats_.responses_sent;
  return reply;
}

std::optional<ProbeReply> Internet::probe(net::Ipv6Address target,
                                          std::uint8_t hop_limit, TimePoint t,
                                          NetContext& ctx) const {
  ++ctx.stats.probes_received;
  const auto provider_index = route(target);
  if (!provider_index) {
    ++ctx.stats.unrouted;
    return std::nullopt;
  }
  auto reply = providers_[*provider_index]->handle_probe(target, hop_limit, t,
                                                         ctx.response);
  if (reply) ++ctx.stats.responses_sent;
  return reply;
}

std::optional<wire::Packet> Internet::deliver(
    std::span<const std::uint8_t> packet_bytes, TimePoint t) {
  const auto parsed = wire::parse_packet(packet_bytes);
  if (!parsed || parsed->icmp.type != wire::Icmpv6Type::kEchoRequest) {
    ++stats_.malformed_dropped;
    return std::nullopt;
  }

  const auto reply =
      probe(parsed->ip.destination, parsed->ip.hop_limit, t);
  if (!reply) return std::nullopt;

  if (reply->type == wire::Icmpv6Type::kEchoReply) {
    return wire::build_echo_reply(reply->source, parsed->ip.source,
                                  parsed->icmp.identifier,
                                  parsed->icmp.sequence);
  }
  return wire::build_error(reply->source, parsed->ip.source, reply->type,
                           reply->code, packet_bytes);
}

std::optional<wire::Packet> Internet::deliver(
    std::span<const std::uint8_t> packet_bytes, TimePoint t,
    NetContext& ctx) const {
  const auto parsed = wire::parse_packet(packet_bytes);
  if (!parsed || parsed->icmp.type != wire::Icmpv6Type::kEchoRequest) {
    ++ctx.stats.malformed_dropped;
    return std::nullopt;
  }

  const auto reply =
      probe(parsed->ip.destination, parsed->ip.hop_limit, t, ctx);
  if (!reply) return std::nullopt;

  if (reply->type == wire::Icmpv6Type::kEchoReply) {
    return wire::build_echo_reply(reply->source, parsed->ip.source,
                                  parsed->icmp.identifier,
                                  parsed->icmp.sequence);
  }
  return wire::build_error(reply->source, parsed->ip.source, reply->type,
                           reply->code, packet_bytes);
}

}  // namespace scent::sim
