#include "dataplane/ecmp_switch.h"

#include "util/hash.h"

namespace contra::dataplane {

namespace {

constexpr uint32_t kHashSeed = 0x5bd1e995u;

/// The group member hash `h` picks: the (h mod n)-th of the n live ports,
/// in table order. ECMP groups exclude ports whose link is locally down
/// (standard LAG/ECMP behaviour) and stay load-oblivious among the rest.
/// Counts instead of materializing the live group, so it never allocates.
topology::LinkId pick_live_hop(const sim::Simulator& sim,
                               const std::vector<topology::LinkId>& hops, uint32_t h) {
  uint32_t live = 0;
  for (topology::LinkId l : hops) {
    if (!sim.link(l).down()) ++live;
  }
  if (live == 0) return topology::kInvalidLink;
  uint32_t skip = h % live;
  for (topology::LinkId l : hops) {
    if (sim.link(l).down()) continue;
    if (skip-- == 0) return l;
  }
  return topology::kInvalidLink;
}

}  // namespace

void EcmpSwitch::handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                               topology::LinkId in_link) {
  (void)in_link;
  if (packet.kind == sim::PacketKind::kProbe) return;  // no probes in ECMP
  if (packet.dst_switch == self_) {
    ++stats_.data_to_host;
    sim.send_to_host(packet.dst_host, std::move(packet));
    return;
  }
  const topology::LinkId out = pick_live_hop(sim, (*table_)[self_][packet.dst_switch],
                                             util::hash_five_tuple(packet.tuple, kHashSeed));
  if (out == topology::kInvalidLink) {
    ++stats_.data_dropped_no_route;
    return;
  }
  if (packet.routing.ttl == 0) {
    ++stats_.data_dropped_ttl;
    return;
  }
  --packet.routing.ttl;
  ++stats_.data_forwarded;
  sim.send_on_link(out, std::move(packet));
}

topology::LinkId EcmpSwitch::fluid_next_hop(sim::Simulator& sim, topology::NodeId dst_switch,
                                            const util::FiveTuple& tuple,
                                            sim::RoutingState& routing) {
  (void)routing;
  return pick_live_hop(sim, (*table_)[self_][dst_switch],
                       util::hash_five_tuple(tuple, kHashSeed));
}

std::vector<EcmpSwitch*> install_ecmp_network(sim::Simulator& sim) {
  // The table reflects the routing protocol's converged view: links already
  // down at install time are excluded (fail links before installing to model
  // a steady-state asymmetric topology, as in Fig. 12).
  auto table = std::make_shared<const EcmpSwitch::EcmpTable>(compute_ecmp_next_hops(
      sim.topo(), [&sim](topology::LinkId l) { return !sim.link(l).down(); }));
  std::vector<EcmpSwitch*> switches;
  for (topology::NodeId n = 0; n < sim.topo().num_nodes(); ++n) {
    auto sw = std::make_unique<EcmpSwitch>(table, n);
    EcmpSwitch* raw = sw.get();
    if (sim.install_switch(n, std::move(sw))) switches.push_back(raw);
  }
  return switches;
}

}  // namespace contra::dataplane
