#include "dataplane/hula_switch.h"

#include <stdexcept>

#include "util/hash.h"

namespace contra::dataplane {

using sim::Packet;
using sim::PacketKind;
using sim::Simulator;
using topology::FatTreeLayer;
using topology::LinkId;
using topology::NodeId;

namespace {

int layer_rank(FatTreeLayer layer) {
  switch (layer) {
    case FatTreeLayer::kEdge: return 0;
    case FatTreeLayer::kAgg: return 1;
    case FatTreeLayer::kCore: return 2;
    case FatTreeLayer::kUnknown: return -1;
  }
  return -1;
}

}  // namespace

HulaSwitch::HulaSwitch(NodeId self, HulaOptions options)
    : self_(self),
      options_(options),
      flowlets_(options.flowlet_timeout_s),
      probe_clock_(options.probe_period_s),
      failure_detector_(options.failure_detect_periods * options.probe_period_s) {}

void HulaSwitch::bind_telemetry(Simulator& sim) {
  telemetry_ = &sim.telemetry();
  flowlets_.bind_telemetry(telemetry_, self_);
  failure_detector_.bind_telemetry(telemetry_, self_);
  // The topology is first reachable here (the constructor has no Simulator):
  // size the per-link failure state once so the hot path never grows it.
  failure_detector_.reserve_links(sim.topo().num_links());
}

void HulaSwitch::start(Simulator& sim) {
  bind_telemetry(sim);
  layer_ = topology::fat_tree_layer(sim.topo(), self_);
  if (layer_ == FatTreeLayer::kUnknown) {
    throw std::invalid_argument("HULA requires a fat-tree topology (node " +
                                sim.topo().name(self_) + " has no layer)");
  }
  if (layer_ == FatTreeLayer::kEdge) originate_probes(sim);
}

void HulaSwitch::originate_probes(Simulator& sim) {
  const uint64_t version = probe_clock_.advance();
  for (LinkId l : sim.topo().out_links(self_)) {  // all uplinks (edge->agg)
    Packet probe;
    probe.kind = PacketKind::kProbe;
    probe.id = sim.next_packet_id();
    probe.size_bytes = options_.probe_bytes;
    probe.src_switch = self_;
    probe.probe = sim::ProbeFields{self_, 0, 0, 0, version, pg::MetricsVector{}};
    probe.routing.hula_up = true;
    ++stats_.probes_originated;
    telemetry_->metrics().add(telemetry_->core().probes_originated);
    if (telemetry_->tracing()) {
      obs::TraceRecord r;
      r.t = sim.now();
      r.ev = obs::Ev::kProbeOrig;
      r.sw = self_;
      r.dst = self_;
      r.version = version;
      telemetry_->emit(r);
    }
    sim.send_on_link(l, std::move(probe));
  }
  sim.events().schedule_in(options_.probe_period_s, [this, &sim] { originate_probes(sim); });
}

void HulaSwitch::handle_packet(Simulator& sim, Packet&& packet, LinkId in_link) {
  if (telemetry_ == nullptr) bind_telemetry(sim);
  if (packet.kind == PacketKind::kProbe) {
    process_probe(sim, std::move(packet), in_link);
  } else {
    forward_data(sim, std::move(packet), in_link);
  }
}

void HulaSwitch::process_probe(Simulator& sim, Packet&& packet, LinkId in_link) {
  ++stats_.probes_received;
  failure_detector_.note_probe(in_link, sim.now());
  sim::ProbeFields& probe = packet.probe;
  obs::Telemetry& tel = *telemetry_;
  tel.metrics().add(tel.core().probes_received);
  tel.metrics().add(tel.core().probe_bytes_rx, packet.size_bytes);

  // Path utilization toward the origin ToR: max over the traffic-direction
  // (reverse) links, exactly like Contra's mv update.
  const LinkId traffic_link = sim.topo().link(in_link).reverse;
  probe.mv.extend(sim.link(traffic_link).utilization(), 0.0);

  BestHop& entry = best_[probe.origin];
  const bool fresher = probe.version > entry.version;
  const bool better = probe.mv.util < entry.util;
  const bool same_hop = entry.nhop == traffic_link;
  if (entry.nhop != topology::kInvalidLink && !fresher && !better && !same_hop) {
    tel.metrics().add(tel.core().probes_rejected_rank);
    if (tel.tracing()) {
      obs::TraceRecord r;
      r.t = sim.now();
      r.ev = obs::Ev::kProbeRejectRank;
      r.sw = self_;
      r.dst = probe.origin;
      r.version = probe.version;
      r.value = probe.mv.util;
      tel.emit(r);
    }
    return;
  }
  const LinkId old_nhop = entry.nhop;
  entry.nhop = traffic_link;
  entry.util = probe.mv.util;
  entry.version = probe.version;
  entry.updated_at = sim.now();
  tel.metrics().add(tel.core().probes_accepted);
  tel.metrics().add(tel.core().fwdt_updates);
  tel.metrics().observe(tel.core().probe_path_len, probe.mv.len);
  if (tel.tracing()) {
    obs::TraceRecord r;
    r.t = sim.now();
    r.ev = obs::Ev::kProbeAccept;
    r.sw = self_;
    r.dst = probe.origin;
    r.link = traffic_link;
    r.version = probe.version;
    r.value = probe.mv.util;
    tel.emit(r);
    if (old_nhop != topology::kInvalidLink && old_nhop != traffic_link) {
      tel.metrics().add(tel.core().route_flips);
      obs::TraceRecord flip;
      flip.t = sim.now();
      flip.ev = obs::Ev::kRouteFlip;
      flip.sw = self_;
      flip.dst = probe.origin;
      flip.link = traffic_link;
      flip.aux = old_nhop;
      tel.emit(flip);
    }
  }

  // Propagation restricted to up-down paths: probes that started down never
  // turn back up; the layer of the sender tells the direction.
  const FatTreeLayer from_layer = topology::fat_tree_layer(sim.topo(), sim.topo().link(in_link).from);
  const bool arrived_from_below = layer_rank(from_layer) < layer_rank(layer_);
  for (LinkId l : sim.topo().out_links(self_)) {
    if (l == traffic_link) continue;  // never back to the sender
    const FatTreeLayer to_layer = topology::fat_tree_layer(sim.topo(), sim.topo().link(l).to);
    const bool going_up = layer_rank(to_layer) > layer_rank(layer_);
    if (going_up && !arrived_from_below) continue;  // down-phase stays down
    Packet copy = packet;
    copy.id = sim.next_packet_id();
    copy.routing.hula_up = going_up;
    ++stats_.probes_propagated;
    sim.send_on_link(l, std::move(copy));
  }
}

bool HulaSwitch::entry_usable(const BestHop& entry, sim::Time now) const {
  if (entry.nhop == topology::kInvalidLink) return false;
  // Staleness doubles as failure detection: a failed next hop stops
  // delivering probes, so its entry ages out.
  return now - entry.updated_at <= options_.metric_expiry_periods * options_.probe_period_s;
}

const HulaSwitch::BestHop* HulaSwitch::best_hop(NodeId dst_tor) const {
  auto it = best_.find(dst_tor);
  return it == best_.end() ? nullptr : &it->second;
}

void HulaSwitch::forward_data(Simulator& sim, Packet&& packet, LinkId in_link) {
  (void)in_link;
  const sim::Time now = sim.now();
  if (packet.dst_switch == self_) {
    ++stats_.data_to_host;
    sim.send_to_host(packet.dst_host, std::move(packet));
    return;
  }
  const uint32_t fid = util::hash_five_tuple(packet.tuple);
  const FlowletKey fkey{0, 0, fid};

  LinkId nhop = topology::kInvalidLink;
  FlowletEntry* pinned = flowlets_.lookup(fkey, now);
  if (pinned != nullptr) {
    const LinkId probe_dir = sim.topo().link(pinned->nhop).reverse;
    if (failure_detector_.presumed_failed(probe_dir, now)) {
      flowlets_.flush(fkey, now);
      pinned = nullptr;
    }
  }
  if (pinned != nullptr) {
    nhop = pinned->nhop;
    flowlets_.touch(fkey, now);
  } else {
    auto it = best_.find(packet.dst_switch);
    if (it == best_.end() || !entry_usable(it->second, now)) {
      ++stats_.data_dropped_no_route;
      telemetry_->metrics().add(telemetry_->core().data_dropped_no_route);
      return;
    }
    nhop = it->second.nhop;
    flowlets_.pin(fkey, FlowletEntry{nhop, 0, 0, now}, now);
  }
  if (packet.routing.ttl == 0) {
    ++stats_.data_dropped_ttl;
    telemetry_->metrics().add(telemetry_->core().data_dropped_ttl);
    return;
  }
  --packet.routing.ttl;
  ++stats_.data_forwarded;
  telemetry_->metrics().add(telemetry_->core().data_forwarded);
  sim.send_on_link(nhop, std::move(packet));
}

LinkId HulaSwitch::fluid_next_hop(Simulator& sim, NodeId dst_switch,
                                  const util::FiveTuple& tuple, sim::RoutingState& routing) {
  (void)routing;
  const sim::Time now = sim.now();
  const uint32_t fid = util::hash_five_tuple(tuple);
  const FlowletKey fkey{0, 0, fid};
  FlowletEntry* pinned = flowlets_.lookup(fkey, now);
  if (pinned != nullptr &&
      failure_detector_.presumed_failed(sim.topo().link(pinned->nhop).reverse, now)) {
    pinned = nullptr;  // read-only: the real flush waits for a packet
  }
  if (pinned != nullptr) return pinned->nhop;
  auto it = best_.find(dst_switch);
  if (it == best_.end() || !entry_usable(it->second, now)) return topology::kInvalidLink;
  return it->second.nhop;
}

std::vector<HulaSwitch*> install_hula_network(sim::Simulator& sim, HulaOptions options) {
  std::vector<HulaSwitch*> switches;
  for (NodeId n = 0; n < sim.topo().num_nodes(); ++n) {
    auto sw = std::make_unique<HulaSwitch>(n, options);
    HulaSwitch* raw = sw.get();
    if (sim.install_switch(n, std::move(sw))) switches.push_back(raw);
  }
  return switches;
}

}  // namespace contra::dataplane
