#include "sim/simulator.h"

#include <stdexcept>

#include "util/hash.h"
#include "util/logging.h"

namespace contra::sim {

Simulator::Simulator(const topology::Topology& topo, SimConfig config)
    : topo_(&topo), config_(config) {
  devices_.resize(topo.num_nodes());
  wire_topology_links();
}

void Simulator::wire_topology_links() {
  links_.reserve(topo_->num_links());
  for (topology::LinkId id = 0; id < topo_->num_links(); ++id) {
    const topology::DirectedLink& l = topo_->link(id);
    auto link = std::make_unique<Link>(events_, l.capacity_bps, l.delay_s,
                                       config_.queue_capacity_bytes, config_.util_tau_s);
    link->set_telemetry(&telemetry_, id);
    const topology::NodeId to = l.to;
    link->set_deliver([this, to, id](Packet&& packet) {
      if (devices_[to]) devices_[to]->handle_packet(*this, std::move(packet), id);
    });
    links_.push_back(std::move(link));
  }
}

HostId Simulator::add_host(topology::NodeId attach) {
  if (attach >= topo_->num_nodes()) throw std::out_of_range("add_host: bad switch id");
  const HostId host = static_cast<HostId>(host_attach_.size());
  host_attach_.push_back(attach);

  // Host -> switch (uplink).
  auto up = std::make_unique<Link>(events_, config_.host_link_bps, config_.host_link_delay_s,
                                   config_.queue_capacity_bytes, config_.util_tau_s);
  up->set_telemetry(&telemetry_, static_cast<uint32_t>(links_.size()));
  up->set_deliver([this, attach](Packet&& packet) {
    if (devices_[attach]) devices_[attach]->handle_packet(*this, std::move(packet), kFromHost);
  });
  host_uplink_.push_back(links_.size());
  links_.push_back(std::move(up));

  // Switch -> host (downlink).
  auto down = std::make_unique<Link>(events_, config_.host_link_bps, config_.host_link_delay_s,
                                     config_.queue_capacity_bytes, config_.util_tau_s);
  down->set_telemetry(&telemetry_, static_cast<uint32_t>(links_.size()));
  down->set_deliver([this, host](Packet&& packet) {
    if (host_receiver_) host_receiver_(host, std::move(packet));
  });
  host_downlink_.push_back(links_.size());
  links_.push_back(std::move(down));
  return host;
}

bool Simulator::install_switch(topology::NodeId node, std::unique_ptr<Device> device) {
  if (node >= devices_.size()) throw std::out_of_range("install_switch: bad node id");
  if (install_filter_ && !install_filter_(node)) return false;
  devices_[node] = std::move(device);
  return true;
}

void Simulator::start() {
  for (auto& device : devices_) {
    if (device) device->start(*this);
  }
}

bool Simulator::send_on_link(topology::LinkId link, Packet&& packet) {
  if (flow_telemetry_ && packet.kind == PacketKind::kData) {
    // Order-sensitive path signature over fabric links: link+1 so link 0
    // contributes. Host links never pass through here, so the signature
    // identifies the fabric path alone.
    packet.path_sig = util::hash_combine(packet.path_sig, link + 1);
    if (packet.hops < UINT8_MAX) ++packet.hops;
    if (packet.int_sampled) {
      std::vector<IntHop>& int_hops = packet.path.get_or_create().int_hops;
      if (int_hops.size() < kIntHopCap) {
        Link& l = *links_[link];
        int_hops.push_back(IntHop{link, static_cast<uint32_t>(l.queue_bytes()), now()});
      }
    }
  }
  return links_.at(link)->enqueue(std::move(packet));
}

bool Simulator::send_to_host(HostId host, Packet&& packet) {
  return links_.at(host_downlink_.at(host))->enqueue(std::move(packet));
}

bool Simulator::host_send(HostId host, Packet&& packet) {
  return links_.at(host_uplink_.at(host))->enqueue(std::move(packet));
}

void Simulator::fail_cable(topology::LinkId link) {
  // Duplicate / overlapping schedule events are idempotent: a cable that is
  // already down emits no second transition (no telemetry, no port signal),
  // so a schedule with redundant events is byte-identical to the clean one.
  if (links_.at(link)->down()) return;
  links_.at(link)->set_down(true);
  links_.at(topo_->link(link).reverse)->set_down(true);
  ++link_state_generation_;
  telemetry_.metrics().add(telemetry_.core().link_down_events);
  if (telemetry_.tracing()) {
    obs::TraceRecord r;
    r.t = now();
    r.ev = obs::Ev::kLinkDown;
    r.link = link;
    r.aux = topo_->link(link).reverse;
    telemetry_.emit(r);
  }
  LOG_INFO("sim") << "cable " << topo_->name(topo_->link(link).from) << "-"
                  << topo_->name(topo_->link(link).to) << " failed at t=" << now();
  notify_link_state(link, /*up=*/false);
}

void Simulator::restore_cable(topology::LinkId link) {
  if (!links_.at(link)->down()) return;  // idempotent (see fail_cable)
  links_.at(link)->set_down(false);
  links_.at(topo_->link(link).reverse)->set_down(false);
  ++link_state_generation_;
  telemetry_.metrics().add(telemetry_.core().link_up_events);
  if (telemetry_.tracing()) {
    obs::TraceRecord r;
    r.t = now();
    r.ev = obs::Ev::kLinkUp;
    r.link = link;
    r.aux = topo_->link(link).reverse;
    telemetry_.emit(r);
  }
  notify_link_state(link, /*up=*/true);
}

void Simulator::set_cable_state_quiet(topology::LinkId link, bool down) {
  // Mirror fail_cable/restore_cable's duplicate guard: replica shards must
  // suppress the port signal on exactly the same events the owner does.
  if (links_.at(link)->down() == down) return;
  links_.at(link)->set_down(down);
  links_.at(topo_->link(link).reverse)->set_down(down);
  ++link_state_generation_;
  notify_link_state(link, !down);
}

void Simulator::set_cable_gray(topology::LinkId link, const GrayParams& gray) {
  set_cable_gray_quiet(link, gray);
  if (telemetry_.tracing()) {
    obs::TraceRecord r;
    r.t = now();
    r.ev = obs::Ev::kGrayDegrade;
    r.link = link;
    r.aux = topo_->link(link).reverse;
    r.value = gray.loss_prob;
    telemetry_.emit(r);
  }
  LOG_INFO("sim") << "cable " << topo_->name(topo_->link(link).from) << "-"
                  << topo_->name(topo_->link(link).to) << " gray(loss=" << gray.loss_prob
                  << ", +delay=" << gray.extra_delay_s << "s, cap×" << gray.capacity_factor
                  << ") at t=" << now();
}

void Simulator::set_cable_gray_quiet(topology::LinkId link, const GrayParams& gray) {
  // Both directions share the degradation but draw independent loss
  // sequences (the reverse direction salts differently), like a sick optic
  // hurting both lanes.
  GrayParams reverse = gray;
  reverse.salt = util::mix64(gray.salt + 1);
  links_.at(link)->set_gray(gray);
  links_.at(topo_->link(link).reverse)->set_gray(reverse);
  ++link_state_generation_;  // capacity/latency changed: fluid flows re-walk
}

void Simulator::restart_switch(topology::NodeId node) {
  if (node >= devices_.size() || devices_[node] == nullptr) return;
  devices_[node]->restart_control_plane();
  telemetry_.metrics().add(telemetry_.core().switch_restarts);
  if (telemetry_.tracing()) {
    obs::TraceRecord r;
    r.t = now();
    r.ev = obs::Ev::kSwitchRestart;
    r.sw = node;
    telemetry_.emit(r);
  }
  LOG_INFO("sim") << "switch " << topo_->name(node) << " control plane restarted at t=" << now();
}

void Simulator::note_churn_wave(obs::FaultClass cls, uint32_t wave_index) {
  telemetry_.metrics().add(telemetry_.core().churn_waves);
  if (telemetry_.tracing()) {
    obs::TraceRecord r;
    r.t = now();
    r.ev = obs::Ev::kChurnWave;
    r.aux = static_cast<uint32_t>(cls);
    r.value = wave_index;
    telemetry_.emit(r);
  }
}

void Simulator::notify_link_state(topology::LinkId link, bool up) {
  // Each endpoint is handed the directed link *leaving* it, in (from, to)
  // order — deterministic, and the order is shard-invariant because a device
  // lives in exactly one shard.
  const topology::LinkId reverse = topo_->link(link).reverse;
  const topology::NodeId from = topo_->link(link).from;
  const topology::NodeId to = topo_->link(link).to;
  if (from < devices_.size() && devices_[from] != nullptr) {
    devices_[from]->handle_link_state(*this, link, up);
  }
  if (to < devices_.size() && devices_[to] != nullptr) {
    devices_[to]->handle_link_state(*this, reverse, up);
  }
}

LinkStats Simulator::aggregate_fabric_stats() const {
  LinkStats total;
  for (topology::LinkId id = 0; id < topo_->num_links(); ++id) {
    const LinkStats& s = links_[id]->stats();
    total.tx_packets += s.tx_packets;
    total.tx_bytes += s.tx_bytes;
    total.tx_data_bytes += s.tx_data_bytes;
    total.tx_ack_bytes += s.tx_ack_bytes;
    total.tx_probe_bytes += s.tx_probe_bytes;
    total.tx_data_packets += s.tx_data_packets;
    total.tx_ack_packets += s.tx_ack_packets;
    total.tx_probe_packets += s.tx_probe_packets;
    total.drops += s.drops;
    total.drop_bytes += s.drop_bytes;
    total.data_drops += s.data_drops;
  }
  return total;
}

}  // namespace contra::sim
