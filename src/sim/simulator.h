// The network simulator: topology links + host links, installed switch
// devices, hosts, and failure injection. This is the substrate the paper ran
// on ns-3; behaviourally it models the same quantities the evaluation
// depends on — queueing, loss, utilization, propagation, RTT.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/node.h"
#include "sim/packet.h"
#include "topology/topology.h"

namespace contra::sim {

struct SimConfig {
  double host_link_bps = 10e9;
  double host_link_delay_s = 0.5e-6;
  /// Drop-tail capacity per link queue; the paper uses 1000 MSS.
  uint64_t queue_capacity_bytes = 1000ull * 1500;
  /// Utilization EWMA window; commonly a couple of probe periods.
  double util_tau_s = 512e-6;
  /// Record the switch-level path each data packet takes in its cold
  /// PathRecord (Packet::path). Compliance checks need it; everything else
  /// runs faster without the per-packet record, so it is opt-in.
  bool capture_traces = false;
  /// Engine shape (ParallelSimulator, DESIGN.md §8); the per-shard
  /// Simulator itself ignores both fields. `shards` is the topology
  /// partition count and `workers` the thread count. Both 0, the default,
  /// runs one shard, which is the serial engine; `shards` = 0 with
  /// `workers` > 0 sizes the partition to the topology and the machine. The
  /// execution schedule depends only on the shard count, never on `workers`.
  uint32_t workers = 0;
  uint32_t shards = 0;
};

class Simulator {
 public:
  Simulator(const topology::Topology& topo, SimConfig config);

  const topology::Topology& topo() const { return *topo_; }
  const SimConfig& config() const { return config_; }
  EventQueue& events() { return events_; }
  Time now() const { return events_.now(); }
  /// Whether dataplanes should append to PathRecord::trace (see
  /// SimConfig::capture_traces).
  bool trace_enabled() const { return config_.capture_traces; }

  /// Telemetry hub for this simulation: always-on fixed-slot metrics plus
  /// the optional control-plane trace sink (attach one with
  /// telemetry().set_sink()). Links and installed dataplanes all report
  /// through it.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }

  // ----- setup ------------------------------------------------------------

  /// Attaches a host to a switch; returns its id.
  HostId add_host(topology::NodeId attach);
  uint32_t num_hosts() const { return static_cast<uint32_t>(host_attach_.size()); }
  topology::NodeId host_switch(HostId host) const { return host_attach_.at(host); }

  /// Restricts install_switch to nodes this simulator owns (parallel engine:
  /// each shard instantiates only its own switches). Unset = accept all.
  void set_install_filter(std::function<bool(topology::NodeId)> filter) {
    install_filter_ = std::move(filter);
  }

  /// Installs the device, unless an install filter rejects the node — then
  /// the device is discarded and false is returned. Installers must not hand
  /// out pointers to devices they installed without checking this.
  bool install_switch(topology::NodeId node, std::unique_ptr<Device> device);
  Device& device_at(topology::NodeId node) { return *devices_.at(node); }
  bool has_device(topology::NodeId node) const { return devices_.at(node) != nullptr; }

  /// Delivery of packets that reached their destination host.
  void set_host_receiver(std::function<void(HostId, Packet&&)> receiver) {
    host_receiver_ = std::move(receiver);
  }

  /// Calls Device::start on every switch (arm probe timers etc.).
  void start();

  // ----- dataplane services -----------------------------------------------

  /// Enables flow telemetry: data packets accumulate a path signature / hop
  /// count on every fabric hop, and packets flagged `int_sampled` record
  /// per-hop INT state (DESIGN.md §11). Off by default — the hot path then
  /// pays exactly one predictable branch per hop (bench-gated by
  /// `probe_flood_periodic`).
  void set_flow_telemetry(bool enabled) { flow_telemetry_ = enabled; }
  bool flow_telemetry() const { return flow_telemetry_; }

  /// Switch egress on a topology link. Returns false when dropped.
  bool send_on_link(topology::LinkId link, Packet&& packet);
  /// Edge switch -> attached host.
  bool send_to_host(HostId host, Packet&& packet);
  /// Host NIC -> its switch.
  bool host_send(HostId host, Packet&& packet);

  /// Link state and metrics, as read by switch dataplanes.
  Link& link(topology::LinkId id) { return *links_.at(id); }
  const Link& link(topology::LinkId id) const { return *links_.at(id); }
  Link& host_uplink(HostId host) { return *links_.at(host_uplink_.at(host)); }
  Link& host_downlink(HostId host) { return *links_.at(host_downlink_.at(host)); }

  /// Dense link-id views for the hybrid engine: topology link ids are
  /// [0, topo.num_links()); host up/downlinks follow in add_host order.
  uint32_t num_total_links() const { return static_cast<uint32_t>(links_.size()); }
  topology::LinkId host_uplink_id(HostId host) const {
    return static_cast<topology::LinkId>(host_uplink_.at(host));
  }
  topology::LinkId host_downlink_id(HostId host) const {
    return static_cast<topology::LinkId>(host_downlink_.at(host));
  }

  /// Bumped on every cable state transition (fail/restore/quiet replicas and
  /// gray degradations). The hybrid engine polls it each quantum and re-walks
  /// fluid flow paths when it moved — no cross-thread callbacks needed.
  uint64_t link_state_generation() const { return link_state_generation_; }

  // ----- failure injection --------------------------------------------------

  /// Fails/restores both directions of the cable containing `link`.
  void fail_cable(topology::LinkId link);
  void restore_cable(topology::LinkId link);

  /// Same state change without telemetry/logging. The parallel engine keeps a
  /// replica of every Link in every shard and applies failures to all of
  /// them; only the owning shard reports the event (once), via fail_cable.
  void set_cable_state_quiet(topology::LinkId link, bool down);

  /// Gray failure (DESIGN.md §13): degrades both directions of the cable
  /// containing `link` — loss probability, added latency, capacity derate.
  /// All-defaults GrayParams heals the cable. The quiet variant mirrors
  /// set_cable_state_quiet for non-owning parallel shards.
  void set_cable_gray(topology::LinkId link, const GrayParams& gray);
  void set_cable_gray_quiet(topology::LinkId link, const GrayParams& gray);

  /// Control-plane restart of the device at `node` (no-op when this
  /// simulator owns no device there — parallel shards call it blindly).
  void restart_switch(topology::NodeId node);

  /// Churn-engine wave marker: one churn_wave trace record + counter. The
  /// engine calls it at each wave's start, before injecting the wave's
  /// events, so the ConvergenceTracker can anchor reconvergence windows.
  void note_churn_wave(obs::FaultClass cls, uint32_t wave_index);

  // ----- run / stats ---------------------------------------------------------

  void run_until(Time end) { events_.run_until(end); }

  /// Aggregate traffic transmitted on switch-switch links (Fig. 16).
  LinkStats aggregate_fabric_stats() const;

  uint64_t next_packet_id() { return next_packet_id_++; }
  /// Packet-id namespace base (parallel engine: shard s starts at
  /// (s << 48) + 1 so ids never collide across shards; shard 0 matches the
  /// serial sequence exactly).
  void set_next_packet_id(uint64_t id) { next_packet_id_ = id; }

 private:
  void wire_topology_links();
  /// Port signal to both cable endpoints (devices installed here only — under
  /// the parallel engine each shard notifies the switches it owns, so every
  /// device hears each cable event exactly once).
  void notify_link_state(topology::LinkId link, bool up);

  const topology::Topology* topo_;
  SimConfig config_;
  obs::Telemetry telemetry_;  ///< before links_: links hold a pointer into it
  EventQueue events_;

  /// [0, topo.num_links()) are topology links; host links follow.
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Device>> devices_;

  std::vector<topology::NodeId> host_attach_;
  std::vector<size_t> host_uplink_;    ///< host -> switch link index
  std::vector<size_t> host_downlink_;  ///< switch -> host link index

  std::function<void(HostId, Packet&&)> host_receiver_;
  std::function<bool(topology::NodeId)> install_filter_;
  uint64_t next_packet_id_ = 1;
  uint64_t link_state_generation_ = 0;
  bool flow_telemetry_ = false;
};

}  // namespace contra::sim
