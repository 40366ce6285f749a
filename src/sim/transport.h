// End-host transport: a TCP-like reliable byte stream (slow start, AIMD,
// fast retransmit, RTO with Jacobson/Karels estimation) and a constant-rate
// UDP sender. This is deliberately a compact congestion-controlled transport
// — enough fidelity for flow completion times to respond to queueing and
// loss the way the paper's ns-3 TCP does.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "util/flat_map.h"

namespace contra::obs {
class FlowTracker;
}

namespace contra::sim {

class FluidEngine;

struct TransportConfig {
  uint32_t mss_bytes = 1460;       ///< payload per data packet
  uint32_t header_bytes = 40;      ///< TCP/IP header overhead
  uint32_t ack_bytes = 64;         ///< ACK wire size
  uint32_t init_cwnd_pkts = 10;
  double init_rto_s = 2e-3;
  double min_rto_s = 200e-6;
  double max_rto_s = 100e-3;
  /// DCTCP mode: react proportionally to the fraction of ECN-marked ACKs
  /// (requires links with an ECN threshold; see Link::set_ecn_threshold_bytes).
  bool dctcp = false;
  double dctcp_gain = 1.0 / 16;    ///< the DCTCP g parameter

  /// Hybrid flow-level engine (DESIGN.md §14): bulk TCP flows advance as
  /// fluid rates in one FluidEngine that ParallelTransport builds and hands
  /// to every shard's TransportManager; probes, flowlets, and a sampled flow
  /// subset stay packet-level. Only ParallelTransport reads this field.
  bool hybrid = false;
  /// 1-in-n flow sampling: every n-th submitted TCP flow runs at packet
  /// level anyway (keeps flowlet/queue/transport paths exercised and gives
  /// parity tests a live reference). 0 = every flow fluid; 1 = every flow
  /// packet-level (hybrid off in all but name).
  uint32_t hybrid_sample_every = 64;
  /// FluidConfig::quantum_s for the engine ParallelTransport creates.
  double fluid_quantum_s = 64e-6;
};

struct FlowRecord {
  uint64_t flow_id = 0;
  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  uint64_t bytes = 0;
  Time start = 0.0;
  Time end = 0.0;
  bool completed = false;

  double fct() const { return end - start; }
};

class TransportManager {
 public:
  TransportManager(Simulator& sim, TransportConfig config = {});

  /// Schedules a TCP-like flow; returns its flow id. Under hybrid mode the
  /// flow is handed to the fluid engine unless the 1-in-n sampler keeps it
  /// packet-level (the sampling counter is per-manager submission order, so
  /// the decision is deterministic and workers-invariant at fixed shards).
  uint64_t start_flow(HostId src, HostId dst, uint64_t bytes, Time start_time);

  /// Constant-rate UDP stream between [start, stop).
  uint64_t start_udp_flow(HostId src, HostId dst, double rate_bps, Time start_time,
                          Time stop_time, uint32_t packet_bytes = 1500);

  /// Completed TCP flows (in completion order).
  const std::vector<FlowRecord>& completed_flows() const { return completed_; }
  /// All TCP flows, completed or not (flow-id order).
  std::vector<FlowRecord> all_flows() const;

  uint64_t udp_bytes_received() const { return udp_bytes_received_; }

  /// Total data packets that arrived out of order across all TCP receivers —
  /// the paper's "Ordered" objective (§5.3). Retransmission arrivals count
  /// too (they also fill holes), so compare like against like.
  uint64_t total_reordered_packets() const;
  /// Invoked on every delivered UDP packet (throughput timelines, Fig. 14).
  void set_udp_receive_hook(std::function<void(Time, uint32_t)> hook) {
    udp_hook_ = std::move(hook);
  }

  /// Invoked on every data packet (TCP and UDP) that reaches its host —
  /// e.g. to audit PathRecord::trace for policy compliance.
  void set_data_inspector(std::function<void(const Packet&)> inspector) {
    data_inspector_ = std::move(inspector);
  }

  const TransportConfig& config() const { return config_; }

  /// Flow-id namespace base (parallel engine: shard s starts at
  /// (s << 48) + 1; shard 0 matches the serial sequence exactly).
  void set_next_flow_id(uint64_t id) { next_flow_id_ = id; }

  /// Attaches a flow-lifecycle tracker (DESIGN.md §11). Opt-in: with no
  /// tracker the hook sites are one predictable branch each. The caller
  /// should also Simulator::set_flow_telemetry(true) so deliveries carry
  /// path signatures. Detach (nullptr) before the tracker dies.
  void set_flow_tracker(obs::FlowTracker* tracker) { flow_tracker_ = tracker; }
  obs::FlowTracker* flow_tracker() const { return flow_tracker_; }

  /// INT-style path sampling: every `every`-th data packet (deterministic in
  /// (flow_id, seq); see obs::FlowTracker::sampled) records per-hop state,
  /// delivered to the tracker on arrival. 0 disables.
  void set_path_sample_every(uint32_t every) { path_sample_every_ = every; }

  // ----- hybrid flow-level engine (DESIGN.md §14) ---------------------------

  /// Routes bulk flows through a fluid engine owned elsewhere (by
  /// ParallelTransport: one engine shared by every shard's transport).
  void use_fluid(FluidEngine* engine, uint32_t sample_every);
  /// The engine in use; nullptr in pure packet mode.
  FluidEngine* fluid_engine() const { return fluid_; }

  /// FluidEngine completion callback: records the analytic FCT exactly as
  /// tcp_complete records a packet-level one (metrics, tracker, completed_).
  void on_fluid_complete(const FlowRecord& rec);

 private:
  struct TcpSender {
    HostId src = kInvalidHost;
    HostId dst = kInvalidHost;
    uint64_t flow_id = 0;
    uint64_t total_pkts = 0;
    uint32_t last_pkt_payload = 0;
    uint64_t bytes = 0;
    Time start_time = 0.0;

    uint64_t next_seq = 0;
    uint64_t acked = 0;
    double cwnd = 1.0;
    double ssthresh = 1e18;
    int dupacks = 0;

    double srtt = 0.0;
    double rttvar = 0.0;
    double rto = 0.0;
    uint64_t rto_generation = 0;
    bool rtt_seeded = false;
    bool started = false;
    bool done = false;

    /// Last transmission time per unacked sequence number; freed when the
    /// flow completes (senders_ keeps its entry for the whole run).
    util::FlatMap<uint64_t, Time> send_time;
    uint16_t src_port = 0;
    uint16_t dst_port = 0;

    // DCTCP state (§ECN): per-window marked/total ACK accounting.
    double dctcp_alpha = 0.0;
    uint64_t dctcp_window_end = 0;
    uint64_t dctcp_acked_total = 0;
    uint64_t dctcp_acked_marked = 0;
  };

  struct TcpReceiver {
    uint64_t expected = 0;
    /// Sequence numbers above `expected` that have arrived. Only membership
    /// is read: every member is above `expected`, so draining by
    /// erase(expected) walks the same run an ordered set's begin() would.
    /// Its storage stays sized for the flow's longest out-of-order run: at
    /// most 8/3 slots of 16 bytes per member of that run, where an ordered
    /// set took one 40-byte node per member.
    util::FlatSet<uint64_t> out_of_order;
    uint64_t max_seq_seen = 0;
    bool any_seen = false;
    uint64_t reordered = 0;  ///< packets arriving below an already-seen seq
  };

  struct UdpFlow {
    HostId src = kInvalidHost;
    HostId dst = kInvalidHost;
    uint64_t flow_id = 0;
    double rate_bps = 0.0;
    Time stop_time = 0.0;
    uint32_t packet_bytes = 1500;
    uint64_t next_seq = 0;
  };

  void on_host_receive(HostId host, Packet&& packet);
  void on_data(Packet&& packet);
  void on_ack(Packet&& packet);
  /// Pushes one delivered data packet into the attached flow tracker
  /// (call sites guard on flow_tracker_ != nullptr).
  void record_delivery(const Packet& packet, bool reordered);

  void tcp_start(TcpSender& sender);
  void tcp_send_window(TcpSender& sender);
  void tcp_send_packet(TcpSender& sender, uint64_t seq);
  void tcp_arm_rto(TcpSender& sender);
  void tcp_on_rto(uint64_t flow_id, uint64_t generation);
  void tcp_complete(TcpSender& sender);

  void udp_send_next(uint64_t flow_id);

  Packet make_packet(PacketKind kind, HostId src, HostId dst, uint64_t flow_id, uint64_t seq,
                     uint32_t size_bytes, uint8_t protocol);

  Simulator& sim_;
  TransportConfig config_;
  FluidEngine* fluid_ = nullptr;  ///< set by use_fluid
  uint32_t fluid_sample_every_ = 0;
  uint64_t fluid_submissions_ = 0;  ///< 1-in-n sampling counter
  std::unordered_map<uint64_t, TcpSender> senders_;
  std::unordered_map<uint64_t, TcpReceiver> receivers_;
  std::unordered_map<uint64_t, UdpFlow> udp_flows_;
  std::vector<FlowRecord> completed_;
  uint64_t next_flow_id_ = 1;
  uint64_t udp_bytes_received_ = 0;
  std::function<void(Time, uint32_t)> udp_hook_;
  std::function<void(const Packet&)> data_inspector_;
  obs::FlowTracker* flow_tracker_ = nullptr;
  uint32_t path_sample_every_ = 0;
};

}  // namespace contra::sim
