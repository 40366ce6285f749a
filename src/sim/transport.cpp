#include "sim/transport.h"

#include <algorithm>
#include <cmath>

#include "obs/flow_tracker.h"
#include "sim/fluid.h"
#include "util/logging.h"

namespace contra::sim {

TransportManager::TransportManager(Simulator& sim, TransportConfig config)
    : sim_(sim), config_(config) {
  sim_.set_host_receiver([this](HostId host, Packet&& packet) {
    on_host_receive(host, std::move(packet));
  });
}

void TransportManager::use_fluid(FluidEngine* engine, uint32_t sample_every) {
  fluid_ = engine;
  fluid_sample_every_ = sample_every;
}

void TransportManager::on_fluid_complete(const FlowRecord& rec) {
  sim_.telemetry().metrics().add(sim_.telemetry().core().flows_completed);
  sim_.telemetry().metrics().observe(sim_.telemetry().core().fct_us, rec.fct() * 1e6);
  if (flow_tracker_) flow_tracker_->on_complete(rec.flow_id, rec.end);
  completed_.push_back(rec);
}

uint64_t TransportManager::start_flow(HostId src, HostId dst, uint64_t bytes, Time start_time) {
  if (fluid_ != nullptr) {
    // 1-in-n sampling on the submission counter: deterministic in submission
    // order, independent of flow-id namespacing. n == 0 keeps every flow
    // fluid; n == 1 degenerates to pure packet mode.
    const uint64_t submission = fluid_submissions_++;
    const bool packet_level = fluid_sample_every_ > 0 && submission % fluid_sample_every_ == 0;
    if (!packet_level) {
      const uint64_t flow_id = next_flow_id_++;
      sim_.telemetry().metrics().add(sim_.telemetry().core().flows_started);
      if (flow_tracker_) {
        flow_tracker_->on_start(flow_id, src, dst, std::max<uint64_t>(bytes, 1), start_time);
      }
      fluid_->start_flow(this, flow_id, src, dst, std::max<uint64_t>(bytes, 1), start_time);
      return flow_id;
    }
  }
  const uint64_t flow_id = next_flow_id_++;
  TcpSender sender;
  sender.src = src;
  sender.dst = dst;
  sender.flow_id = flow_id;
  sender.bytes = std::max<uint64_t>(bytes, 1);
  sender.total_pkts = (sender.bytes + config_.mss_bytes - 1) / config_.mss_bytes;
  sender.last_pkt_payload =
      static_cast<uint32_t>(sender.bytes - (sender.total_pkts - 1) * config_.mss_bytes);
  sender.start_time = start_time;
  sender.cwnd = config_.init_cwnd_pkts;
  sender.rto = config_.init_rto_s;
  sender.src_port = static_cast<uint16_t>(1024 + flow_id % 50000);
  sender.dst_port = static_cast<uint16_t>(5000 + flow_id % 1000);
  senders_.emplace(flow_id, std::move(sender));

  sim_.telemetry().metrics().add(sim_.telemetry().core().flows_started);
  if (flow_tracker_) {
    flow_tracker_->on_start(flow_id, src, dst, std::max<uint64_t>(bytes, 1), start_time);
  }

  sim_.events().schedule_at(start_time, [this, flow_id] {
    auto it = senders_.find(flow_id);
    if (it != senders_.end()) tcp_start(it->second);
  });
  return flow_id;
}

uint64_t TransportManager::start_udp_flow(HostId src, HostId dst, double rate_bps,
                                          Time start_time, Time stop_time,
                                          uint32_t packet_bytes) {
  const uint64_t flow_id = next_flow_id_++;
  UdpFlow flow;
  flow.src = src;
  flow.dst = dst;
  flow.flow_id = flow_id;
  flow.rate_bps = rate_bps;
  flow.stop_time = stop_time;
  flow.packet_bytes = packet_bytes;
  udp_flows_.emplace(flow_id, flow);
  sim_.telemetry().metrics().add(sim_.telemetry().core().flows_started);
  if (flow_tracker_) flow_tracker_->on_start(flow_id, src, dst, /*bytes=*/0, start_time);
  sim_.events().schedule_at(start_time, [this, flow_id] { udp_send_next(flow_id); });
  return flow_id;
}

std::vector<FlowRecord> TransportManager::all_flows() const {
  std::vector<FlowRecord> out = completed_;
  for (const auto& [id, s] : senders_) {
    if (s.done) continue;
    out.push_back(FlowRecord{id, s.src, s.dst, s.bytes, s.start_time, 0.0, false});
  }
  std::sort(out.begin(), out.end(),
            [](const FlowRecord& a, const FlowRecord& b) { return a.flow_id < b.flow_id; });
  return out;
}

Packet TransportManager::make_packet(PacketKind kind, HostId src, HostId dst, uint64_t flow_id,
                                     uint64_t seq, uint32_t size_bytes, uint8_t protocol) {
  Packet packet;
  packet.kind = kind;
  packet.id = sim_.next_packet_id();
  packet.src_host = src;
  packet.dst_host = dst;
  packet.src_switch = sim_.host_switch(src);
  packet.dst_switch = sim_.host_switch(dst);
  packet.flow_id = flow_id;
  packet.seq = seq;
  packet.size_bytes = size_bytes;
  packet.tuple.src_ip = 0x0a000000u + src;
  packet.tuple.dst_ip = 0x0a000000u + dst;
  packet.tuple.protocol = protocol;
  return packet;
}

// --------------------------------------------------------------------------
// TCP sender
// --------------------------------------------------------------------------

void TransportManager::tcp_start(TcpSender& sender) {
  sender.started = true;
  tcp_send_window(sender);
  tcp_arm_rto(sender);
}

void TransportManager::tcp_send_window(TcpSender& sender) {
  const uint64_t window = sender.acked + static_cast<uint64_t>(std::max(1.0, sender.cwnd));
  while (sender.next_seq < sender.total_pkts && sender.next_seq < window) {
    tcp_send_packet(sender, sender.next_seq);
    ++sender.next_seq;
  }
}

void TransportManager::tcp_send_packet(TcpSender& sender, uint64_t seq) {
  const uint32_t payload =
      seq + 1 == sender.total_pkts ? sender.last_pkt_payload : config_.mss_bytes;
  Packet packet = make_packet(PacketKind::kData, sender.src, sender.dst, sender.flow_id, seq,
                              payload + config_.header_bytes, /*protocol=*/6);
  packet.tuple.src_port = sender.src_port;
  packet.tuple.dst_port = sender.dst_port;
  if (path_sample_every_ != 0) {
    packet.int_sampled = obs::FlowTracker::sampled(sender.flow_id, seq, path_sample_every_);
  }
  sender.send_time[seq] = sim_.now();
  sim_.host_send(sender.src, std::move(packet));
}

void TransportManager::tcp_arm_rto(TcpSender& sender) {
  const uint64_t generation = ++sender.rto_generation;
  const uint64_t flow_id = sender.flow_id;
  sim_.events().schedule_in(sender.rto,
                            [this, flow_id, generation] { tcp_on_rto(flow_id, generation); });
}

void TransportManager::tcp_on_rto(uint64_t flow_id, uint64_t generation) {
  auto it = senders_.find(flow_id);
  if (it == senders_.end()) return;
  TcpSender& sender = it->second;
  if (sender.done || generation != sender.rto_generation) return;
  if (sender.acked >= sender.total_pkts) return;

  sim_.telemetry().metrics().add(sim_.telemetry().core().tcp_rto_fired);
  if (flow_tracker_) flow_tracker_->on_rto(flow_id);
  // Timeout: multiplicative backoff, window collapse, go-back to the hole.
  sender.ssthresh = std::max(sender.cwnd / 2.0, 2.0);
  sender.cwnd = 1.0;
  sender.dupacks = 0;
  sender.rto = std::min(sender.rto * 2.0, config_.max_rto_s);
  sender.next_seq = sender.acked;  // go-back-N from the first unacked packet
  tcp_send_window(sender);
  tcp_arm_rto(sender);
}

void TransportManager::tcp_complete(TcpSender& sender) {
  sim_.telemetry().metrics().add(sim_.telemetry().core().flows_completed);
  sim_.telemetry().metrics().observe(sim_.telemetry().core().fct_us,
                                     (sim_.now() - sender.start_time) * 1e6);
  if (flow_tracker_) flow_tracker_->on_complete(sender.flow_id, sim_.now());
  sender.done = true;
  ++sender.rto_generation;  // cancels any outstanding timer
  sender.send_time.release();
  completed_.push_back(FlowRecord{sender.flow_id, sender.src, sender.dst, sender.bytes,
                                  sender.start_time, sim_.now(), true});
}

// --------------------------------------------------------------------------
// Receive paths
// --------------------------------------------------------------------------

void TransportManager::on_host_receive(HostId host, Packet&& packet) {
  (void)host;
  switch (packet.kind) {
    case PacketKind::kData:
      on_data(std::move(packet));
      return;
    case PacketKind::kAck:
      on_ack(std::move(packet));
      return;
    case PacketKind::kProbe:
      return;  // probes never reach hosts; ignore defensively
  }
}

void TransportManager::on_data(Packet&& packet) {
  if (data_inspector_) data_inspector_(packet);
  if (packet.tuple.protocol == 17) {  // UDP: count and notify
    udp_bytes_received_ += packet.size_bytes;
    if (udp_hook_) udp_hook_(sim_.now(), packet.size_bytes);
    if (flow_tracker_) record_delivery(packet, /*reordered=*/false);
    return;
  }
  TcpReceiver& receiver = receivers_[packet.flow_id];
  // Reordering accounting (the "Ordered" objective): an arrival below the
  // highest sequence already seen was overtaken in the network.
  bool reordered = false;
  if (receiver.any_seen && packet.seq < receiver.max_seq_seen) {
    ++receiver.reordered;
    reordered = true;
  } else {
    receiver.max_seq_seen = packet.seq;
    receiver.any_seen = true;
  }
  if (flow_tracker_) record_delivery(packet, reordered);
  const bool marked = packet.ecn_marked;
  if (packet.seq == receiver.expected) {
    ++receiver.expected;
    while (receiver.out_of_order.erase(receiver.expected)) ++receiver.expected;
  } else if (packet.seq > receiver.expected) {
    receiver.out_of_order.insert(packet.seq);
  }
  // Cumulative ACK back to the sender; congestion marks are echoed (ECE).
  Packet ack = make_packet(PacketKind::kAck, packet.dst_host, packet.src_host, packet.flow_id,
                           receiver.expected, config_.ack_bytes, /*protocol=*/6);
  ack.tuple.src_port = packet.tuple.dst_port;
  ack.tuple.dst_port = packet.tuple.src_port;
  ack.ecn_marked = marked;
  sim_.host_send(packet.dst_host, std::move(ack));
}

void TransportManager::on_ack(Packet&& packet) {
  auto it = senders_.find(packet.flow_id);
  if (it == senders_.end()) return;
  TcpSender& sender = it->second;
  if (sender.done) return;
  const uint64_t ack = packet.seq;

  // DCTCP: account marks per window of data and cut cwnd by alpha/2 once per
  // window (Alizadeh et al., SIGCOMM'10).
  if (config_.dctcp && ack > sender.acked) {
    sender.dctcp_acked_total += ack - sender.acked;
    if (packet.ecn_marked) sender.dctcp_acked_marked += ack - sender.acked;
    if (ack >= sender.dctcp_window_end) {
      const double fraction =
          sender.dctcp_acked_total
              ? static_cast<double>(sender.dctcp_acked_marked) / sender.dctcp_acked_total
              : 0.0;
      sender.dctcp_alpha =
          (1.0 - config_.dctcp_gain) * sender.dctcp_alpha + config_.dctcp_gain * fraction;
      if (fraction > 0) {
        sender.cwnd = std::max(1.0, sender.cwnd * (1.0 - sender.dctcp_alpha / 2.0));
        sender.ssthresh = sender.cwnd;
      }
      sender.dctcp_acked_total = 0;
      sender.dctcp_acked_marked = 0;
      sender.dctcp_window_end = ack + static_cast<uint64_t>(std::max(1.0, sender.cwnd));
    }
  }

  if (ack > sender.acked) {
    // RTT sample from the newest acked packet (ignore retransmits implicitly:
    // the stored time is the most recent transmission).
    if (const Time* sent = sender.send_time.find(ack - 1)) {
      const double sample = sim_.now() - *sent;
      if (!sender.rtt_seeded) {
        sender.srtt = sample;
        sender.rttvar = sample / 2.0;
        sender.rtt_seeded = true;
      } else {
        sender.rttvar = 0.75 * sender.rttvar + 0.25 * std::abs(sender.srtt - sample);
        sender.srtt = 0.875 * sender.srtt + 0.125 * sample;
      }
      sender.rto = std::clamp(sender.srtt + 4.0 * sender.rttvar, config_.min_rto_s,
                              config_.max_rto_s);
    }
    for (uint64_t s = sender.acked; s < ack; ++s) sender.send_time.erase(s);
    const uint64_t newly = ack - sender.acked;
    sender.acked = ack;
    sender.dupacks = 0;
    if (sender.next_seq < sender.acked) sender.next_seq = sender.acked;

    // Congestion window growth: slow start below ssthresh, else AIMD.
    for (uint64_t i = 0; i < newly; ++i) {
      if (sender.cwnd < sender.ssthresh) {
        sender.cwnd += 1.0;
      } else {
        sender.cwnd += 1.0 / sender.cwnd;
      }
    }

    if (sender.acked >= sender.total_pkts) {
      tcp_complete(sender);
      return;
    }
    tcp_send_window(sender);
    tcp_arm_rto(sender);
  } else if (ack == sender.acked) {
    ++sender.dupacks;
    if (sender.dupacks == 3) {
      sim_.telemetry().metrics().add(sim_.telemetry().core().tcp_fast_retx);
      if (flow_tracker_) flow_tracker_->on_fast_retx(sender.flow_id);
      // Fast retransmit + window halving.
      sender.ssthresh = std::max(sender.cwnd / 2.0, 2.0);
      sender.cwnd = sender.ssthresh;
      sender.dupacks = 0;
      tcp_send_packet(sender, sender.acked);
      tcp_arm_rto(sender);
    }
  }
}

void TransportManager::record_delivery(const Packet& packet, bool reordered) {
  flow_tracker_->on_data(packet.flow_id, packet.size_bytes, packet.path_sig, packet.hops,
                         reordered);
  if (packet.int_sampled) {
    obs::PathHop hops[kIntHopCap];
    uint8_t n = 0;
    if (packet.path) {
      for (const IntHop& hop : packet.path->int_hops) {
        hops[n++] = obs::PathHop{hop.link, hop.queue_bytes, hop.t};
      }
    }
    flow_tracker_->on_path_sample(packet.flow_id, packet.seq, packet.dst_switch,
                                  packet.size_bytes, sim_.now(), packet.hops, hops, n);
  }
}

uint64_t TransportManager::total_reordered_packets() const {
  uint64_t total = 0;
  for (const auto& [id, receiver] : receivers_) total += receiver.reordered;
  return total;
}

// --------------------------------------------------------------------------
// UDP
// --------------------------------------------------------------------------

void TransportManager::udp_send_next(uint64_t flow_id) {
  auto it = udp_flows_.find(flow_id);
  if (it == udp_flows_.end()) return;
  UdpFlow& flow = it->second;
  if (sim_.now() >= flow.stop_time) return;
  Packet packet = make_packet(PacketKind::kData, flow.src, flow.dst, flow.flow_id,
                              flow.next_seq++, flow.packet_bytes, /*protocol=*/17);
  packet.tuple.src_port = static_cast<uint16_t>(7000 + flow_id % 1000);
  packet.tuple.dst_port = 7;
  if (path_sample_every_ != 0) {
    packet.int_sampled = obs::FlowTracker::sampled(flow.flow_id, packet.seq, path_sample_every_);
  }
  sim_.host_send(flow.src, std::move(packet));
  const double gap = flow.packet_bytes * 8.0 / flow.rate_bps;
  sim_.events().schedule_in(gap, [this, flow_id] { udp_send_next(flow_id); });
}

}  // namespace contra::sim
