#include "sim/link.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace contra::sim {

Link::Link(EventQueue& events, double capacity_bps, double delay_s,
           uint64_t queue_capacity_bytes, double util_tau_s)
    : events_(events),
      capacity_bps_(capacity_bps),
      delay_s_(delay_s),
      queue_capacity_bytes_(queue_capacity_bytes),
      util_tau_s_(util_tau_s) {}

bool Link::enqueue(Packet&& packet) {
  if (!down_ && gray_.loss_prob > 0.0) {
    // Gray loss: one hash draw per enqueue attempt, keyed by a per-link
    // counter + salt. Packet ids would be the obvious key, but they are
    // shard-namespaced under the parallel engine and would break
    // serial/parallel loss parity.
    const double draw =
        static_cast<double>(util::mix64(gray_.salt + ++gray_tries_) >> 11) * 0x1.0p-53;
    if (draw < gray_.loss_prob) {
      if (telemetry_ != nullptr) telemetry_->metrics().add(telemetry_->core().gray_loss_drops);
      note_drop(packet);
      return false;
    }
  }
  if (down_ || queue_bytes_ + packet.size_bytes > queue_capacity_bytes_) {
    note_drop(packet);
    return false;
  }
  if (ecn_threshold_bytes_ > 0 && queue_bytes_ > ecn_threshold_bytes_) {
    packet.ecn_marked = true;  // DCTCP-style instantaneous-queue marking
    if (telemetry_ != nullptr) telemetry_->metrics().add(telemetry_->core().link_ecn_marks);
  }
  queue_bytes_ += packet.size_bytes;
  // The packet's one move per hop: into the pool slot that carries it
  // through the FIFO and the propagation leg until delivery.
  Packet* slot = events_.packet_pool().acquire();
  *slot = std::move(packet);
  queue_.push_back(slot);
  if (queue_sampler_) queue_sampler_(events_.now(), queue_bytes_);
  maybe_start_transmit();
  return true;
}

void Link::set_down(bool down) {
  if (down_ == down) return;  // duplicate schedule events must be idempotent
  down_ = down;
  if (down) {
    // In-queue packets are lost with the link — including the in-flight head
    // being serialized. Abort that transmission too: leaving busy_ set until
    // the already-scheduled transmit-done fires would let a restore inside
    // the serialization window either stall (enqueue sees busy_) or, once
    // the stale event fires, pop and forward a *new* head packet before its
    // serialization time has elapsed. The stale event itself is disarmed by
    // the tx_done_at_ stamp check in on_transmit_done.
    while (!queue_.empty()) {
      Packet* packet = queue_.pop_front();
      note_drop(*packet);
      events_.packet_pool().release(packet);
    }
    queue_bytes_ = 0;
    busy_ = false;
  }
}

void Link::set_gray(const GrayParams& gray) {
  gray_.loss_prob = std::clamp(gray.loss_prob, 0.0, 1.0);
  gray_.extra_delay_s = std::max(0.0, gray.extra_delay_s);
  gray_.capacity_factor = std::clamp(gray.capacity_factor, 1e-6, 1.0);
  gray_.salt = gray.salt;
  // gray_tries_ keeps counting across episodes so re-applying the same salt
  // mid-run cannot replay an earlier drop sequence.
}

void Link::note_drop(const Packet& packet) {
  ++stats_.drops;
  stats_.drop_bytes += packet.size_bytes;
  if (packet.kind != PacketKind::kProbe) ++stats_.data_drops;
  if (telemetry_ == nullptr) return;
  telemetry_->metrics().add(telemetry_->core().link_drops);
  telemetry_->metrics().observe(telemetry_->core().drop_queue_bytes,
                                static_cast<double>(queue_bytes_));
  if (telemetry_->tracing()) {
    obs::TraceRecord r;
    r.t = events_.now();
    r.ev = obs::Ev::kDrop;
    r.link = link_id_;
    r.aux = static_cast<uint32_t>(packet.kind);
    r.value = static_cast<double>(packet.size_bytes);
    telemetry_->emit(r);
  }
}

void Link::maybe_start_transmit() {
  if (busy_ || queue_.empty() || down_) return;
  busy_ = true;
  const double tx_time = queue_.front()->size_bytes * 8.0 / capacity_bps();
  tx_done_at_ = events_.schedule_link_tx_in(tx_time, this);
}

void Link::on_transmit_done() {
  // Stale completion guard: the transmission this event belonged to was
  // aborted by set_down(true), or superseded by one started after a
  // fail→restore flap (whose own completion carries a different stamp).
  // Both doubles come from the same now()+tx_time computation, so exact
  // equality is the right test.
  if (!busy_ || events_.now() != tx_done_at_) return;
  busy_ = false;
  if (down_ || queue_.empty()) return;  // lost while down
  Packet* packet = queue_.pop_front();
  queue_bytes_ -= packet->size_bytes;
  note_tx(*packet);
  // Propagation: deliver after the wire delay — locally, in the same pool
  // slot, or via the cross-shard mailbox when this link's receive side lives
  // in another shard (the mailbox owns the packet from here; the slot goes
  // back to this shard's pool).
  // delay_s() (not the raw member): a gray link's extra propagation latency
  // applies here. Only ever >= the base delay, so the parallel engine's
  // conservative lookahead (computed from base delays) stays valid.
  if (remote_forward_) {
    remote_forward_(events_.now() + delay_s(), std::move(*packet));
    events_.packet_pool().release(packet);
  } else {
    events_.schedule_deliver_in(delay_s(), this, packet);
  }
  maybe_start_transmit();
}

void Link::complete_delivery(Packet* packet) {
  if (deliver_ && !down_) deliver_(std::move(*packet));
  events_.packet_pool().release(packet);
}

void Link::note_tx(const Packet& packet) {
  ++stats_.tx_packets;
  stats_.tx_bytes += packet.size_bytes;
  switch (packet.kind) {
    case PacketKind::kData:
      stats_.tx_data_bytes += packet.size_bytes;
      ++stats_.tx_data_packets;
      break;
    case PacketKind::kAck:
      stats_.tx_ack_bytes += packet.size_bytes;
      ++stats_.tx_ack_packets;
      break;
    case PacketKind::kProbe:
      stats_.tx_probe_bytes += packet.size_bytes;
      ++stats_.tx_probe_packets;
      break;
  }
  // Utilization EWMA (HULA-style): linear decay over tau, then add the
  // transmitted bytes.
  const Time now = events_.now();
  const double decay = std::max(0.0, 1.0 - (now - util_updated_) / util_tau_s_);
  util_bytes_ = packet.size_bytes + util_bytes_ * decay;
  util_updated_ = now;
}

double Link::utilization() const {
  // Pure read: the decay since the last transmission is computed on the fly
  // and never written back. The linear decay factor does not compose across
  // split intervals ((1-a)(1-b) != 1-(a+b)), so a read that wrote back would
  // make the estimate depend on how often it is observed — probes sampling a
  // link twice in one round would see different values.
  const double decay = std::max(0.0, 1.0 - (events_.now() - util_updated_) / util_tau_s_);
  // Normalized by the *effective* rate: a capacity-derated gray link carrying
  // unchanged traffic reads as more utilized, which is exactly the drift the
  // routing metric should see.
  const double window_bytes = capacity_bps() / 8.0 * util_tau_s_;
  const double packet_share = window_bytes > 0 ? util_bytes_ * decay / window_bytes : 0.0;
  // Fluid flows carry no packets; their committed wire rate contributes as a
  // steady capacity share so probe metrics see the hybrid engine's traffic.
  const double cap = capacity_bps();
  const double fluid_share = cap > 0 ? fluid_load_bps_ / cap : 0.0;
  return packet_share + fluid_share;
}

}  // namespace contra::sim
