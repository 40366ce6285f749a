// A simulated directed link: store-and-forward serialization at the link
// rate, propagation delay, a drop-tail byte-capacity queue, and the
// utilization estimator the dataplane reads (an EWMA over transmitted bytes,
// the estimator HULA and Contra use in hardware).
#pragma once

#include <cstdint>
#include <functional>

#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "util/ring_queue.h"

namespace contra::sim {

/// Gray-failure state (DESIGN.md §13): a link that is sick but not down.
/// Applied by the churn engine; all-defaults means healthy.
struct GrayParams {
  double loss_prob = 0.0;       ///< per-enqueue drop probability in [0, 1)
  double extra_delay_s = 0.0;   ///< added propagation delay (>= 0: lookahead-safe)
  double capacity_factor = 1.0; ///< serialization-rate derate in (0, 1]
  uint64_t salt = 0;            ///< loss-sequence seed (deterministic replay)
};

struct LinkStats {
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t tx_data_bytes = 0;
  uint64_t tx_ack_bytes = 0;
  uint64_t tx_probe_bytes = 0;
  uint64_t tx_data_packets = 0;
  uint64_t tx_ack_packets = 0;
  uint64_t tx_probe_packets = 0;
  uint64_t drops = 0;       ///< all kinds (incl. probes sent at down links)
  uint64_t drop_bytes = 0;
  uint64_t data_drops = 0;  ///< data/ACK packets only — the loss that hurts flows
};

class Link {
 public:
  using DeliverFn = std::function<void(Packet&&)>;
  /// Called on every enqueue with (time, queue_bytes_after); used by the
  /// queue-length CDF experiment (Fig. 13).
  using QueueSampleFn = std::function<void(Time, uint64_t)>;

  Link(EventQueue& events, double capacity_bps, double delay_s, uint64_t queue_capacity_bytes,
       double util_tau_s);

  /// ECN: packets enqueued while the queue exceeds this threshold get
  /// congestion-marked (0 disables marking — the default).
  void set_ecn_threshold_bytes(uint64_t bytes) { ecn_threshold_bytes_ = bytes; }

  /// Cross-shard hop hook (parallel engine): when set, finished transmissions
  /// hand (arrival_time, packet) to this function instead of scheduling the
  /// propagation-delivery event locally — the destination shard schedules the
  /// delivery on *its* event queue when the mailbox drains at the epoch
  /// barrier. arrival_time already includes the propagation delay.
  using RemoteForwardFn = std::function<void(Time arrival_time, Packet&&)>;

  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }
  void set_remote_forward(RemoteForwardFn forward) { remote_forward_ = std::move(forward); }
  void set_queue_sampler(QueueSampleFn sampler) { queue_sampler_ = std::move(sampler); }

  /// Telemetry tap: drop/ECN counters and per-drop trace records, attributed
  /// to `link_id`. The Simulator wires this for every link it creates.
  void set_telemetry(obs::Telemetry* telemetry, uint32_t link_id) {
    telemetry_ = telemetry;
    link_id_ = link_id;
  }

  /// Enqueues for transmission; false (and a drop count) if the queue is
  /// full or the link is administratively down.
  bool enqueue(Packet&& packet);

  void set_down(bool down);
  bool down() const { return down_; }

  /// Installs / clears gray-failure degradation. Loss draws come from a
  /// counter-keyed hash of `salt` (not packet ids, which are shard-namespaced
  /// under the parallel engine), so the drop sequence is deterministic and
  /// workers-invariant. Out-of-range parameters are clamped: extra delay
  /// below 0 or a capacity factor outside (0, 1] would break the parallel
  /// engine's conservative lookahead.
  void set_gray(const GrayParams& gray);
  void clear_gray() { set_gray(GrayParams{}); }
  bool gray() const {
    return gray_.loss_prob > 0.0 || gray_.extra_delay_s > 0.0 || gray_.capacity_factor != 1.0;
  }
  const GrayParams& gray_params() const { return gray_; }

  /// Current utilization estimate in [0, ~1]: EWMA of transmitted bytes over
  /// the decay window tau, normalized by capacity. Under the hybrid engine
  /// the fluid load share is added on top (see set_fluid_load_bps).
  double utilization() const;

  /// Hybrid engine (DESIGN.md §14): wire-rate fluid traffic currently
  /// crossing this link. Fluid flows transmit no packets, so the EWMA never
  /// sees them; this term feeds their load into utilization() so probes and
  /// the routing metric react to the traffic the engine no longer simulates.
  void set_fluid_load_bps(double bps) { fluid_load_bps_ = bps; }
  double fluid_load_bps() const { return fluid_load_bps_; }

  uint64_t queue_bytes() const { return queue_bytes_; }
  /// Effective serialization rate (gray capacity derate included).
  double capacity_bps() const { return capacity_bps_ * gray_.capacity_factor; }
  /// Effective propagation delay (gray added latency included).
  double delay_s() const { return delay_s_ + gray_.extra_delay_s; }
  const LinkStats& stats() const { return stats_; }

 private:
  // The event queue dispatches the two typed per-hop events (transmit-done,
  // propagation-delivery) straight into these without going through a
  // closure; see EventQueue::schedule_link_tx / schedule_deliver.
  friend class EventQueue;

  void maybe_start_transmit();
  void on_transmit_done();
  /// Propagation finished: hand the pooled packet to deliver_ and return the
  /// slot to the event queue's pool.
  void complete_delivery(Packet* packet);
  void note_tx(const Packet& packet);

  EventQueue& events_;
  double capacity_bps_;
  double delay_s_;
  uint64_t queue_capacity_bytes_;
  double util_tau_s_;

  /// Handles to packets parked in events_.packet_pool(), front to back.
  util::RingQueue<Packet*> queue_;
  uint64_t queue_bytes_ = 0;
  uint64_t ecn_threshold_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  /// Completion stamp of the in-flight transmission; on_transmit_done ignores
  /// events whose firing time does not match (they belong to a transmission
  /// aborted by set_down or superseded after a flap).
  Time tx_done_at_ = 0.0;

  GrayParams gray_;
  uint64_t gray_tries_ = 0;  ///< enqueue attempts under gray loss (hash key)

  // Utilization EWMA state; written only by note_tx, so utilization() reads
  // are idempotent at any timestamp.
  double util_bytes_ = 0.0;
  Time util_updated_ = 0.0;
  double fluid_load_bps_ = 0.0;  ///< hybrid engine's committed wire-rate load

  void note_drop(const Packet& packet);

  DeliverFn deliver_;
  RemoteForwardFn remote_forward_;
  QueueSampleFn queue_sampler_;
  LinkStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
  uint32_t link_id_ = obs::kNoField;
};

}  // namespace contra::sim
