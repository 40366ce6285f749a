// Simulation packets. One struct covers data, ACK, and probe packets —
// this is a simulator object, not a wire format; the wire sizes used for
// serialization and overhead accounting are explicit fields.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "pg/policy_eval.h"
#include "topology/topology.h"
#include "util/hash.h"

namespace contra::sim {

using HostId = uint32_t;
inline constexpr HostId kInvalidHost = UINT32_MAX;

enum class PacketKind : uint8_t { kData, kAck, kProbe };

/// Routing/protocol fields a Contra (or baseline) switch reads and writes.
struct RoutingState {
  uint32_t tag = 0;            ///< Contra PG tag (rewritten hop by hop)
  uint32_t pid = 0;            ///< Contra probe id
  uint32_t path_id = 0;        ///< SPAIN path index
  uint32_t traffic_class = 0;  ///< classified policies: rule index (stamped at ingress)
  uint8_t ttl = 64;
  bool stamped = false;        ///< first switch has chosen (tag, pid)
  bool hula_up = true;         ///< HULA: probe still traveling upward
};

/// Probe payload (Contra and HULA reuse the same carrier).
struct ProbeFields {
  topology::NodeId origin = topology::kInvalidNode;
  uint32_t pid = 0;
  uint32_t tag = 0;
  uint32_t traffic_class = 0;  ///< classified policies: which protocol instance
  uint64_t version = 0;
  pg::MetricsVector mv;
  /// Triggered-update poison advert (DESIGN.md §12): the sender's row for
  /// (origin, tag, pid) became unusable; receivers who route via the sender
  /// withdraw theirs too instead of waiting for metric expiry.
  bool withdraw = false;
};

/// One INT-style hop record accumulated on sampled data packets (flow
/// telemetry, DESIGN.md §11): the directed link crossed, the queue depth the
/// packet found there, and the enqueue time.
struct IntHop {
  uint32_t link = 0;
  uint32_t queue_bytes = 0;
  double t = 0.0;
};

/// Cap on recorded INT hops per packet (== obs::PathSample::kMaxHops; the
/// hop count keeps counting past it, so truncated samples are detectable).
inline constexpr size_t kIntHopCap = 16;

// Probe payloads must stay heap-free: probe fan-out copies packets once per
// PG out-edge, and the metrics vector rides along as a fixed-width register
// block exactly as it would on a switch ASIC.
static_assert(std::is_trivially_copyable_v<ProbeFields>,
              "probe fields must copy without touching the heap");
static_assert(std::is_trivially_copyable_v<IntHop>,
              "INT hop records must copy without touching the heap");

struct Packet {
  PacketKind kind = PacketKind::kData;
  uint64_t id = 0;  ///< unique per packet, for tracing

  // Endpoints.
  HostId src_host = kInvalidHost;
  HostId dst_host = kInvalidHost;
  topology::NodeId src_switch = topology::kInvalidNode;
  topology::NodeId dst_switch = topology::kInvalidNode;

  // Transport.
  uint64_t flow_id = 0;
  uint64_t seq = 0;       ///< data: sequence number; ack: cumulative ack
  uint32_t size_bytes = 0;
  bool ecn_marked = false;  ///< congestion-experienced (set by queues, echoed by ACKs)

  util::FiveTuple tuple;
  RoutingState routing;
  std::optional<ProbeFields> probe;

  /// Switch-level path trace (appended by dataplanes as the packet crosses
  /// them). A simulation affordance for compliance checking — it has no
  /// wire-format counterpart and no effect on behaviour.
  std::vector<uint16_t> trace;

  // Flow telemetry (stamped by Simulator::send_on_link only when
  // Simulator::set_flow_telemetry(true); all defaults otherwise, so the
  // fields copy for free on the probe-flood hot path).
  uint64_t path_sig = 0;    ///< order-sensitive hash of fabric links crossed
  uint8_t hops = 0;         ///< fabric hops crossed
  bool int_sampled = false; ///< this packet accumulates int_hops (1-in-N)
  /// Per-hop INT records; empty (no heap) unless int_sampled.
  std::vector<IntHop> int_hops;

  bool is_probe() const { return kind == PacketKind::kProbe; }

  /// Signature for the loop-detection table (§5.5): identifies "the same
  /// packet" across hops without the mutable tag/ttl fields.
  uint32_t loop_signature() const {
    uint64_t h = util::hash_combine(flow_id, seq);
    h = util::hash_combine(h, id);
    return static_cast<uint32_t>(h);
  }
};

/// Freelist recycler for in-flight packet storage. The event core parks a
/// packet here for the propagation leg of every hop (see
/// EventQueue::schedule_deliver); recycling the slots keeps the steady-state
/// hop path allocation-free. Slots are poisoned while free in debug builds
/// so reuse-after-release is caught instead of silently corrupting a
/// simulation.
class PacketPool {
 public:
  /// Returns a recycled (or newly created) packet slot. The caller owns the
  /// slot until it releases it; contents are whatever the caller assigns.
  Packet* acquire();
  /// Returns a slot to the freelist. Double-release asserts in debug builds.
  void release(Packet* packet);

  /// Slots ever created (freelist high-water mark); stable once warm.
  size_t allocated() const { return storage_.size(); }
  size_t free_count() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<Packet>> storage_;
  std::vector<Packet*> free_;
};

}  // namespace contra::sim
