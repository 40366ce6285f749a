// Simulation packets. One struct covers data, ACK, and probe packets —
// this is a simulator object, not a wire format; the wire sizes used for
// serialization and overhead accounting are explicit fields.
#pragma once

#include <cstdint>
#include <memory>
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

/// Cold side record of a packet: what only diagnostics write. It is
/// allocated on first write, so probes and untraced data packets carry only
/// a null pointer.
struct PathRecord {
  /// Switch-level path trace (appended by dataplanes as the packet crosses
  /// them when SimConfig::capture_traces is on). A simulation affordance for
  /// compliance checking — it has no wire-format counterpart and no effect
  /// on behaviour.
  std::vector<uint16_t> trace;
  /// Per-hop INT records of an int_sampled packet (flow telemetry).
  std::vector<IntHop> int_hops;
};

/// Owning pointer to a packet's PathRecord with value semantics: copying a
/// packet deep-copies its record, moving steals it.
class PathRecordPtr {
 public:
  PathRecordPtr() = default;
  PathRecordPtr(const PathRecordPtr& other) : record_(clone(other)) {}
  PathRecordPtr& operator=(const PathRecordPtr& other) {
    if (this != &other) record_ = clone(other);
    return *this;
  }
  PathRecordPtr(PathRecordPtr&&) noexcept = default;
  PathRecordPtr& operator=(PathRecordPtr&&) noexcept = default;

  explicit operator bool() const { return record_ != nullptr; }
  const PathRecord* operator->() const { return record_.get(); }
  /// The record, allocated on first use.
  PathRecord& get_or_create() {
    if (!record_) record_ = std::make_unique<PathRecord>();
    return *record_;
  }
  void reset() { record_.reset(); }

 private:
  static std::unique_ptr<PathRecord> clone(const PathRecordPtr& other) {
    return other.record_ ? std::make_unique<PathRecord>(*other.record_) : nullptr;
  }

  std::unique_ptr<PathRecord> record_;
};

/// Fields are grouped by alignment so the struct packs without interior
/// padding: the packet pool holds one of these per queued or propagating
/// packet, and the synchronized probe flood of a k=16 fat-tree holds about
/// half a million at once.
struct Packet {
  uint64_t id = 0;        ///< unique per packet, for tracing
  uint64_t flow_id = 0;   ///< transport flow
  uint64_t seq = 0;       ///< data: sequence number; ack: cumulative ack
  /// Flow telemetry: order-sensitive hash of fabric links crossed (stamped
  /// by Simulator::send_on_link only when Simulator::set_flow_telemetry(true)).
  uint64_t path_sig = 0;
  /// Probe payload; meaningful only when kind == PacketKind::kProbe.
  ProbeFields probe;
  /// Switch trace and INT hops; null unless a feature wrote to it.
  PathRecordPtr path;

  // Endpoints.
  HostId src_host = kInvalidHost;
  HostId dst_host = kInvalidHost;
  topology::NodeId src_switch = topology::kInvalidNode;
  topology::NodeId dst_switch = topology::kInvalidNode;

  uint32_t size_bytes = 0;
  util::FiveTuple tuple;
  RoutingState routing;

  PacketKind kind = PacketKind::kData;
  bool ecn_marked = false;  ///< congestion-experienced (set by queues, echoed by ACKs)
  uint8_t hops = 0;         ///< flow telemetry: fabric hops crossed
  bool int_sampled = false; ///< flow telemetry: this packet records INT hops (1-in-N)

  bool is_probe() const { return kind == PacketKind::kProbe; }

  /// Signature for the loop-detection table (§5.5): identifies "the same
  /// packet" across hops without the mutable tag/ttl fields.
  uint32_t loop_signature() const {
    uint64_t h = util::hash_combine(flow_id, seq);
    h = util::hash_combine(h, id);
    return static_cast<uint32_t>(h);
  }
};

static_assert(sizeof(Packet) <= 160, "a Packet is one packet-pool slot; keep the hot record small");
static_assert(std::is_nothrow_move_constructible_v<Packet>,
              "pool slots and mailboxes move packets without a fallback copy");

/// Slab allocator and freelist for packet storage. A packet occupies one
/// slot from Link::enqueue until its delivery completes (link FIFOs and
/// deliver events hold Packet* handles into it); recycling the slots keeps
/// the steady-state hop path allocation-free. Slots are carved from
/// fixed-size slabs, so a slot's address never changes while the pool lives.
/// Slots are poisoned while free in debug builds so reuse-after-release is
/// caught instead of silently corrupting a simulation. Not thread-safe: each
/// shard's event queue owns one.
class PacketPool {
 public:
  static constexpr size_t kSlabSlots = 512;

  /// Returns a recycled (or newly carved) packet slot. The caller owns the
  /// slot until it releases it; contents are whatever the caller assigns.
  Packet* acquire();
  /// Returns a slot to the freelist, dropping its cold record. Double-release
  /// asserts in debug builds.
  void release(Packet* packet);

  /// Slots ever handed out (freelist high-water mark); stable once warm.
  size_t allocated() const { return carved_; }
  size_t free_count() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<Packet[]>> slabs_;
  size_t carved_ = 0;  ///< slots handed out of slabs_ so far
  std::vector<Packet*> free_;
};

}  // namespace contra::sim
