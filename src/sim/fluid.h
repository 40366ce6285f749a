// Hybrid flow-level ("fluid") engine — DESIGN.md §14.
//
// Bulk data flows advance at flow level: each flow holds a path (chosen by
// querying the installed dataplane once, exactly as the first packet of the
// flow would be routed) and a rate from per-link max-min fair sharing.
// Rates are recomputed in batched quanta (FluidConfig::quantum_s): at each
// quantum tick the engine settles progress, completes flows at their
// analytic finish times, admits newly started flows, re-walks paths when
// link state changed, and water-fills the active set. Probes, flowlets and
// the 1-in-n sampled flow subset stay packet-level in the TransportManager;
// the engine pushes its per-link fluid load into Link::utilization() so the
// control plane sees the traffic it no longer simulates packet by packet.
//
// Storage is SoA over dense flow slots (freelist-recycled) with a fixed-
// stride path arena and flat per-link scratch arrays, so the steady-state
// tick allocates nothing once warm (bench-gated by hybrid_fabric).
//
// Determinism: every decision is made at a quantum boundary from state that
// is itself deterministic. ParallelSimulator runs each tick on the main
// thread while every shard is parked at exactly the tick time, so results
// are byte-identical for any worker count at a fixed shard count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "sim/transport.h"

namespace contra::sim {

struct FluidConfig {
  /// Rate-recomputation quantum. Completions inside a quantum are settled
  /// at their analytic finish time, but the bandwidth they release is only
  /// redistributed at the next tick (the exactness boundary, DESIGN.md §14).
  double quantum_s = 64e-6;
  /// Goodput share of the wire: link capacity is derated by
  /// mss / (mss + header) so fluid rates are payload rates, matching the
  /// byte counts FlowRecords carry.
  uint32_t mss_bytes = 1460;
  uint32_t header_bytes = 40;
  /// Path slots per flow (includes the two host links). Walks longer than
  /// this stall the flow (routing loop guard).
  uint32_t max_hops = 24;
};

struct FluidStats {
  uint64_t flows_started = 0;
  uint64_t flows_completed = 0;
  uint64_t ticks = 0;
  uint64_t recomputes = 0;      ///< water-fill passes (ticks with set/rate changes)
  uint64_t reroutes = 0;        ///< path re-walks after link-state generation changes
  uint64_t stalls = 0;          ///< route walks that found no usable path
  uint64_t peak_active = 0;
};

class TransportManager;

class FluidEngine {
 public:
  explicit FluidEngine(FluidConfig config = {});

  /// Binds the engine to the shard simulators: route queries and link
  /// reads/writes go to the shard owning each node / link transmit side.
  /// Ticks are driven by ParallelSimulator (next_wake / advance_to) on the
  /// main thread while every shard is parked at the tick time.
  void bind_shards(std::vector<Simulator*> sims,
                   std::function<uint32_t(topology::NodeId)> shard_of);

  const FluidConfig& config() const { return config_; }
  const FluidStats& stats() const { return stats_; }
  size_t active_flows() const { return active_.size(); }

  /// Registers a fluid flow; the owner's on_fluid_complete receives the
  /// completed FlowRecord. start_time must not be in the engine's past.
  void start_flow(TransportManager* owner, uint64_t flow_id, HostId src, HostId dst,
                  uint64_t bytes, Time start_time);

  /// Earliest time the engine must run (+inf when idle). ParallelSimulator
  /// splits its run windows here.
  Time next_wake() const;

  /// Runs the tick batch at exactly `t` (== next_wake()). Settles
  /// completions, admits starts, re-walks paths when link state changed,
  /// water-fills rates and pushes per-link fluid load into Link state.
  void advance_to(Time t);

  /// Fluid goodput currently crossing a directed link (test hook; wire
  /// bytes add the header derate back).
  double link_rate_bps(topology::LinkId link) const {
    return link < link_rate_.size() ? link_rate_[link] : 0.0;
  }

  /// FNV-1a digest over completed flows (id, end-time bits) in completion
  /// order — the worker-invariance pin for tests.
  uint64_t completion_digest() const { return completion_digest_; }

 private:
  struct PendingStart {
    Time start = 0.0;
    uint64_t flow_id = 0;
    HostId src = kInvalidHost;
    HostId dst = kInvalidHost;
    uint64_t bytes = 0;
    TransportManager* owner = nullptr;
  };
  struct ByStart {
    bool operator()(const PendingStart& a, const PendingStart& b) const {
      if (a.start != b.start) return a.start > b.start;  // min-heap
      return a.flow_id > b.flow_id;
    }
  };

  /// Lazy-deleted water-fill heap entry (min by share, link-id tie-break).
  /// Entries whose epoch no longer matches wf_epoch_[link] are skipped.
  struct WfEntry {
    double share = 0.0;
    topology::LinkId link = 0;
    uint32_t epoch = 0;
  };
  struct WfCmp {
    bool operator()(const WfEntry& a, const WfEntry& b) const {
      if (a.share != b.share) return a.share > b.share;  // min-heap
      return a.link > b.link;
    }
  };

  void ensure_link_tables();
  Simulator& sim_for(topology::NodeId node) { return *sims_[shard_of_(node)]; }
  /// Canonical replica of a link: the shard owning its transmit side (the
  /// only replica whose EWMA ever moves, and so the one probes read).
  Link& link_ref(topology::LinkId l) { return sims_[link_owner_[l]]->link(l); }
  uint64_t link_generation_sum() const;

  /// Walks the installed dataplane from src's edge switch to dst's; fills
  /// the flow's path arena slot. Returns false when no usable route exists
  /// right now (the flow stalls with rate 0 and re-walks on link changes).
  bool walk_route(uint32_t slot, Time now);

  void admit_starts(Time now, bool& dirty);
  void settle(Time now, bool& dirty);
  void rewalk_all(Time now);
  void recompute_rates(Time now);
  void push_link_loads();

  uint32_t acquire_slot();
  void release_slot(uint32_t slot);

  FluidConfig config_;
  FluidStats stats_;

  std::vector<Simulator*> sims_;
  std::function<uint32_t(topology::NodeId)> shard_of_;
  uint32_t num_links_ = 0;  ///< topology links + host links

  // ----- flow SoA (slot-indexed, freelist-recycled) ------------------------
  std::vector<uint64_t> f_id_;
  std::vector<uint32_t> f_src_, f_dst_;
  std::vector<double> f_remaining_;   ///< payload bits left (f_rate_ is bps)
  std::vector<double> f_rate_;        ///< goodput bps (0 = stalled)
  std::vector<double> f_start_;       ///< nominal start (FCT origin)
  std::vector<double> f_origin_;      ///< start of the current settle interval
  std::vector<uint64_t> f_bytes_;
  std::vector<double> f_latency_;     ///< FCT floor: fwd prop+serialization, ack-return prop
  std::vector<uint16_t> f_path_len_;  ///< 0 = stalled (no usable route)
  std::vector<TransportManager*> f_owner_;
  std::vector<topology::LinkId> path_arena_;  ///< stride = config_.max_hops
  std::vector<uint32_t> free_slots_;

  /// Active slots in admission order (stable compaction on completion keeps
  /// iteration — and therefore float summation — order deterministic).
  std::vector<uint32_t> active_;

  // ----- per-link scratch (sized to num_links_, reset via touched list) ----
  std::vector<uint32_t> link_owner_;  ///< owning shard per link
  std::vector<double> link_rate_;     ///< committed fluid goodput per link
  std::vector<double> wf_cap_;        ///< water-fill residual capacity
  std::vector<uint32_t> wf_nflows_;   ///< water-fill unfrozen flow count
  std::vector<uint32_t> wf_count_;    ///< slice length in wf_members_
  std::vector<uint32_t> wf_offset_;   ///< per-link slice into wf_members_
  std::vector<uint32_t> wf_members_;  ///< flow slots grouped by link
  std::vector<uint32_t> wf_epoch_;    ///< lazy-deletion stamps for wf_heap_
  std::vector<WfEntry> wf_heap_;      ///< binary heap storage (std::*_heap)
  std::vector<topology::LinkId> touched_;
  std::vector<uint8_t> link_touched_;
  std::vector<topology::LinkId> loaded_links_;  ///< links with committed fluid load

  // Tick-local scratch: (record end time, slot) of flows completing this
  // tick, settled in (end, flow_id) order.
  std::vector<std::pair<double, uint32_t>> fin_order_;

  std::vector<PendingStart> pending_;  ///< min-heap (ByStart)

  Time last_settle_ = 0.0;
  uint64_t last_link_generation_ = 0;
  uint64_t completion_digest_ = 14695981039346656037ull;
};

}  // namespace contra::sim
