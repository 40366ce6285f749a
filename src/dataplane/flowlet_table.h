// Policy-aware flowlet switching table (paper §5.3).
//
// Classic flowlet switching keys on the flow hash alone; Contra additionally
// keys on the packet's PG tag and probe id so that a pinned decision can
// never leak traffic across policy constraints (the Fig. 8a violation). The
// same class serves the baselines by leaving tag/pid at 0.
#pragma once

#include <cstdint>

#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "topology/topology.h"
#include "util/flat_map.h"
#include "util/hash.h"

namespace contra::dataplane {

struct FlowletKey {
  uint32_t tag = 0;
  uint32_t pid = 0;
  uint32_t fid = 0;  ///< five-tuple hash

  friend bool operator==(const FlowletKey&, const FlowletKey&) = default;
};

struct FlowletKeyHash {
  size_t operator()(const FlowletKey& k) const {
    uint64_t h = util::hash_combine(k.tag, k.pid);
    return static_cast<size_t>(util::hash_combine(h, k.fid));
  }
};

struct FlowletEntry {
  topology::LinkId nhop = topology::kInvalidLink;
  uint32_t ntag = 0;
  uint32_t npid = 0;
  sim::Time last_seen = 0.0;
};

struct FlowletStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expirations = 0;
  uint64_t flushes = 0;
  /// Re-pins of a previously expired/flushed key onto a different next hop
  /// (a path switch). Counted whether or not telemetry is attached.
  uint64_t switches = 0;
};

class FlowletTable {
 public:
  explicit FlowletTable(double timeout_s) : timeout_s_(timeout_s) {}

  /// Attributes flowlet create/switch/expire/flush events to `switch_id`.
  void bind_telemetry(obs::Telemetry* telemetry, uint32_t switch_id) {
    telemetry_ = telemetry;
    switch_id_ = switch_id;
  }

  /// Bound on the path-switch tombstone map: keys that expired but were
  /// never re-pinned would otherwise accumulate forever, so reaching the cap
  /// restarts the window (losing only switch-vs-create attribution for the
  /// dropped tombstones, never correctness). The restart is O(1).
  static constexpr size_t kPrevNhopCap = 1u << 12;
  size_t prev_nhop_window_size() const { return prev_nhop_.size(); }

  /// Live entry for this key, or nullptr (expired entries are erased and
  /// counted). Does NOT refresh the timestamp — call touch() after use.
  FlowletEntry* lookup(const FlowletKey& key, sim::Time now);

  /// Pins (or re-pins) a decision.
  void pin(const FlowletKey& key, const FlowletEntry& entry, sim::Time now = 0.0);

  /// Refreshes the inter-packet gap timer.
  void touch(const FlowletKey& key, sim::Time now);

  /// Removes a pinned decision (loop breaking, failure expiry).
  void flush(const FlowletKey& key, sim::Time now = 0.0);

  size_t size() const { return table_.size(); }
  const FlowletStats& stats() const { return stats_; }
  double timeout_s() const { return timeout_s_; }

 private:
  void emit(obs::Ev ev, const FlowletKey& key, topology::LinkId nhop, double t,
            double value = 0.0) const;

  double timeout_s_;
  util::FlatMap<FlowletKey, FlowletEntry, FlowletKeyHash> table_;
  FlowletStats stats_;
  void remember_prev_nhop(const FlowletKey& key, topology::LinkId nhop);

  obs::Telemetry* telemetry_ = nullptr;
  uint32_t switch_id_ = obs::kNoField;
  /// Last next hop a (now removed) key was pinned to — distinguishes a
  /// flowlet *switch* from a flowlet *create*. Maintained whenever entries
  /// are removed (metrics must count switches even without a trace sink) and
  /// bounded by kPrevNhopCap.
  util::FlatMap<FlowletKey, topology::LinkId, FlowletKeyHash> prev_nhop_;
};

}  // namespace contra::dataplane
