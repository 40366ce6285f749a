// The Contra switch dataplane: the executable semantics of the generated
// per-switch P4 programs (paper §4.2-§5.5).
//
// Implements, per the paper's final refinement stack:
//   * PROCESSPROBE with versioned probes (§4.3 + §5.1): per-(dst, tag, pid)
//     FwdT entries store the metrics vector, next tag, next hop, and probe
//     version; older versions are discarded, newer versions always adopted,
//     same-version probes adopted only when they improve f(pid, mv);
//   * INITPROBE/MULTICASTPROBE probe origination at valid destinations, one
//     probe per PG out-edge link per round;
//   * SWIFORWARDPKT with BestT source selection (the s() rank over all
//     (tag, pid) candidates of the destination);
//   * policy-aware flowlet switching keyed by (tag, pid, fid) (§5.3);
//   * probe-silence failure detection + flowlet/metric expiration (§5.4);
//   * lazy transient-loop breaking via the TTL-spread table (§5.5).
//
// The ablation flags in ContraSwitchOptions turn individual refinements off
// so experiments can demonstrate why each exists.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/flowlet_table.h"
#include "dataplane/loop_detector.h"
#include "dataplane/probe_engine.h"
#include "pg/policy_eval.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "util/flat_map.h"

namespace contra::dataplane {

struct ContraSwitchOptions {
  double probe_period_s = 256e-6;
  double flowlet_timeout_s = 200e-6;
  /// Probe-silence multiplier: link presumed failed after this many periods.
  double failure_detect_periods = 3.0;
  /// FwdT entries older than this many periods rank as unusable (§5.4
  /// metric expiration).
  double metric_expiry_periods = 12.0;
  uint8_t loop_ttl_threshold = 6;
  uint32_t loop_table_slots = 256;
  uint32_t probe_base_bytes = 64;
  /// Utilization is quantized to this step when written into probe metrics,
  /// mirroring the few-bit utilization registers of switch ASICs. Coarse
  /// steps make near-equal paths tie so the length tie-break keeps traffic
  /// on shortest paths unless congestion differences are real — without it,
  /// measurement noise steers flows onto arbitrarily long "less utilized"
  /// paths and inflates total traffic.
  double util_quantum = 1.0 / 64;
  /// Extra wire bytes data packets carry for the (tag, pid) header — added
  /// when the first switch stamps the packet, so Fig. 16's overhead includes
  /// tag bytes physically.
  uint32_t tag_overhead_bytes = 2;

  // Ablation knobs (each defaults to the paper's final design).
  bool versioned_probes = true;      ///< §5.1 off => classic distance-vector
  bool policy_aware_flowlets = true; ///< §5.3 off => flowlet key ignores tag/pid
  bool loop_detection = true;        ///< §5.5 off => no lazy loop breaking

  /// Version-reset detection (DSDV-style sequence recovery): a probe whose
  /// version regressed is normally dropped (§5.1), but when the stored entry
  /// has gone this many periods without an *accepted* refresh, the
  /// regression is read as an origin restart and the probe is adopted.
  /// Without it, a destination whose probe clock restarts (device reboot
  /// after a failure) is ignored forever. <= 0 disables the escape hatch.
  double version_reset_periods = 3.0;

  /// Probe delta-suppression (§5.2 semantics on the dense tables): an
  /// accepted probe whose quantized advertisement — mv as carried (util is
  /// already register-quantized, latency via suppress_lat_quantum_us), next
  /// tag, next hop — matches what this switch last re-broadcast for the row
  /// is not re-flooded. Refresh rounds — origin rounds whose version is a
  /// multiple of suppress_refresh_rounds — re-announce unconditionally,
  /// which keeps downstream failure detectors and metric expiry fed and pins
  /// the fixed point to the unsuppressed protocol's: on a refresh round every
  /// switch runs exactly the legacy propagate rule, so the steady-state
  /// winner per row is decided by the same comparisons in the same order.
  /// Requires versioned_probes (rounds are identified by the carried
  /// version); ignored under the classic distance-vector ablation.
  /// The cadence must stay below failure_detect_periods (default 3) so probe
  /// silence on a healthy path never crosses the failure threshold between
  /// refreshes. <= 1 makes every round a refresh round: the paper's periodic
  /// flood, no suppression.
  uint32_t suppress_refresh_rounds = 2;
  /// Advertised-latency deltas below this many microseconds do not count as
  /// a change. Latency is propagation-only (see process_probe), so any real
  /// path change moves it by at least one link delay; the quantum only
  /// absorbs float noise.
  double suppress_lat_quantum_us = 0.25;

  /// Triggered-update mode (DESIGN.md §12): probes are emitted only when a
  /// row's advertisement *changes* — accepted delta, next-hop move, local
  /// link state or quantized-utilization drift — plus a low-rate keepalive
  /// flood every keepalive_rounds periods as the liveness backstop. Failure
  /// detection, metric expiry, and version-reset staleness windows scale by
  /// keepalive_rounds (silence between keepalives is the healthy state).
  /// Fixed points match the periodic protocol for strictly monotonic
  /// policies (keepalive rounds replay the legacy propagate rule; see the
  /// Daggitt–Griffin argument in DESIGN.md §12) — enforced by
  /// contrafuzz --cross-check-triggered. Requires versioned_probes.
  bool triggered_updates = false;
  /// Keepalive cadence: origin rounds whose version ≡ 1 (mod this) flood
  /// under the unsuppressed legacy rule. Larger = less steady-state control
  /// traffic, slower worst-case resync after recovery. <= 1 floods every
  /// round (triggered mode degenerates to the periodic protocol).
  uint32_t keepalive_rounds = 32;
  /// Per-(switch,dst) hold-down: after a triggered emission for a
  /// destination, further triggers for it are deferred this many probe
  /// periods and coalesced (trailing-edge flush at the next control tick
  /// after expiry, so the final state always propagates). Damps metric
  /// oscillation into at most one wave per hold-down window.
  double holddown_periods = 4.0;

  /// Test-only: shadow the dense tables with the PR 4 hash-map tables so
  /// check_reference_parity() can cross-check them (contrafuzz
  /// --cross-check). Allocates per entry — never enable in benchmarks.
  bool reference_tables = false;
  /// Test-only: lets the out-of-universe probe fallback be exercised without
  /// tripping the debug assert that guards it in real runs.
  bool assert_on_dense_fallback = true;

  /// When this switch is one protocol instance of a classified policy, the
  /// rule index it serves; stamped into probes and data it sources.
  uint32_t traffic_class_id = 0;
};

struct ContraSwitchStats {
  uint64_t probes_originated = 0;
  uint64_t probes_received = 0;
  uint64_t probes_propagated = 0;
  uint64_t probes_dropped_version = 0;
  uint64_t probes_dropped_worse = 0;
  uint64_t probes_dropped_no_pg = 0;
  uint64_t probes_suppressed = 0;    ///< accepted but not re-broadcast (delta-suppression)
  uint64_t dense_fallback_hits = 0;  ///< probe keys outside the compiled dense universe
  uint64_t probes_triggered = 0;     ///< probe copies sent by triggered emissions (§12)
  uint64_t probes_holddown_deferred = 0;  ///< trigger requests parked by hold-down
  uint64_t keepalive_probes = 0;     ///< probes received on keepalive refresh rounds
  uint64_t probes_withdrawn = 0;     ///< poison (withdraw) advert copies sent
  uint64_t fwdt_updates = 0;
  uint64_t data_forwarded = 0;
  uint64_t data_to_host = 0;
  uint64_t data_dropped_no_route = 0;
  uint64_t data_dropped_ttl = 0;
  uint64_t loops_broken = 0;
  uint64_t looped_packets_seen = 0;  ///< exact revisit count (§6.5 metric)

  /// Field-wise sum (network-wide totals over switches).
  ContraSwitchStats& operator+=(const ContraSwitchStats& other);
  bool operator==(const ContraSwitchStats&) const = default;
};

class ContraSwitch : public sim::Device {
 public:
  /// `compiled` and `evaluator` are shared across all switches of a network
  /// (they are the common protocol configuration); `self` selects this
  /// switch's slice.
  ContraSwitch(const compiler::CompileResult& compiled, const pg::PolicyEvaluator& evaluator,
               topology::NodeId self, ContraSwitchOptions options = {});

  void start(sim::Simulator& sim) override;
  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  /// Port signal (triggered mode only): instant failure presumption +
  /// focused trigger wave on down, advert resync + origin re-announce on up.
  void handle_link_state(sim::Simulator& sim, topology::LinkId link, bool up) override;
  /// Hybrid engine route query (DESIGN.md §14): forward_data's selection
  /// logic with every side effect removed — reads source pins, flowlets and
  /// FwdT state but never pins, touches, flushes, or counts.
  topology::LinkId fluid_next_hop(sim::Simulator& sim, topology::NodeId dst_switch,
                                  const util::FiveTuple& tuple,
                                  sim::RoutingState& routing) override;
  const char* kind_name() const override { return "contra"; }

  const ContraSwitchStats& stats() const { return stats_; }
  const FlowletStats& flowlet_stats() const { return flowlets_.stats(); }
  topology::NodeId node_id() const { return self_; }

  /// Simulates a control-plane reboot (churn engine §13): the probe clock
  /// restarts from zero — subsequent rounds carry *lower* versions than
  /// neighbors have stored, the regression scenario version_reset_periods
  /// covers — and all soft protocol state (FwdT rows, triggered-engine
  /// bookkeeping) is lost. The per-row advert ledger survives just long
  /// enough to be replayed: every destination slot is marked pending, so the
  /// next control tick floods a keepalive-equivalent resync in which rows
  /// the reborn RIB no longer holds are withdrawn at their last-advertised
  /// version. Without that replay the stale AdvertState caches would
  /// suppress the resync entirely and neighbors would route through the
  /// amnesiac switch until metric expiry.
  void restart_control_plane() override;

  // ----- introspection for tests and convergence checks -------------------

  struct FwdEntry {
    pg::MetricsVector mv;
    uint32_t ntag = 0;
    topology::LinkId nhop = topology::kInvalidLink;
    uint64_t version = 0;
    sim::Time updated_at = 0.0;
    /// f(pid, mv) of the stored metrics, cached at write time so comparing
    /// an incoming probe against the entry costs one rank evaluation, not
    /// two. propagation_rank is pure, so the cache can never go stale.
    lang::Rank rank;
    /// Triggered mode: a poison advert marked this row unusable until a
    /// probe with version >= the stored one resurrects it (§12).
    bool withdrawn = false;
  };

  /// Entry for (traffic destination, local tag, pid), or nullptr.
  const FwdEntry* fwd_entry(topology::NodeId dst, uint32_t tag, uint32_t pid) const;

  /// Whether an entry currently counts for forwarding: not metric-expired
  /// (§5.4) and its next hop not presumed failed. Exposed for the invariant
  /// checker (src/oracle), which must skip entries the dataplane skips.
  bool entry_usable(const FwdEntry& entry, sim::Time now) const;

  /// Invariant-checker hook: visits every FwdT entry as
  /// fn(dst, local_tag, pid, entry). The dense layout makes the order
  /// deterministic — ascending (dst, tag, pid) — but callers should not rely
  /// on it (the contract predates the dense tables).
  template <typename Fn>
  void for_each_fwd_entry(Fn&& fn) const {
    topology::NodeId dst = topology::kInvalidNode;
    uint32_t tag = 0, pid = 0;
    for (uint32_t r = 0; r < rows_.size(); ++r) {
      if (!row_present_[r]) continue;
      dense_->key_of(r, dst, tag, pid);
      fn(dst, tag, pid, rows_[r]);
    }
  }

  struct BestChoice {
    uint32_t tag = 0;
    uint32_t pid = 0;
    lang::Rank rank;
    topology::LinkId nhop = topology::kInvalidLink;
  };
  /// The s()-best candidate for a destination right now (BestT semantics),
  /// skipping expired entries and presumed-failed next hops.
  std::optional<BestChoice> best_choice(topology::NodeId dst, sim::Time now) const;

  /// Current size of the loop-accounting window (bounded by
  /// kRecentPacketsCap; test hook).
  size_t recent_packet_window_size() const { return recent_packets_.size(); }

  /// Hard cap on the loop-accounting window: reaching it restarts the
  /// window, exactly like the periodic reset, so the map cannot grow without
  /// bound on long runs with many distinct packets.
  static constexpr size_t kRecentPacketsCap = 1u << 16;
  /// Slots of the loop-accounting table's first allocation.
  static constexpr size_t kRecentPacketsFirstSlots = 128;

  /// Renders FwdT + BestT in the paper's Fig. 6e layout:
  ///   [dst, tag, pid] -> mv, ntag, nhop, version   (* marks BestT's pick)
  std::string render_tables(sim::Time now) const;

  /// Test-only (requires options.reference_tables): cross-checks the dense
  /// FwdT rows and the per-destination BestT scans against the shadow
  /// hash-map tables. Returns "" when they agree, else a description of the
  /// first divergence.
  std::string check_reference_parity(sim::Time now) const;

 private:
  struct FwdKey {
    topology::NodeId origin;  ///< traffic destination / probe origin
    uint32_t tag;
    uint32_t pid;
    friend bool operator==(const FwdKey&, const FwdKey&) = default;
  };
  struct FwdKeyHash {
    size_t operator()(const FwdKey& k) const {
      return static_cast<size_t>(
          util::hash_combine(util::hash_combine(k.origin, k.tag), k.pid));
    }
  };

  void originate_probes(sim::Simulator& sim);
  void process_probe(sim::Simulator& sim, sim::Packet&& packet, topology::LinkId in_link);
  void forward_data(sim::Simulator& sim, sim::Packet&& packet, topology::LinkId in_link);

  // ----- triggered-update engine (DESIGN.md §12) ---------------------------

  /// Whether the triggered engine is live (requires versioned probes).
  bool triggered() const { return options_.triggered_updates && options_.versioned_probes; }
  /// Number of probe periods a protocol timing window spans: triggered mode
  /// stretches failure detection / metric expiry / version-reset staleness
  /// by the keepalive cadence (between keepalives, silence is healthy).
  double window_scale() const {
    return triggered() && options_.keepalive_rounds > 1
               ? static_cast<double>(options_.keepalive_rounds)
               : 1.0;
  }
  /// Is `version` a keepalive (full legacy flood) round in triggered mode?
  bool keepalive_version(uint64_t version) const {
    return options_.keepalive_rounds <= 1 || version % options_.keepalive_rounds == 1;
  }
  /// One flood of this destination's probes at `version` (the legacy
  /// origination body; both the periodic clock and keepalives call it).
  void emit_origin_round(sim::Simulator& sim, uint64_t version);
  /// Per-period timer of triggered mode, on every switch: advance the origin
  /// clock / emit keepalives, scan local link + utilization state for
  /// changes, and flush hold-down-deferred triggers (trailing edge).
  void control_tick(sim::Simulator& sim);
  /// Detect probe-silence transitions and quantized-utilization drift on
  /// this switch's own out-links; affected rows are recomputed and their
  /// destinations marked pending.
  void scan_local_changes(sim::Simulator& sim);
  /// A local link's probe direction flipped alive/dead: mark every
  /// destination routed over `traffic_link` pending (emit_deltas will
  /// re-advertise or poison as entry_usable dictates).
  void on_link_transition(sim::Simulator& sim, topology::LinkId traffic_link, bool alive);
  /// Mark a destination slot dirty; respects + counts hold-down deferral.
  void request_trigger(uint32_t slot, sim::Time now);
  /// Emit deltas for every pending destination whose hold-down expired.
  void flush_pending(sim::Simulator& sim);
  /// Diff a destination's rows against their standing advertisements and
  /// send only the changes: re-adverts for changed usable rows, withdraw
  /// poison for rows whose standing advert is no longer usable. Returns the
  /// number of probe copies sent (0 = nothing changed, hold-down not armed).
  uint32_t emit_deltas(sim::Simulator& sim, uint32_t slot);
  /// Link recovery: re-send this switch's current usable adverts over PG
  /// out-edges that traverse `traffic_link`, so the revived neighbor
  /// relearns state now instead of at the next keepalive.
  void resync_link(sim::Simulator& sim, topology::LinkId traffic_link);
  /// Sends one advert (or withdraw) probe for a row along its PG out-edges,
  /// skipping the pure back-edge. Returns copies sent.
  uint32_t send_row_advert(sim::Simulator& sim, topology::NodeId dst, uint32_t local_tag,
                           uint32_t pid, const FwdEntry& entry, bool withdraw,
                           topology::LinkId only_link = topology::kInvalidLink);

  double quantize_advert_lat(double lat) const {
    const double q = options_.suppress_lat_quantum_us;
    return q > 0 ? std::round(lat / q) * q : lat;
  }

  uint32_t probe_wire_bytes() const;

  /// Wires this switch, its flowlet table, loop detector, and failure
  /// detector to the simulator's telemetry hub.
  void bind_telemetry(sim::Simulator& sim);
  /// Emits a probe-lifecycle trace record (sw/dst/tag/pid/version from the
  /// probe, value = carried path length). Caller checks tracing().
  void trace_probe(obs::Ev ev, const sim::ProbeFields& probe, double t,
                   uint32_t aux = obs::kNoField);
  /// Tracing-only: recompute BestT for `dst` and emit kRouteFlip when its
  /// next hop moved since the last accepted probe for that destination.
  void note_route_flip(topology::NodeId dst, sim::Time now);

  const compiler::CompileResult* compiled_;
  const pg::PolicyEvaluator* evaluator_;
  topology::NodeId self_;
  ContraSwitchOptions options_;
  /// True when the compiled policy references path.util anywhere. When it
  /// does not, probes are extended with util = 0 instead of the live EWMA:
  /// the value can never affect any rank, but carrying it would still make
  /// every content/advert comparison drift with traffic — under the
  /// triggered engine that noise alone re-excites fabric-wide trigger waves
  /// every period (a probe storm a util-blind policy has no reason to pay).
  bool policy_carries_util_ = true;

  /// This switch's slice of the compiled dense addressing (owned by
  /// compiled_; cached to skip the double indirection on every packet).
  const compiler::DenseFwdIndex* dense_;
  /// Probe-path PG lookups densified per switch so the hot path never
  /// hashes: carried tag -> local tag (NEXTPGNODE, kInvalidTag when there is
  /// no transition) and local tag -> PG node index for the multicast fan-out
  /// (kInvalidPgNode when the tag does not live here). Both are pure
  /// compiled data, flattened from the ProductGraph in the constructor.
  std::vector<uint32_t> tag_step_;
  std::vector<uint32_t> pg_node_of_tag_;
  /// FwdT as a flat register array: one row per compiled (dst, tag, pid),
  /// preallocated in the constructor — probe updates index in O(1) and never
  /// allocate, BestT scans walk one contiguous per-destination slice.
  std::vector<FwdEntry> rows_;
  /// 1 = the row has been written (the register-array "valid" bit).
  std::vector<uint8_t> row_present_;

  /// What this switch last re-broadcast per row, quantized — the comparand
  /// for probe delta-suppression, and the ledger restart_control_plane
  /// replays (withdrawing rows the reborn RIB no longer holds). Written only
  /// when a probe propagates.
  struct AdvertState {
    double util = 0.0;  ///< carried quantized (util_quantum)
    double lat = 0.0;   ///< quantized to suppress_lat_quantum_us
    double len = 0.0;
    uint32_t ntag = 0;
    topology::LinkId nhop = topology::kInvalidLink;
    /// Version the advert carried. A post-restart withdraw of a vanished row
    /// must quote it: receivers version-guard poison, and the reborn clock
    /// holds nothing comparable.
    uint64_t version = 0;
    bool valid = false;  ///< row has been advertised at least once
  };
  std::vector<AdvertState> adverts_;

  // ----- triggered-update state (allocated only when triggered(); §12) -----

  /// Per row: the neighbor's advertised metrics as received, *before* the
  /// local link extension — so utilization drift on the out-link can
  /// recompute the stored mv without a fresh probe.
  std::vector<pg::MetricsVector> neighbor_mv_;
  /// Per directed in-link (probe direction): last alive/dead state the local
  /// scan saw (1 = alive), for transition detection.
  std::vector<uint8_t> probe_link_alive_;
  /// Per directed out-link: last quantized utilization advertised into
  /// probes, for drift detection.
  std::vector<double> link_util_adv_;
  /// Per destination slot: hold-down expiry and the dirty flag.
  std::vector<sim::Time> holddown_until_;
  std::vector<uint8_t> trigger_pending_;
  uint32_t pending_count_ = 0;
  /// This switch's own destination slot (kNoSlot when not a destination):
  /// its trigger requests re-originate instead of diffing empty rows.
  uint32_t self_slot_ = UINT32_MAX;

  /// Test-only shadow of the PR 4 hash-map FwdT (options_.reference_tables).
  std::unordered_map<FwdKey, FwdEntry, FwdKeyHash> reference_fwdt_;

  /// Source-side pin of the BestT choice per flowlet (the "sender sets the
  /// initial tag and probe number" rule, §4.2).
  struct SourcePin {
    uint32_t tag = 0;
    uint32_t pid = 0;
    sim::Time last_seen = 0.0;
  };
  util::FlatMap<uint32_t, SourcePin> source_pins_;

  FlowletTable flowlets_;
  LoopDetector loop_detector_;
  ProbeClock probe_clock_;
  FailureDetector failure_detector_;

  /// Exact loop accounting (simulator-side truth, not a switch table): packet
  /// ids seen recently at this switch; a revisit is a looped packet. Packet
  /// ids are near-sequential (and shard-namespaced under the parallel
  /// engine), so util::MixHash puts them through a full 64-bit mix before
  /// bucketing. The first allocation holds a few milliseconds of one flow's
  /// packets, so a light flow never grows the window table.
  util::FlatMap<uint64_t, uint8_t> recent_packets_{kRecentPacketsFirstSlots};
  sim::Time recent_packets_reset_ = 0.0;

  ContraSwitchStats stats_;

  /// Bound at start(); counters are a relaxed add when set, trace records one
  /// predictable branch when no sink is attached.
  obs::Telemetry* telemetry_ = nullptr;
  /// Tracing-only: BestT next hop last reported per destination slot, for
  /// kRouteFlip detection (kInvalidLink = not yet reported). Only read when
  /// a sink is attached.
  std::vector<topology::LinkId> last_best_;
};

/// Installs a ContraSwitch at every node and returns raw observers.
std::vector<ContraSwitch*> install_contra_network(sim::Simulator& sim,
                                                  const compiler::CompileResult& compiled,
                                                  const pg::PolicyEvaluator& evaluator,
                                                  ContraSwitchOptions options = {});

}  // namespace contra::dataplane
