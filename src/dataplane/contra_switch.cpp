#include "dataplane/contra_switch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "util/logging.h"

namespace contra::dataplane {

using sim::Packet;
using sim::PacketKind;
using sim::Simulator;
using topology::LinkId;
using topology::NodeId;

ContraSwitch::ContraSwitch(const compiler::CompileResult& compiled,
                           const pg::PolicyEvaluator& evaluator, NodeId self,
                           ContraSwitchOptions options)
    : compiled_(&compiled),
      evaluator_(&evaluator),
      self_(self),
      options_(options),
      dense_(&compiled.switches[self].dense),
      // The full compiled key universe is materialized up front (§4.3 state
      // accounting — exactly the P4 register array a real switch would
      // allocate), so steady-state probe processing never allocates: updates
      // are indexed stores, not hash inserts.
      rows_(dense_->num_rows()),
      row_present_(dense_->num_rows(), 0),
      adverts_(dense_->num_rows()),
      flowlets_(options.flowlet_timeout_s),
      loop_detector_(options.loop_table_slots, options.loop_ttl_threshold),
      probe_clock_(options.probe_period_s),
      // Triggered mode stretches the silence threshold by the keepalive
      // cadence: between keepalives, probe silence on a healthy link is the
      // designed steady state, not a failure. Port signals (note_down) cover
      // the fast path.
      failure_detector_(options.failure_detect_periods * options.probe_period_s *
                            ((options.triggered_updates && options.versioned_probes &&
                              options.keepalive_rounds > 1)
                                 ? options.keepalive_rounds
                                 : 1),
                        compiled.graph.topo().num_links()),
      last_best_(dense_->destinations.size(), topology::kInvalidLink) {
  const auto& attrs = compiled.decomposition.attrs;
  policy_carries_util_ =
      std::find(attrs.begin(), attrs.end(), lang::PathAttr::kUtil) != attrs.end();
  const uint32_t num_tags = compiled.graph.num_tags();
  tag_step_.assign(num_tags, pg::kInvalidTag);
  pg_node_of_tag_.assign(num_tags, pg::kInvalidPgNode);
  for (uint32_t tag = 0; tag < num_tags; ++tag) {
    tag_step_[tag] = compiled.graph.next_tag(tag, self);
    pg_node_of_tag_[tag] = compiled.graph.node_index(self, tag);
  }
  if (options_.reference_tables) reference_fwdt_.reserve(rows_.size());
  if (triggered()) {
    // All triggered-engine state is preallocated here so the steady-state
    // scan/emit paths never allocate (the probe_flood bench gates it).
    const size_t num_links = compiled.graph.topo().num_links();
    neighbor_mv_.assign(rows_.size(), pg::MetricsVector{});
    probe_link_alive_.assign(num_links, 1);
    link_util_adv_.assign(num_links, 0.0);
    holddown_until_.assign(dense_->destinations.size(), 0.0);
    trigger_pending_.assign(dense_->destinations.size(), 0);
    self_slot_ = compiled.switches[self_].is_destination && self_ < dense_->dst_slot.size()
                     ? dense_->dst_slot[self_]
                     : compiler::DenseFwdIndex::kNoSlot;
  }
}

void ContraSwitch::bind_telemetry(Simulator& sim) {
  telemetry_ = &sim.telemetry();
  flowlets_.bind_telemetry(telemetry_, self_);
  loop_detector_.bind_telemetry(telemetry_, self_);
  failure_detector_.bind_telemetry(telemetry_, self_);
}

void ContraSwitch::start(Simulator& sim) {
  bind_telemetry(sim);
  if (triggered()) {
    // Every switch runs the per-period control tick: destinations advance
    // their clock (emitting only on keepalive rounds), and all switches scan
    // local link/utilization state and flush hold-down-deferred triggers.
    control_tick(sim);
  } else if (compiled_->switches[self_].is_destination) {
    // Jitter-free periodic origination; all destinations share the phase,
    // which keeps rounds comparable (the paper's probes are periodic too).
    originate_probes(sim);
  }
}

void ContraSwitch::trace_probe(obs::Ev ev, const sim::ProbeFields& probe, double t,
                               uint32_t aux) {
  obs::TraceRecord r;
  r.t = t;
  r.ev = ev;
  r.sw = self_;
  r.dst = probe.origin;
  r.tag = probe.tag;
  r.pid = probe.pid;
  r.version = probe.version;
  r.value = probe.mv.len;
  r.aux = aux;
  telemetry_->emit(r);
}

void ContraSwitch::note_route_flip(NodeId dst, sim::Time now) {
  const auto choice = best_choice(dst, now);
  if (!choice) return;
  const uint32_t slot = dst < dense_->dst_slot.size() ? dense_->dst_slot[dst]
                                                      : compiler::DenseFwdIndex::kNoSlot;
  if (slot == compiler::DenseFwdIndex::kNoSlot) return;
  LinkId& last = last_best_[slot];
  if (last == topology::kInvalidLink || last == choice->nhop) {
    last = choice->nhop;
    return;
  }
  const LinkId old_nhop = last;
  last = choice->nhop;
  telemetry_->metrics().add(telemetry_->core().route_flips);
  obs::TraceRecord r;
  r.t = now;
  r.ev = obs::Ev::kRouteFlip;
  r.sw = self_;
  r.dst = dst;
  r.tag = choice->tag;
  r.pid = choice->pid;
  r.link = choice->nhop;
  r.aux = old_nhop;
  telemetry_->emit(r);
}

uint32_t ContraSwitch::probe_wire_bytes() const {
  return options_.probe_base_bytes +
         4 * static_cast<uint32_t>(compiled_->decomposition.attrs.size());
}

void ContraSwitch::emit_origin_round(Simulator& sim, uint64_t version) {
  const uint32_t origin_tag = compiled_->switches[self_].origin_tag;
  const uint32_t pg_node = pg_node_of_tag_[origin_tag];
  if (pg_node == pg::kInvalidPgNode) return;
  for (uint32_t pid = 0; pid < evaluator_->num_pids(); ++pid) {
    for (const pg::PgEdge& edge : compiled_->graph.out_edges(pg_node)) {
      Packet probe;
      probe.kind = PacketKind::kProbe;
      probe.id = sim.next_packet_id();
      probe.size_bytes = probe_wire_bytes();
      probe.src_switch = self_;
      probe.probe = sim::ProbeFields{self_, pid, origin_tag, options_.traffic_class_id,
                                     version, pg::MetricsVector{}};
      ++stats_.probes_originated;
      telemetry_->metrics().add(telemetry_->core().probes_originated);
      if (telemetry_->tracing()) trace_probe(obs::Ev::kProbeOrig, probe.probe, sim.now());
      sim.send_on_link(edge.link, std::move(probe));
    }
  }
}

void ContraSwitch::originate_probes(Simulator& sim) {
  emit_origin_round(sim, probe_clock_.advance());
  sim.events().schedule_in(options_.probe_period_s, [this, &sim] { originate_probes(sim); });
}

void ContraSwitch::control_tick(Simulator& sim) {
  if (compiled_->switches[self_].is_destination) {
    // The clock still ticks every period (versions identify rounds network-
    // wide), but only keepalive rounds flood — the liveness backstop that
    // feeds downstream failure detectors and pins the fixed point (§12).
    const uint64_t version = probe_clock_.advance();
    if (keepalive_version(version)) emit_origin_round(sim, version);
  }
  scan_local_changes(sim);
  flush_pending(sim);
  sim.events().schedule_in(options_.probe_period_s, [this, &sim] { control_tick(sim); });
}

void ContraSwitch::scan_local_changes(Simulator& sim) {
  const sim::Time now = sim.now();
  const topology::Topology& topo = compiled_->graph.topo();
  for (const LinkId out : topo.out_links(self_)) {
    // Probe-silence transitions found by the detector (remote failures the
    // port signal cannot see) become trigger waves here, one period late at
    // worst.
    const LinkId probe_dir = topo.link(out).reverse;
    const bool alive = !failure_detector_.presumed_failed(probe_dir, now);
    if (alive != (probe_link_alive_[probe_dir] != 0)) {
      probe_link_alive_[probe_dir] = alive ? 1 : 0;
      on_link_transition(sim, out, alive);
    }
    // Quantized-utilization drift on the out-link: re-derive every row routed
    // over it from the cached neighbor advert (metric drift => focused wave,
    // no fresh probe needed). Util-blind policies skip the scan — the drift
    // could never change a rank, only mint re-advertisement noise.
    if (!policy_carries_util_) continue;
    double util = sim.link(out).utilization();
    if (options_.util_quantum > 0) {
      util = std::round(util / options_.util_quantum) * options_.util_quantum;
    }
    if (util == link_util_adv_[out]) continue;
    link_util_adv_[out] = util;
    const double lat_us = sim.link(out).delay_s() * 1e6;
    for (uint32_t r = 0; r < rows_.size(); ++r) {
      if (!row_present_[r]) continue;
      FwdEntry& entry = rows_[r];
      if (entry.nhop != out || entry.withdrawn) continue;
      pg::MetricsVector mv = neighbor_mv_[r];
      mv.extend(util, lat_us);
      if (mv.util == entry.mv.util && mv.lat == entry.mv.lat && mv.len == entry.mv.len) {
        continue;
      }
      topology::NodeId dst = topology::kInvalidNode;
      uint32_t tag = 0, pid = 0;
      dense_->key_of(r, dst, tag, pid);
      entry.mv = mv;
      entry.rank = evaluator_->propagation_rank(pid, mv);
      if (options_.reference_tables) reference_fwdt_[FwdKey{dst, tag, pid}] = entry;
      request_trigger(dense_->dst_slot[dst], now);
    }
  }
}

void ContraSwitch::on_link_transition(Simulator& sim, LinkId traffic_link, bool alive) {
  (void)alive;  // emit_deltas re-reads entry_usable; both edges just mark dirty
  const sim::Time now = sim.now();
  for (uint32_t r = 0; r < rows_.size(); ++r) {
    if (!row_present_[r] || rows_[r].nhop != traffic_link) continue;
    topology::NodeId dst = topology::kInvalidNode;
    uint32_t tag = 0, pid = 0;
    dense_->key_of(r, dst, tag, pid);
    request_trigger(dense_->dst_slot[dst], now);
  }
}

void ContraSwitch::request_trigger(uint32_t slot, sim::Time now) {
  if (slot >= trigger_pending_.size() || trigger_pending_[slot] != 0) return;
  trigger_pending_[slot] = 1;
  ++pending_count_;
  if (now < holddown_until_[slot]) {
    // Inside the hold-down window: parked until the first control tick after
    // expiry (trailing-edge coalescing — the final state still propagates).
    ++stats_.probes_holddown_deferred;
    if (telemetry_ != nullptr) {
      telemetry_->metrics().add(telemetry_->core().probes_holddown_deferred);
    }
  }
}

void ContraSwitch::flush_pending(Simulator& sim) {
  if (pending_count_ == 0) return;
  const sim::Time now = sim.now();
  for (uint32_t slot = 0; slot < trigger_pending_.size(); ++slot) {
    if (trigger_pending_[slot] == 0 || now < holddown_until_[slot]) continue;
    trigger_pending_[slot] = 0;
    --pending_count_;
    uint32_t sent = 0;
    if (slot == self_slot_) {
      // Origin trigger (e.g. local link recovery): re-announce under the
      // CURRENT round's version. It is still fresher than anything a receiver
      // holds (only every keepalive_rounds-th version floods), so adoption is
      // unconditional — but the clock is NOT advanced: an out-of-band advance
      // would shift this origin's keepalive phase off the network-wide tick,
      // and the resulting probe serialization changes re-break equal-rank
      // ties differently from the periodic protocol (digest parity breaks).
      emit_origin_round(sim, probe_clock_.version());
      sent = 1;
    } else {
      sent = emit_deltas(sim, slot);
    }
    // Arm hold-down only when something went out; a no-op flush should not
    // penalize the next real change.
    if (sent > 0) {
      holddown_until_[slot] = now + options_.holddown_periods * options_.probe_period_s;
    }
  }
}

uint32_t ContraSwitch::emit_deltas(Simulator& sim, uint32_t slot) {
  const sim::Time now = sim.now();
  const uint32_t begin = dense_->slice_begin(slot);
  const uint32_t width = dense_->slice_width();
  const uint32_t num_pids = dense_->num_pids;
  const NodeId dst = dense_->destinations[slot];
  obs::Telemetry& tel = *telemetry_;
  uint32_t sent = 0;
  for (uint32_t off = 0; off < width; ++off) {
    const uint32_t row = begin + off;
    const uint32_t local_tag = dense_->slot_tags[off / num_pids];
    const uint32_t pid = off % num_pids;
    AdvertState& adv = adverts_[row];
    if (!row_present_[row]) {
      if (adv.valid) {
        // A standing advert for a row this switch no longer holds — only
        // reachable after a control-plane restart wiped the RIB (rows are
        // never deleted otherwise). Withdraw it at the ledger's version so
        // the poison clears the receiver's version guard; the ledger entry
        // then retires. Origins keep minting fresher versions, so the next
        // keepalive resurrects whatever is genuinely alive.
        FwdEntry ghost;
        ghost.ntag = adv.ntag;
        ghost.nhop = adv.nhop;
        ghost.version = adv.version;
        const uint32_t copies = send_row_advert(sim, dst, local_tag, pid, ghost, true);
        sent += copies;
        stats_.probes_withdrawn += copies;
        tel.metrics().add(tel.core().probes_withdrawn, copies);
        adv.valid = false;
      }
      continue;
    }
    FwdEntry& entry = rows_[row];
    if (entry_usable(entry, now)) {
      const double lat_q = quantize_advert_lat(entry.mv.lat);
      if (adv.valid && adv.util == entry.mv.util && adv.lat == lat_q &&
          adv.len == entry.mv.len && adv.ntag == entry.ntag && adv.nhop == entry.nhop) {
        continue;  // standing advertisement unchanged: nothing to say
      }
      const uint32_t copies = send_row_advert(sim, dst, local_tag, pid, entry, false);
      sent += copies;
      stats_.probes_triggered += copies;
      tel.metrics().add(tel.core().probes_triggered, copies);
      adv.util = entry.mv.util;
      adv.lat = lat_q;
      adv.len = entry.mv.len;
      adv.ntag = entry.ntag;
      adv.nhop = entry.nhop;
      adv.version = entry.version;
      adv.valid = true;
    } else if (adv.valid) {
      // The row we once advertised is no longer usable: poison it downstream
      // instead of letting neighbors wait out metric expiry.
      const uint32_t copies = send_row_advert(sim, dst, local_tag, pid, entry, true);
      sent += copies;
      stats_.probes_withdrawn += copies;
      tel.metrics().add(tel.core().probes_withdrawn, copies);
      adv.valid = false;
    }
  }
  return sent;
}

uint32_t ContraSwitch::send_row_advert(Simulator& sim, NodeId dst, uint32_t local_tag,
                                       uint32_t pid, const FwdEntry& entry, bool withdraw,
                                       LinkId only_link) {
  const uint32_t pg_node = pg_node_of_tag_[local_tag];
  if (pg_node == pg::kInvalidPgNode) return 0;
  Packet probe;
  probe.kind = PacketKind::kProbe;
  probe.size_bytes = probe_wire_bytes();
  probe.src_switch = self_;
  probe.probe = sim::ProbeFields{dst,           pid,  local_tag, options_.traffic_class_id,
                                 entry.version, entry.mv, withdraw};
  uint32_t copies = 0;
  for (const pg::PgEdge& edge : compiled_->graph.out_edges(pg_node)) {
    // Pure back-edge: our successor taught us this row; telling it back is
    // stale by construction (and poison toward it would be split-horizon
    // noise).
    if (edge.link == entry.nhop && edge.to_tag == entry.ntag) continue;
    if (only_link != topology::kInvalidLink && edge.link != only_link) continue;
    Packet copy = probe;
    copy.id = sim.next_packet_id();
    sim.send_on_link(edge.link, std::move(copy));
    ++copies;
  }
  if (copies > 0 && telemetry_->tracing()) {
    trace_probe(withdraw ? obs::Ev::kProbeWithdraw : obs::Ev::kProbeTrigger, probe.probe,
                sim.now(), copies);
  }
  return copies;
}

void ContraSwitch::resync_link(Simulator& sim, LinkId traffic_link) {
  const sim::Time now = sim.now();
  obs::Telemetry& tel = *telemetry_;
  for (uint32_t r = 0; r < rows_.size(); ++r) {
    if (!row_present_[r]) continue;
    const FwdEntry& entry = rows_[r];
    if (!entry_usable(entry, now)) continue;
    topology::NodeId dst = topology::kInvalidNode;
    uint32_t tag = 0, pid = 0;
    dense_->key_of(r, dst, tag, pid);
    const uint32_t copies = send_row_advert(sim, dst, tag, pid, entry, false, traffic_link);
    stats_.probes_triggered += copies;
    if (copies > 0) tel.metrics().add(tel.core().probes_triggered, copies);
  }
}

void ContraSwitch::handle_link_state(Simulator& sim, LinkId link, bool up) {
  if (!triggered()) return;  // periodic protocols rely on probe silence only
  if (telemetry_ == nullptr) bind_telemetry(sim);
  const sim::Time now = sim.now();
  const LinkId probe_dir = sim.topo().link(link).reverse;
  if (!up) {
    // Port-down: presume the probe direction failed *now* (no silence wait)
    // and poison every destination routed over the link — the focused
    // failure wave.
    failure_detector_.note_down(probe_dir, now);
    if (probe_dir < probe_link_alive_.size() && probe_link_alive_[probe_dir] != 0) {
      probe_link_alive_[probe_dir] = 0;
      on_link_transition(sim, link, false);
    }
    flush_pending(sim);
  } else {
    // Port-up: the detector keeps presuming failure until probes actually
    // flow again. Re-send our standing adverts over the revived link so the
    // neighbor relearns state now, and re-announce ourself with a fresh
    // version instead of waiting for the next keepalive.
    resync_link(sim, link);
    if (self_slot_ != compiler::DenseFwdIndex::kNoSlot) {
      request_trigger(self_slot_, now);
      flush_pending(sim);
    }
  }
}

void ContraSwitch::restart_control_plane() {
  // Reboot: the probe clock restarts from zero and every piece of soft
  // protocol state is lost. Forwarding state relearns from scratch — the
  // next keepalive flood from each origin repopulates the rows.
  probe_clock_.reset();
  std::fill(row_present_.begin(), row_present_.end(), 0);
  for (pg::MetricsVector& mv : neighbor_mv_) mv = pg::MetricsVector{};
  reference_fwdt_.clear();
  source_pins_.clear();
  // The flowlet table and failure detector model dataplane/port hardware and
  // survive a control-CPU reboot.
  if (!triggered()) {
    // Periodic modes have no withdraw machinery; the stale caches just die
    // (refresh rounds re-announce everything within suppress_refresh_rounds
    // periods anyway).
    for (AdvertState& adv : adverts_) adv.valid = false;
    return;
  }
  // Triggered engine: local-scan baselines and hold-down bookkeeping reset…
  std::fill(probe_link_alive_.begin(), probe_link_alive_.end(), 1);
  std::fill(link_util_adv_.begin(), link_util_adv_.end(), 0.0);
  std::fill(holddown_until_.begin(), holddown_until_.end(), 0.0);
  // …and the advert ledger is replayed rather than silently kept: every
  // destination slot goes pending, so the next control tick runs emit_deltas
  // across the whole table — the keepalive-equivalent resync flood. With the
  // RIB empty that means withdrawing each standing advert at its recorded
  // version (see emit_deltas), telling neighbors *now* that their routes
  // through this switch are gone instead of letting the stale caches
  // suppress the resync until metric expiry. The origin slot is skipped: the
  // clock's next tick is version 1, a keepalive round, which floods anyway.
  pending_count_ = 0;
  for (uint32_t slot = 0; slot < trigger_pending_.size(); ++slot) {
    if (slot == self_slot_) {
      trigger_pending_[slot] = 0;
      continue;
    }
    trigger_pending_[slot] = 1;
    ++pending_count_;
  }
}

void ContraSwitch::handle_packet(Simulator& sim, Packet&& packet, LinkId in_link) {
  // Tests drive handle_packet without start(); bind on first packet.
  if (telemetry_ == nullptr) bind_telemetry(sim);
  if (packet.kind == PacketKind::kProbe) {
    process_probe(sim, std::move(packet), in_link);
  } else {
    forward_data(sim, std::move(packet), in_link);
  }
}

void ContraSwitch::process_probe(Simulator& sim, Packet&& packet, LinkId in_link) {
  ++stats_.probes_received;
  failure_detector_.note_probe(in_link, sim.now());
  sim::ProbeFields& probe = packet.probe;
  obs::Telemetry& tel = *telemetry_;
  tel.metrics().add(tel.core().probes_received);
  tel.metrics().add(tel.core().probe_bytes_rx, packet.size_bytes);
  if (tel.tracing()) trace_probe(obs::Ev::kProbeRx, probe, sim.now());
  // Triggered mode needs the neighbor's advert as received (pre-extension)
  // so utilization drift can later re-derive the row without a fresh probe.
  const pg::MetricsVector rx_mv = probe.mv;

  // UPDATEMVEC: probes travel opposite to traffic, so the traffic-direction
  // link is the reverse of the arrival link. Latency counts propagation plus
  // the current queueing backlog.
  const LinkId traffic_link = sim.topo().link(in_link).reverse;
  const sim::Link& link = sim.link(traffic_link);
  // path.lat is carried in microseconds: switch metric registers are Q16.16
  // fixed point, where sub-microsecond second-denominated values underflow.
  // Latency here is propagation delay; queueing pressure is what path.util
  // captures (adding the instantaneous queue would couple the latency metric
  // to probe-burst noise). Utilization is quantized like a hardware register,
  // and a policy that never reads path.util carries 0 instead of the live
  // EWMA (see policy_carries_util_) so content comparisons stay stable.
  double util = policy_carries_util_ ? link.utilization() : 0.0;
  if (options_.util_quantum > 0) {
    util = std::round(util / options_.util_quantum) * options_.util_quantum;
  }
  probe.mv.extend(util, link.delay_s() * 1e6);

  // NEXTPGNODE: the local virtual node implied by the carried tag, one load
  // from the per-switch flattened transition table.
  const uint32_t incoming_tag = probe.tag;
  const uint32_t local_tag =
      incoming_tag < tag_step_.size() ? tag_step_[incoming_tag] : pg::kInvalidTag;
  if (local_tag == pg::kInvalidTag) {
    ++stats_.probes_dropped_no_pg;
    tel.metrics().add(tel.core().probes_rejected_no_pg);
    if (tel.tracing()) trace_probe(obs::Ev::kProbeRejectNoPg, probe, sim.now());
    return;
  }

  // Indexed FwdT update: the compiler proved the key universe, so the row is
  // a computed offset into the flat register array — no hashing, no insert.
  const uint32_t row = dense_->row(probe.origin, local_tag, probe.pid);
  if (row == compiler::DenseFwdIndex::kNoRow) {
    // Out-of-universe key. Unreachable in a correctly compiled network (the
    // tag step above already rejected non-PG tags, and only destinations
    // originate probes), so count it loudly and trip debug builds — a hit
    // here means the compiler's universe and the dataplane disagree.
    ++stats_.dense_fallback_hits;
    tel.metrics().add(tel.core().dense_fallback_hits);
    if (tel.tracing()) trace_probe(obs::Ev::kDenseFallback, probe, sim.now());
    assert(!options_.assert_on_dense_fallback &&
           "probe key outside the compiled dense FwdT universe");
    return;
  }
  // Delta-suppression round phase (§5.2 semantics): rounds are identified by
  // the version the probe carries, so every switch in the network agrees on
  // which rounds are refresh rounds with no extra state or clock sync. On a
  // refresh round the protocol below is exactly the unsuppressed one. Under
  // the triggered engine (§12) the keepalive rounds play that role instead,
  // and the PR 5 receiver deferral is replaced by hold-down damping.
  const bool trig = triggered();
  const bool suppression_active =
      !trig && options_.versioned_probes && options_.suppress_refresh_rounds > 1;
  const bool refresh_round =
      trig ? keepalive_version(probe.version)
           : !suppression_active || probe.version % options_.suppress_refresh_rounds == 0;
  if (trig && refresh_round) {
    ++stats_.keepalive_probes;
    tel.metrics().add(tel.core().keepalive_probes);
  }

  FwdEntry& entry = rows_[row];

  // Poison advert (§12): our successor for this row lost it. Withdraw ours
  // too — split-horizon scoped (only the successor's word counts) and
  // version-guarded (an in-flight stale poison cannot kill a newer entry).
  if (probe.withdraw) {
    // The poison names one row at the sender (its local tag). It only kills
    // our entry if that is the exact row we adopted (link + ntag), not some
    // other row the same neighbor holds for this destination.
    if (!trig || !row_present_[row] || entry.nhop != traffic_link ||
        entry.ntag != incoming_tag || entry.withdrawn || probe.version < entry.version) {
      return;
    }
    entry.withdrawn = true;
    entry.version = probe.version;
    entry.updated_at = sim.now();
    if (options_.reference_tables) {
      reference_fwdt_[FwdKey{probe.origin, local_tag, probe.pid}] = entry;
    }
    if (tel.tracing()) {
      sim::ProbeFields withdrawn = probe;
      withdrawn.tag = local_tag;
      trace_probe(obs::Ev::kProbeWithdraw, withdrawn, sim.now());
    }
    if (probe.origin < dense_->dst_slot.size()) {
      request_trigger(dense_->dst_slot[probe.origin], sim.now());
      flush_pending(sim);  // propagate the failure wave within this event
    }
    return;
  }

  bool propagate = true;
  bool content_changed = true;
  bool echo_accept = false;
  if (row_present_[row]) {
    bool version_reset = false;
    if (options_.versioned_probes && probe.version < entry.version) {
      // DSDV-style sequence recovery: a regressed version is normally a stale
      // in-flight probe (§5.1), but when the stored entry has had no accepted
      // refresh for a whole staleness window the origin's clock must have
      // restarted — adopt the probe instead of ignoring the origin forever.
      // Triggered mode scales the window by the keepalive cadence.
      const double staleness_s =
          options_.version_reset_periods * options_.probe_period_s * window_scale();
      version_reset = staleness_s > 0 && sim.now() - entry.updated_at > staleness_s;
      if (!version_reset) {
        ++stats_.probes_dropped_version;  // outdated probe (§5.1)
        tel.metrics().add(tel.core().probes_rejected_stale);
        if (tel.tracing()) trace_probe(obs::Ev::kProbeRejectStale, probe, sim.now());
        return;
      }
    }
    // Triggered mode: a withdrawn row is a DSDV-style version floor. Only a
    // strictly newer flood — one the origin emitted after the poison's
    // version was already in circulation — may resurrect it; anything at or
    // below the floor is a stale pre-failure advert still echoing around the
    // network, and adopting one restarts count-to-infinity through the dead
    // region (the loop that poisoning exists to cut).
    const bool resurrect = trig && entry.withdrawn && probe.version > entry.version;
    if (trig && entry.withdrawn && !resurrect && !version_reset) {
      ++stats_.probes_dropped_version;
      tel.metrics().add(tel.core().probes_rejected_stale);
      if (tel.tracing()) trace_probe(obs::Ev::kProbeRejectStale, probe, sim.now());
      return;
    }
    const bool fresher = version_reset || resurrect ||
                         (options_.versioned_probes && probe.version > entry.version);
    // Steady-state fast path: a probe carrying exactly the stored mv has
    // exactly the stored rank (f is a pure function of (pid, mv)), so the
    // rank evaluation — the priciest step of probe processing — is skipped
    // for the refresh traffic that dominates a converged network.
    const bool same_content = probe.mv.util == entry.mv.util &&
                              probe.mv.lat == entry.mv.lat && probe.mv.len == entry.mv.len;
    lang::Rank new_rank;
    bool better = false;
    bool rank_changed = false;
    if (!same_content) {
      new_rank = evaluator_->propagation_rank(probe.pid, probe.mv);
      better = new_rank < entry.rank;  // entry.rank caches f(pid, entry.mv)
      rank_changed = new_rank != entry.rank;
    }
    // Receiver-side delta-suppression: between refresh rounds, a fresher
    // probe that does not strictly improve the stored rank is deferred — the
    // entry keeps its content and the probe is not re-flooded. Without this,
    // a worse path whose upstream never suppresses (a probe origin is one)
    // would be re-adopted on version freshness every round while the better
    // path's unchanged re-announcement sits suppressed upstream, making the
    // row oscillate. Worse news (failures, genuine degradations) still lands
    // within suppress_refresh_rounds periods via the full refresh flood, and
    // improvements propagate immediately through the `better` path below.
    // (Triggered mode does not defer: senders only emit on change, and the
    // per-(switch,dst) hold-down is the oscillation damper.)
    if (!trig && !refresh_round && fresher && !version_reset && !better) {
      ++stats_.probes_suppressed;
      tel.metrics().add(tel.core().probes_suppressed);
      if (tel.tracing()) {
        sim::ProbeFields suppressed = probe;
        suppressed.tag = local_tag;
        trace_probe(obs::Ev::kProbeSuppress, suppressed, sim.now());
      }
      return;
    }
    // Without versions this is classic distance-vector: the current next hop
    // may always overwrite its own advertisement (worse news included), but
    // other neighbors must strictly improve — the §3 loop-prone strawman.
    // The triggered engine extends the successor rule to same-version probes
    // (resyncs and drift re-adverts reuse the version they were learned at).
    // "Same successor" means the probe describes the row we adopted: same
    // link AND same sender-side row (the carried tag names the sender's row,
    // and ours recorded it as ntag). The link alone is not enough — a
    // neighbor can advertise several rows for one destination (e.g. a probe
    // origin re-flooding a loop path learned for its own address), and only
    // the adopted one may overwrite without winning on rank.
    const bool same_successor = entry.nhop == traffic_link && entry.ntag == incoming_tag;
    const bool successor_update =
        trig && same_successor && probe.version >= entry.version;
    if (!fresher && !better && !successor_update &&
        !(!options_.versioned_probes && same_successor)) {
      ++stats_.probes_dropped_worse;
      tel.metrics().add(tel.core().probes_rejected_rank);
      if (tel.tracing()) trace_probe(obs::Ev::kProbeRejectRank, probe, sim.now());
      return;
    }
    // A same-successor refresh with an unchanged rank keeps the entry alive
    // but is not re-advertised (DV re-advertises on change, not on refresh).
    propagate = fresher || better || rank_changed;
    echo_accept = trig && !fresher && !better;
    content_changed = !same_content || entry.ntag != incoming_tag ||
                      entry.nhop != traffic_link || entry.withdrawn;
    entry.mv = probe.mv;
    entry.ntag = incoming_tag;
    entry.nhop = traffic_link;
    entry.version = probe.version;
    // A pure successor-rule accept (same version, not better) adopts the
    // content but must NOT extend the row's liveness: an origin that went
    // unreachable stops minting versions, and if same-version echoes kept
    // refreshing updated_at a count-to-infinity loop would hold its zombie
    // rows alive forever. Frozen liveness lets them expire, which turns them
    // into poisons (emit_deltas) and ends the loop. Genuinely fresh floods
    // and rank improvements refresh as before, and the unversioned engine
    // (classic distance-vector) keeps its refresh-on-successor semantics.
    if (fresher || better || !options_.versioned_probes) entry.updated_at = sim.now();
    entry.withdrawn = false;
    if (!same_content) entry.rank = std::move(new_rank);
  } else {
    row_present_[row] = 1;
    entry.mv = probe.mv;
    entry.ntag = incoming_tag;
    entry.nhop = traffic_link;
    entry.version = probe.version;
    entry.updated_at = sim.now();
    entry.rank = evaluator_->propagation_rank(probe.pid, probe.mv);
    entry.withdrawn = false;
  }
  if (trig) neighbor_mv_[row] = rx_mv;
  if (options_.reference_tables) {
    // Shadow hash-map table (PR 4 layout): same accept path, same end state;
    // check_reference_parity() diffs it against the dense rows.
    reference_fwdt_[FwdKey{probe.origin, local_tag, probe.pid}] = entry;
  }
  ++stats_.fwdt_updates;
  tel.metrics().add(tel.core().probes_accepted);
  tel.metrics().add(tel.core().fwdt_updates);
  tel.metrics().observe(tel.core().probe_path_len, probe.mv.len);
  if (tel.tracing()) {
    sim::ProbeFields accepted = probe;
    accepted.tag = local_tag;  // record against the adopted local virtual node
    trace_probe(obs::Ev::kProbeAccept, accepted, sim.now());
    note_route_flip(probe.origin, sim.now());
  }

  // Triggered engine, non-keepalive rounds: accepted deltas do not flood
  // directly. The destination is marked dirty and emit_deltas diffs the
  // rows' standing advertisements — coalescing concurrent changes and
  // respecting the hold-down damper. Keepalive rounds fall through to the
  // exact legacy flood below (the fixed-point-pinning backstop) — but only
  // for the wavefront (`fresher`) and genuine improvements (`better`), the
  // two accept classes whose legacy relay provably terminates (one fresh
  // arrival per row per round; rank strictly decreases along `better`
  // chains). A pure successor-rule echo (same version, not better) must
  // take the damped delta path even on keepalive rounds: under live
  // traffic its rank re-churns on every pass — probe bytes move the very
  // util EWMA being advertised — and relaying each repaint re-excites the
  // echo's own loop, a self-sustaining probe storm the quiesced benches
  // never see.
  if (trig && (!refresh_round || echo_accept)) {
    if ((propagate || content_changed) && probe.origin < dense_->dst_slot.size()) {
      request_trigger(dense_->dst_slot[probe.origin], sim.now());
      flush_pending(sim);
    }
    return;
  }

  // Sender-side delta-suppression: even an accepted update is not worth
  // re-flooding when the quantized advertisement for this row — the carried
  // mv plus the stored next tag / next hop — matches what was last sent
  // (e.g. a sub-quantum latency improvement). Refresh rounds always
  // re-broadcast, which keeps downstream failure detectors and metric expiry
  // fed and pins the steady-state fixed point to the unsuppressed
  // protocol's: every refresh round replays the full flood, so the per-row
  // winner is decided by exactly the legacy comparisons.
  if (propagate && !refresh_round) {
    const AdvertState& adv = adverts_[row];
    if (adv.valid && adv.util == probe.mv.util &&
        adv.lat == quantize_advert_lat(probe.mv.lat) && adv.len == probe.mv.len &&
        adv.ntag == incoming_tag && adv.nhop == traffic_link) {
      ++stats_.probes_suppressed;
      tel.metrics().add(tel.core().probes_suppressed);
      if (tel.tracing()) {
        sim::ProbeFields suppressed = probe;
        suppressed.tag = local_tag;
        trace_probe(obs::Ev::kProbeSuppress, suppressed, sim.now());
      }
      propagate = false;
    }
  }
  if (!propagate) return;
  if (suppression_active || trig) {
    // Record what is about to go out as this row's standing advertisement
    // (triggered mode: keepalive floods must refresh it so the next
    // emit_deltas diffs against what neighbors actually heard).
    AdvertState& adv = adverts_[row];
    adv.util = probe.mv.util;
    adv.lat = quantize_advert_lat(probe.mv.lat);
    adv.len = probe.mv.len;
    adv.ntag = incoming_tag;
    adv.nhop = traffic_link;
    adv.version = probe.version;
    adv.valid = true;
  }

  // MULTICASTPROBE along PG out-edges of the local virtual node. The pure
  // back-edge (same link, same virtual node it just came from) is skipped —
  // such a probe is strictly stale at the sender.
  const uint32_t pg_node = pg_node_of_tag_[local_tag];
  if (pg_node == pg::kInvalidPgNode) return;
  probe.tag = local_tag;
  for (const pg::PgEdge& edge : compiled_->graph.out_edges(pg_node)) {
    if (edge.link == traffic_link && edge.to_tag == incoming_tag) continue;
    Packet copy = packet;
    copy.id = sim.next_packet_id();
    ++stats_.probes_propagated;
    sim.send_on_link(edge.link, std::move(copy));
  }
}

bool ContraSwitch::entry_usable(const FwdEntry& entry, sim::Time now) const {
  if (entry.withdrawn) return false;  // poisoned (§12) until a probe resurrects it
  if (now - entry.updated_at >
      options_.metric_expiry_periods * options_.probe_period_s * window_scale()) {
    return false;  // metric expiration (§5.4; ×keepalive cadence when triggered)
  }
  // The next hop is presumed failed when its probe direction went silent.
  const LinkId probe_dir = compiled_->graph.topo().link(entry.nhop).reverse;
  return !failure_detector_.presumed_failed(probe_dir, now);
}

const ContraSwitch::FwdEntry* ContraSwitch::fwd_entry(NodeId dst, uint32_t tag,
                                                      uint32_t pid) const {
  const uint32_t row = dense_->row(dst, tag, pid);
  if (row == compiler::DenseFwdIndex::kNoRow || !row_present_[row]) return nullptr;
  return &rows_[row];
}

std::optional<ContraSwitch::BestChoice> ContraSwitch::best_choice(NodeId dst,
                                                                  sim::Time now) const {
  // BestT scan = one cache-linear pass over the destination's contiguous
  // (tag, pid) slice of the register array, in ascending (tag, pid) order.
  if (dst >= dense_->dst_slot.size()) return std::nullopt;
  const uint32_t slot = dense_->dst_slot[dst];
  if (slot == compiler::DenseFwdIndex::kNoSlot) return std::nullopt;
  const uint32_t begin = dense_->slice_begin(slot);
  const uint32_t width = dense_->slice_width();
  const uint32_t num_pids = dense_->num_pids;
  std::optional<BestChoice> best;
  for (uint32_t off = 0; off < width; ++off) {
    const uint32_t row = begin + off;
    if (!row_present_[row]) continue;
    const FwdEntry& entry = rows_[row];
    if (!entry_usable(entry, now)) continue;
    const uint32_t tag = dense_->slot_tags[off / num_pids];
    lang::Rank rank = evaluator_->selection_rank(tag, entry.mv);
    if (rank.is_infinite()) continue;
    if (!best || rank < best->rank) {
      best = BestChoice{tag, off % num_pids, std::move(rank), entry.nhop};
    }
  }
  return best;
}

void ContraSwitch::forward_data(Simulator& sim, Packet&& packet, LinkId in_link) {
  const sim::Time now = sim.now();
  if (sim.trace_enabled()) {
    packet.path.get_or_create().trace.push_back(static_cast<uint16_t>(self_));
  }

  // The five-tuple hash (flowlet id), hashed at most once per switch: here
  // before source selection, in transit only when the packet moves on.
  uint32_t fid = 0;
  if (in_link == sim::kFromHost) {
    if (packet.dst_switch == self_) {  // same-rack delivery
      ++stats_.data_to_host;
      sim.send_to_host(packet.dst_host, std::move(packet));
      return;
    }
    // First switch: BestT selection stamps (tag, pid) — the s() rank over
    // every candidate entry for this destination. The selection itself is
    // flowlet-pinned so a flowlet stays on one (tag, pid) path.
    fid = util::hash_five_tuple(packet.tuple);
    SourcePin* pin = source_pins_.find(fid);
    // Strict <: a gap of exactly the timeout expires the pin, matching
    // FlowletTable::lookup's >= expiry (§5.2 boundary semantics).
    if (pin != nullptr && now - pin->last_seen < options_.flowlet_timeout_s) {
      packet.routing.tag = pin->tag;
      packet.routing.pid = pin->pid;
      pin->last_seen = now;
    } else {
      const auto choice = best_choice(packet.dst_switch, now);
      if (!choice) {
        ++stats_.data_dropped_no_route;
        telemetry_->metrics().add(telemetry_->core().data_dropped_no_route);
        return;
      }
      packet.routing.tag = choice->tag;
      packet.routing.pid = choice->pid;
      source_pins_[fid] = SourcePin{choice->tag, choice->pid, now};
    }
    packet.size_bytes += options_.tag_overhead_bytes;  // tag+pid header on the wire
    packet.routing.traffic_class = options_.traffic_class_id;
    packet.routing.stamped = true;
  } else {
    // Exact transit loop accounting (simulator-side ground truth): the same
    // packet id crossing this switch twice within the window is a loop.
    if (now - recent_packets_reset_ > 0.01 || recent_packets_.size() >= kRecentPacketsCap) {
      recent_packets_.clear();
      recent_packets_reset_ = now;
    }
    auto [counted, inserted] = recent_packets_.try_emplace(packet.id, uint8_t{0});
    if (!inserted && *counted == 0) {
      ++stats_.looped_packets_seen;
      *counted = 1;
    }
  }

  if (packet.dst_switch == self_) {
    ++stats_.data_to_host;
    sim.send_to_host(packet.dst_host, std::move(packet));
    return;
  }

  if (in_link != sim::kFromHost) fid = util::hash_five_tuple(packet.tuple);
  const FlowletKey fkey = options_.policy_aware_flowlets
                              ? FlowletKey{packet.routing.tag, packet.routing.pid, fid}
                              : FlowletKey{0, 0, fid};

  // Lazy loop breaking (§5.5): a TTL spread beyond threshold flushes the
  // flowlet entry so the next lookup re-rates against current FwdT state.
  if (options_.loop_detection && in_link != sim::kFromHost &&
      loop_detector_.observe(packet.loop_signature(), packet.routing.ttl, now)) {
    ++stats_.loops_broken;
    flowlets_.flush(fkey, now);
  }

  LinkId nhop = topology::kInvalidLink;
  uint32_t ntag = pg::kInvalidTag;

  FlowletEntry* pinned = flowlets_.lookup(fkey, now);
  if (pinned != nullptr) {
    const LinkId probe_dir = sim.topo().link(pinned->nhop).reverse;
    if (failure_detector_.presumed_failed(probe_dir, now)) {
      flowlets_.flush(fkey, now);  // §5.4: expire flowlets over failed links
      pinned = nullptr;
    }
  }

  if (pinned != nullptr) {
    nhop = pinned->nhop;
    if (options_.policy_aware_flowlets) {
      ntag = pinned->ntag;
    } else {
      // Naive flowlet pinning carries only the next hop; the tag must still
      // follow the actual path. A transition outside the PG is a policy
      // violation (the Fig. 8a scenario) — count and drop.
      ntag = compiled_->graph.next_tag(packet.routing.tag, sim.topo().link(nhop).to);
      if (ntag == pg::kInvalidTag) {
        ++stats_.data_dropped_no_route;
        telemetry_->metrics().add(telemetry_->core().data_dropped_no_route);
        flowlets_.flush(fkey, now);
        return;
      }
    }
    flowlets_.touch(fkey, now);
  } else {
    // Out-of-universe data keys (e.g. traffic addressed to a non-destination)
    // behave exactly like a missing entry always did: a no-route drop.
    const uint32_t row =
        dense_->row(packet.dst_switch, packet.routing.tag, packet.routing.pid);
    if (row == compiler::DenseFwdIndex::kNoRow || !row_present_[row] ||
        !entry_usable(rows_[row], now)) {
      ++stats_.data_dropped_no_route;
      telemetry_->metrics().add(telemetry_->core().data_dropped_no_route);
      return;
    }
    nhop = rows_[row].nhop;
    ntag = rows_[row].ntag;
    flowlets_.pin(fkey, FlowletEntry{nhop, ntag, packet.routing.pid, now}, now);
  }

  if (packet.routing.ttl == 0) {
    ++stats_.data_dropped_ttl;
    telemetry_->metrics().add(telemetry_->core().data_dropped_ttl);
    return;
  }
  --packet.routing.ttl;
  packet.routing.tag = ntag;
  ++stats_.data_forwarded;
  telemetry_->metrics().add(telemetry_->core().data_forwarded);
  sim.send_on_link(nhop, std::move(packet));
}

LinkId ContraSwitch::fluid_next_hop(Simulator& sim, NodeId dst_switch,
                                    const util::FiveTuple& tuple, sim::RoutingState& routing) {
  // forward_data's selection logic, side-effect free: the link the flow's
  // next packet would leave on right now. No pins are created or refreshed,
  // no flowlets pinned/touched/flushed, no stats counted — fluid flows must
  // not perturb the packet-level state the sampled subset still exercises.
  const sim::Time now = sim.now();
  const uint32_t fid = util::hash_five_tuple(tuple);
  if (!routing.stamped) {
    const SourcePin* pin = source_pins_.find(fid);
    if (pin != nullptr && now - pin->last_seen < options_.flowlet_timeout_s) {
      routing.tag = pin->tag;
      routing.pid = pin->pid;
    } else {
      const auto choice = best_choice(dst_switch, now);
      if (!choice) return topology::kInvalidLink;
      routing.tag = choice->tag;
      routing.pid = choice->pid;
    }
    routing.traffic_class = options_.traffic_class_id;
    routing.stamped = true;
  }

  const FlowletKey fkey = options_.policy_aware_flowlets
                              ? FlowletKey{routing.tag, routing.pid, fid}
                              : FlowletKey{0, 0, fid};
  LinkId nhop = topology::kInvalidLink;
  uint32_t ntag = pg::kInvalidTag;
  FlowletEntry* pinned = flowlets_.lookup(fkey, now);
  if (pinned != nullptr) {
    const LinkId probe_dir = sim.topo().link(pinned->nhop).reverse;
    if (failure_detector_.presumed_failed(probe_dir, now)) pinned = nullptr;
  }
  if (pinned != nullptr) {
    nhop = pinned->nhop;
    if (options_.policy_aware_flowlets) {
      ntag = pinned->ntag;
    } else {
      ntag = compiled_->graph.next_tag(routing.tag, sim.topo().link(nhop).to);
      if (ntag == pg::kInvalidTag) return topology::kInvalidLink;
    }
  } else {
    const uint32_t row = dense_->row(dst_switch, routing.tag, routing.pid);
    if (row == compiler::DenseFwdIndex::kNoRow || !row_present_[row] ||
        !entry_usable(rows_[row], now)) {
      return topology::kInvalidLink;
    }
    nhop = rows_[row].nhop;
    ntag = rows_[row].ntag;
  }
  routing.tag = ntag;
  return nhop;
}

std::string ContraSwitch::render_tables(sim::Time now) const {
  const topology::Topology& topo = compiled_->graph.topo();
  std::ostringstream out;
  out << "FwdT @ " << topo.name(self_) << " (* = BestT choice)\n";
  out << "  [dst, tag, pid] -> (util, lat_us, len), ntag, nhop, version\n";

  // The dense layout is already in (dst, tag, pid) order, so rendering is a
  // single pass over each destination's slice — no sort, and BestT is
  // computed once per destination instead of once per row.
  const uint32_t width = dense_->slice_width();
  const uint32_t num_pids = dense_->num_pids;
  for (uint32_t slot = 0; slot < dense_->destinations.size(); ++slot) {
    const NodeId dst = dense_->destinations[slot];
    const auto best = best_choice(dst, now);
    const uint32_t begin = dense_->slice_begin(slot);
    for (uint32_t off = 0; off < width; ++off) {
      if (!row_present_[begin + off]) continue;
      const FwdEntry& entry = rows_[begin + off];
      const uint32_t tag = dense_->slot_tags[off / num_pids];
      const uint32_t pid = off % num_pids;
      const bool starred = best && best->tag == tag && best->pid == pid;
      char line[192];
      std::snprintf(line, sizeof line,
                    "  [%s, t%u, p%u] -> (%.3f, %.2f, %.0f), t%u, %s, v%llu%s%s\n",
                    topo.name(dst).c_str(), tag, pid, entry.mv.util, entry.mv.lat,
                    entry.mv.len, entry.ntag, topo.name(topo.link(entry.nhop).to).c_str(),
                    static_cast<unsigned long long>(entry.version),
                    entry_usable(entry, now) ? "" : " [expired]", starred ? " *" : "");
      out << line;
    }
  }
  return out.str();
}

std::string ContraSwitch::check_reference_parity(sim::Time now) const {
  if (!options_.reference_tables) return "reference tables are not enabled";
  const topology::Topology& topo = compiled_->graph.topo();
  char buf[160];

  // Dense -> reference: every present row must shadow an identical map entry.
  std::string diff;
  size_t present = 0;
  for_each_fwd_entry([&](NodeId dst, uint32_t tag, uint32_t pid, const FwdEntry& entry) {
    ++present;
    if (!diff.empty()) return;
    const auto it = reference_fwdt_.find(FwdKey{dst, tag, pid});
    if (it == reference_fwdt_.end()) {
      std::snprintf(buf, sizeof buf, "sw %s: dense row [dst=%u,t%u,p%u] missing from reference",
                    topo.name(self_).c_str(), dst, tag, pid);
      diff = buf;
      return;
    }
    const FwdEntry& ref = it->second;
    if (ref.mv.util != entry.mv.util || ref.mv.lat != entry.mv.lat ||
        ref.mv.len != entry.mv.len || ref.ntag != entry.ntag || ref.nhop != entry.nhop ||
        ref.version != entry.version || ref.updated_at != entry.updated_at) {
      std::snprintf(buf, sizeof buf, "sw %s: dense/reference contents differ at [dst=%u,t%u,p%u]",
                    topo.name(self_).c_str(), dst, tag, pid);
      diff = buf;
    }
  });
  if (!diff.empty()) return diff;
  // Reference -> dense: equal sizes close the bijection (no extra map keys).
  if (present != reference_fwdt_.size()) {
    std::snprintf(buf, sizeof buf, "sw %s: %zu dense rows vs %zu reference entries",
                  topo.name(self_).c_str(), present, reference_fwdt_.size());
    return buf;
  }

  // BestT: the dense slice scan must pick a winner of the same rank the
  // reference map yields. Ranks (not exact (tag, pid)) are compared — ties
  // are broken by iteration order, which is unspecified for the hash map.
  for (const NodeId dst : dense_->destinations) {
    const auto dense_best = best_choice(dst, now);
    std::optional<lang::Rank> ref_best;
    for (const auto& [key, entry] : reference_fwdt_) {
      if (key.origin != dst || !entry_usable(entry, now)) continue;
      lang::Rank rank = evaluator_->selection_rank(key.tag, entry.mv);
      if (rank.is_infinite()) continue;
      if (!ref_best || rank < *ref_best) ref_best = std::move(rank);
    }
    if (dense_best.has_value() != ref_best.has_value() ||
        (dense_best && dense_best->rank != *ref_best)) {
      std::snprintf(buf, sizeof buf, "sw %s: BestT divergence for dst %u (%s vs %s winner)",
                    topo.name(self_).c_str(), dst, dense_best ? "dense" : "no-dense",
                    ref_best ? "reference" : "no-reference");
      return buf;
    }
  }
  return "";
}

ContraSwitchStats& ContraSwitchStats::operator+=(const ContraSwitchStats& other) {
  probes_originated += other.probes_originated;
  probes_received += other.probes_received;
  probes_propagated += other.probes_propagated;
  probes_dropped_version += other.probes_dropped_version;
  probes_dropped_worse += other.probes_dropped_worse;
  probes_dropped_no_pg += other.probes_dropped_no_pg;
  probes_suppressed += other.probes_suppressed;
  dense_fallback_hits += other.dense_fallback_hits;
  probes_triggered += other.probes_triggered;
  probes_holddown_deferred += other.probes_holddown_deferred;
  keepalive_probes += other.keepalive_probes;
  probes_withdrawn += other.probes_withdrawn;
  fwdt_updates += other.fwdt_updates;
  data_forwarded += other.data_forwarded;
  data_to_host += other.data_to_host;
  data_dropped_no_route += other.data_dropped_no_route;
  data_dropped_ttl += other.data_dropped_ttl;
  loops_broken += other.loops_broken;
  looped_packets_seen += other.looped_packets_seen;
  return *this;
}

std::vector<ContraSwitch*> install_contra_network(Simulator& sim,
                                                  const compiler::CompileResult& compiled,
                                                  const pg::PolicyEvaluator& evaluator,
                                                  ContraSwitchOptions options) {
  std::vector<ContraSwitch*> switches;
  switches.reserve(sim.topo().num_nodes());
  for (NodeId n = 0; n < sim.topo().num_nodes(); ++n) {
    auto sw = std::make_unique<ContraSwitch>(compiled, evaluator, n, options);
    ContraSwitch* raw = sw.get();
    if (sim.install_switch(n, std::move(sw))) switches.push_back(raw);
  }
  return switches;
}

}  // namespace contra::dataplane
