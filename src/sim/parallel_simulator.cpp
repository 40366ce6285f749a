#include "sim/parallel_simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <ostream>

#include "obs/flow_tracker.h"
#include "obs/profile.h"
#include "sim/fluid.h"
#include "obs/telemetry.h"

namespace contra::sim {

ParallelSimulator::ParallelSimulator(const topology::Topology& topo, SimConfig config)
    : topo_(&topo), config_(config) {
  const uint32_t want_workers = config.workers == 0 ? 1 : config.workers;
  // No shards and no workers asked for: one shard. Workers without a shard
  // count: sized to the topology, capped by the parallelism we can actually
  // use — the larger of the requested workers and the machine's cores
  // (workers may exceed cores deliberately, e.g. determinism tests).
  uint32_t requested = config.shards;
  if (requested == 0) {
    requested = config.workers == 0
                    ? 1
                    : topology::default_num_shards(
                          topo, std::max(want_workers, std::thread::hardware_concurrency()));
  }
  partition_ = topology::partition_topology(topo, requested);
  // Zero-delay cut links are fused away at partition time (a zero-width
  // channel admits no conservative lookahead at all).
  assert(partition_.num_shards == 1 || partition_.num_cut_links == 0 ||
         partition_.min_cut_delay_s > 0.0);
  shards_.reserve(partition_.num_shards);
  for (uint32_t s = 0; s < partition_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, topo, config_, partition_));
  }
  if (partition_.fused_shards > 0) {
    obs::Telemetry& tel = shards_[0]->sim.telemetry();
    tel.metrics().add(tel.core().par_shards_fused, partition_.fused_shards);
  }

  base_.resize(partition_.num_shards);
  avail_.resize(partition_.num_shards);
  dispatch_.reserve(partition_.num_shards);

  workers_ = std::max<uint32_t>(1, std::min(want_workers, partition_.num_shards));
  threads_.reserve(workers_ - 1);
  for (uint32_t w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ParallelSimulator::~ParallelSimulator() {
  if (!threads_.empty()) {
    shutdown_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void ParallelSimulator::worker_loop(uint32_t worker) {
  uint64_t seen = 0;
  for (;;) {
    // Bounded spin, then park on the generation word. Phases are typically
    // microseconds apart so the spin usually wins; parking is what keeps
    // idle-heavy or oversubscribed runs from burning a core per worker.
    uint32_t spins = 0;
    for (;;) {
      const uint64_t g = generation_.load(std::memory_order_acquire);
      if (g != seen) {
        seen = g;
        break;
      }
      if (++spins < 64) continue;
      if (spins < 1024) {
        std::this_thread::yield();
        continue;
      }
      generation_.wait(g, std::memory_order_acquire);
    }
    if (shutdown_.load(std::memory_order_relaxed)) return;
    for (size_t i = worker; i < dispatch_.size(); i += workers_) {
      run_phase_shard(dispatch_[i]);
    }
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_one();
  }
}

void ParallelSimulator::wait_done() {
  // The acquire pairs with each worker's release, publishing every mailbox
  // and queue write of this phase back to the main thread.
  const uint32_t expected = workers_ - 1;
  uint32_t spins = 0;
  for (;;) {
    const uint32_t d = done_.load(std::memory_order_acquire);
    if (d == expected) return;
    if (++spins < 1024) {
      std::this_thread::yield();
      continue;
    }
    done_.wait(d, std::memory_order_acquire);
  }
}

void ParallelSimulator::run_phase_shard(uint32_t s) {
  Shard& shard = *shards_[s];
  using Clock = std::chrono::steady_clock;
  const bool prof = profiler_ != nullptr;
  const Clock::time_point t0 = prof ? Clock::now() : Clock::time_point{};
  const uint64_t drained = drain_mailboxes_into(shard, shards_);
  const Clock::time_point t1 = prof ? Clock::now() : Clock::time_point{};
  if (tracing_ && drained > 0) {
    obs::TraceRecord r;
    r.t = shard.target;
    r.ev = obs::Ev::kBarrier;
    r.sw = s;
    r.value = static_cast<double>(drained);
    shard.sim.telemetry().emit(r);
  }
  if (shard.inclusive) {
    shard.sim.run_until(shard.target);
  } else {
    shard.sim.events().run_before(shard.target);
  }
  shard.committed = shard.target;
  obs::Telemetry& tel = shard.sim.telemetry();
  tel.metrics().add(tel.core().par_epochs);
  const uint64_t processed = shard.sim.events().events_processed();
  if (tracing_ && processed != shard.events_at_epoch_start) {
    obs::TraceRecord r;
    r.t = shard.target;
    r.ev = obs::Ev::kEpoch;
    r.sw = s;
    r.value = static_cast<double>(processed - shard.events_at_epoch_start);
    shard.sim.telemetry().emit(r);
  }
  shard.events_at_epoch_start = processed;
  if (prof) {
    // Track s is written only while shard s is dispatched, and phases are
    // fork-join separated — single writer per track at any instant.
    const Clock::time_point t2 = Clock::now();
    if (drained > 0) profiler_->add_span(s, "mailbox_drain", profile_us(t0), profile_us(t1) - profile_us(t0));
    profiler_->add_span(s, "phase_run", profile_us(t1), profile_us(t2) - profile_us(t1));
  }
}

bool ParallelSimulator::plan_phase(Time end) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const uint32_t n = partition_.num_shards;

  // base[s]: earliest pending work anywhere for shard s — its next queue
  // event or the earliest hop parked in an inbound mailbox. An invariant of
  // the scheduler is base[s] >= committed[s]: a shard never advances past
  // work it has not executed.
  double min_base = kInf;
  for (uint32_t s = 0; s < n; ++s) {
    double b = shards_[s]->sim.events().next_time();
    for (uint32_t src = 0; src < n; ++src) {
      b = std::min(b, shards_[src]->outbox[s].min_deliver_at());
    }
    base_[s] = b;
    min_base = std::min(min_base, b);
  }
  if (!(min_base <= end)) return false;  // window complete

  // Per-channel lookahead: close base over the horizon matrix (min-plus /
  // Bellman-Ford fixpoint, the classical LBTS computation). avail[s]
  // lower-bounds the time of *any* event shard s can still execute,
  // including events reaching it through relay chains — without the
  // closure, a two-hop chain (C -> A -> B) can deliver into B earlier than
  // B's direct-channel bounds admit, and the schedule is unsound.
  avail_ = base_;
  for (bool changed = true; changed;) {
    changed = false;
    for (uint32_t dst = 0; dst < n; ++dst) {
      double best = avail_[dst];
      for (uint32_t src = 0; src < n; ++src) {
        if (src == dst) continue;
        const double cand = avail_[src] + partition_.horizon_of(src, dst);
        if (cand < best) best = cand;
      }
      if (best < avail_[dst]) {
        avail_[dst] = best;
        changed = true;
      }
    }
  }

  dispatch_.clear();
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    // Safe horizon for s: the earliest instant any other shard could still
    // deliver into it. Horizons are strictly positive (zero-delay cuts are
    // fused), so the globally-earliest shard always gets a boundary above
    // its own next event — every planned phase makes progress.
    double t = kInf;
    for (uint32_t src = 0; src < n; ++src) {
      if (src == s) continue;
      t = std::min(t, avail_[src] + partition_.horizon_of(src, s));
    }
    const bool inclusive = !(t <= end);
    const double boundary = inclusive ? end : t;
    // An inclusive boundary may be revisited (run_until(end) twice, with new
    // work injected at exactly `end` in between) — matching the serial
    // engine's inclusive-end semantics. A strict boundary may not.
    const bool can_advance = inclusive ? boundary >= shard.committed : boundary > shard.committed;
    if (!can_advance) continue;

    double inbound = kInf;
    for (uint32_t src = 0; src < n; ++src) {
      inbound = std::min(inbound, shards_[src]->outbox[s].min_deliver_at());
    }
    const double earliest = std::min(inbound, shard.sim.events().next_time());
    const bool has_work = inclusive ? earliest <= boundary : earliest < boundary;
    if (has_work) {
      shard.target = boundary;
      shard.inclusive = inclusive;
      dispatch_.push_back(s);
    } else if (boundary > shard.committed) {
      // Provably idle up to the boundary: advance its scheduler clock right
      // here and keep it out of the barrier entirely. (Parked inbound hops,
      // if any, are all at or after the boundary, so committed never passes
      // an undrained delivery.)
      shard.committed = boundary;
      obs::Telemetry& tel = shard.sim.telemetry();
      tel.metrics().add(tel.core().par_idle_skips);
    }
  }
  // Hand parked hops to each dispatched consumer. Producers keep pushing
  // into the (now empty) pending side during the phase, so a producer and a
  // drainer of the same mailbox can share a phase without a race.
  for (uint32_t s : dispatch_) {
    for (auto& src : shards_) src->outbox[s].stage();
  }
  ++phases_;
  return true;
}

void ParallelSimulator::execute_phase() {
  const size_t n = dispatch_.size();
  if (n == 1 || threads_.empty()) {
    // One busy shard (or one worker): run inline, skip the pool entirely.
    if (n == 1 && !threads_.empty()) ++solo_phases_;
    for (uint32_t s : dispatch_) run_phase_shard(s);
    return;
  }
  done_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);  // publishes dispatch_ + targets
  generation_.notify_all();
  for (size_t i = 0; i < n; i += workers_) run_phase_shard(dispatch_[i]);
  wait_done();
}

void ParallelSimulator::run_until(Time end) {
  if (fluid_ == nullptr) {
    run_span(end);
    return;
  }
  // Hybrid mode (DESIGN.md §14): split the window at fluid quantum ticks.
  // Every shard is parked at exactly the tick time when advance_to runs, so
  // the engine reads a consistent global link state and its completions are
  // a pure function of the schedule — workers-invariant by construction.
  for (;;) {
    const Time wake = fluid_->next_wake();
    run_span(std::min(end, wake));
    if (!(wake <= end)) break;
    fluid_->advance_to(wake);
  }
}

void ParallelSimulator::run_span(Time end) {
  if (partition_.num_shards == 1) {
    // The serial engine: the one queue runs straight to `end`. Snapshot
    // ticks split the window but process no extra events, so the event
    // schedule is untouched.
    Simulator& sim = shards_[0]->sim;
    while (snapshot_out_ != nullptr && snapshot_tick_ * snapshot_interval_s_ <= end) {
      const Time t = snapshot_tick_ * snapshot_interval_s_;
      sim.run_until(t);
      emit_snapshots_through(t);
    }
    sim.run_until(end);
    now_ = std::max(now_, end);
    return;
  }
  using Clock = std::chrono::steady_clock;
  while (true) {
    const Clock::time_point p0 = profiler_ ? Clock::now() : Clock::time_point{};
    const bool more = plan_phase(end);
    if (profiler_) {
      const Clock::time_point p1 = Clock::now();
      profiler_->add_span(profiler_->scheduler_track(), "plan", profile_us(p0),
                          profile_us(p1) - profile_us(p0));
    }
    if (!more) break;
    if (!dispatch_.empty()) {
      const Clock::time_point e0 = profiler_ ? Clock::now() : Clock::time_point{};
      execute_phase();
      if (profiler_) {
        const Clock::time_point e1 = Clock::now();
        profiler_->add_span(profiler_->scheduler_track(), "barrier", profile_us(e0),
                            profile_us(e1) - profile_us(e0));
      }
    }
    if (snapshot_out_ != nullptr || tracing_) {
      Time committed_min = std::numeric_limits<Time>::infinity();
      for (const auto& shard : shards_) committed_min = std::min(committed_min, shard->committed);
      if (tracing_) stream_trace_before(committed_min);
      emit_snapshots_through(std::min(committed_min, end));
    }
  }
  // Quiescent tail: nothing at or before `end` remains anywhere, but shards
  // that idle-skipped (or stopped at an early strict boundary) still have
  // local clocks behind `end`. Advance them — processes no events, matching
  // the serial engine's run_until semantics for empty windows.
  for (auto& shard : shards_) {
    if (shard->sim.now() < end) shard->sim.run_until(end);
    shard->committed = std::max(shard->committed, end);
  }
  if (tracing_) stream_trace_before(end);
  emit_snapshots_through(end);
  now_ = std::max(now_, end);
}

void ParallelSimulator::set_profiler(obs::EngineProfiler* profiler) {
  profiler_ = profiler;
  profile_epoch_ = std::chrono::steady_clock::now();
}

void ParallelSimulator::set_metrics_snapshots(double interval_s, std::ostream* out) {
  snapshot_interval_s_ = interval_s;
  snapshot_out_ = interval_s > 0 ? out : nullptr;
  snapshot_tick_ = 1;
}

void ParallelSimulator::emit_snapshots_through(Time t) {
  if (snapshot_out_ == nullptr || snapshot_interval_s_ <= 0) return;
  // Tick times are multiples of the interval (never accumulated sums), so a
  // run emits the identical tick sequence regardless of phase granularity.
  while (snapshot_tick_ * snapshot_interval_s_ <= t) {
    *snapshot_out_ << merged_metrics_json(snapshot_tick_ * snapshot_interval_s_) << '\n';
    ++snapshot_tick_;
  }
}

HostId ParallelSimulator::add_host(topology::NodeId attach) {
  HostId id = kInvalidHost;
  for (auto& shard : shards_) {
    const HostId shard_id = shard->sim.add_host(attach);
    assert(id == kInvalidHost || id == shard_id);
    id = shard_id;
  }
  return id;
}

void ParallelSimulator::start() {
  for (auto& shard : shards_) shard->sim.start();
}

void ParallelSimulator::enable_tracing(obs::TraceSink* sink) {
  trace_sink_ = sink;
  if (shards_.size() == 1) {
    shards_[0]->sim.telemetry().set_sink(sink);
    return;
  }
  tracing_ = true;
  for (auto& shard : shards_) shard->sim.telemetry().set_sink(&shard->trace);
}

void ParallelSimulator::flush_trace() {
  if (tracing_) stream_trace_before(std::numeric_limits<Time>::infinity());
}

void ParallelSimulator::stream_trace_before(Time before) {
  // Concatenate in shard order, then stable-sort by time alone: equal-time
  // records keep (shard, emission index) order — the engine's canonical tie
  // order. Every later record has t >= `before`, so the batches written over
  // a run concatenate to the same order one whole-run merge would give.
  trace_batch_.clear();
  for (auto& shard : shards_) shard->trace.take_before(before, &trace_batch_);
  std::stable_sort(trace_batch_.begin(), trace_batch_.end(),
                   [](const obs::TraceRecord& a, const obs::TraceRecord& b) { return a.t < b.t; });
  for (const obs::TraceRecord& rec : trace_batch_) trace_sink_->write(rec);
}

void ParallelSimulator::fail_cable(topology::LinkId link) {
  const uint32_t owner = partition_.shard(topo_->link(link).from);
  for (auto& shard : shards_) {
    if (shard->id == owner) {
      shard->sim.fail_cable(link);
    } else {
      shard->sim.set_cable_state_quiet(link, true);
    }
  }
}

void ParallelSimulator::restore_cable(topology::LinkId link) {
  const uint32_t owner = partition_.shard(topo_->link(link).from);
  for (auto& shard : shards_) {
    if (shard->id == owner) {
      shard->sim.restore_cable(link);
    } else {
      shard->sim.set_cable_state_quiet(link, false);
    }
  }
}

void ParallelSimulator::schedule_gray_event(Time t, topology::LinkId link, GrayParams gray) {
  const uint32_t owner = partition_.shard(topo_->link(link).from);
  for (auto& shard : shards_) {
    Simulator* sim = &shard->sim;
    const bool loud = shard->id == owner;
    shard->sim.events().schedule_at(t, [sim, link, gray, loud] {
      if (loud) {
        sim->set_cable_gray(link, gray);
      } else {
        sim->set_cable_gray_quiet(link, gray);
      }
    });
  }
}

void ParallelSimulator::schedule_restart_event(Time t, topology::NodeId node) {
  const uint32_t owner = partition_.shard(node);
  Simulator* sim = &shards_[owner]->sim;
  sim->events().schedule_at(t, [sim, node] { sim->restart_switch(node); });
}

void ParallelSimulator::schedule_churn_wave(Time t, obs::FaultClass cls, uint32_t wave_index) {
  Simulator* sim = &shards_[0]->sim;
  sim->events().schedule_at(t, [sim, cls, wave_index] { sim->note_churn_wave(cls, wave_index); });
}

void ParallelSimulator::schedule_cable_event(Time t, topology::LinkId link, bool down) {
  const uint32_t owner = partition_.shard(topo_->link(link).from);
  for (auto& shard : shards_) {
    Simulator* sim = &shard->sim;
    const bool loud = shard->id == owner;
    shard->sim.events().schedule_at(t, [sim, link, down, loud] {
      if (loud && down) {
        sim->fail_cable(link);
      } else if (loud) {
        sim->restore_cable(link);
      } else {
        sim->set_cable_state_quiet(link, down);
      }
    });
  }
}

LinkStats ParallelSimulator::aggregate_fabric_stats() const {
  LinkStats total;
  for (const auto& shard : shards_) {
    const LinkStats s = shard->sim.aggregate_fabric_stats();
    total.tx_packets += s.tx_packets;
    total.tx_bytes += s.tx_bytes;
    total.tx_data_bytes += s.tx_data_bytes;
    total.tx_ack_bytes += s.tx_ack_bytes;
    total.tx_probe_bytes += s.tx_probe_bytes;
    total.tx_data_packets += s.tx_data_packets;
    total.tx_ack_packets += s.tx_ack_packets;
    total.tx_probe_packets += s.tx_probe_packets;
    total.drops += s.drops;
    total.drop_bytes += s.drop_bytes;
    total.data_drops += s.data_drops;
  }
  return total;
}

uint64_t ParallelSimulator::events_processed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.events().events_processed();
  return total;
}

uint64_t ParallelSimulator::events_clamped() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.events().events_clamped();
  return total;
}

std::string ParallelSimulator::merged_metrics_json(double t) const {
  obs::Telemetry merged;  // registers CoreMetrics in the same order as every shard
  for (const auto& shard : shards_) {
    merged.metrics().merge_from(shard->sim.telemetry().metrics());
  }
  return merged.metrics().snapshot_json(t);
}

// ----- ParallelTransport -----------------------------------------------------

ParallelTransport::ParallelTransport(ParallelSimulator& psim, TransportConfig config)
    : psim_(&psim), config_(config) {
  // Hybrid mode builds ONE fluid engine spanning every shard (DESIGN.md
  // §14); the per-shard managers route their bulk flows into it via
  // use_fluid. The engine's ticks are driven by ParallelSimulator::run_until
  // on the main thread, between run spans.
  if (config.hybrid) {
    FluidConfig fc;
    fc.quantum_s = config.fluid_quantum_s;
    fc.mss_bytes = config.mss_bytes;
    fc.header_bytes = config.header_bytes;
    fluid_ = std::make_unique<FluidEngine>(fc);
    std::vector<Simulator*> sims;
    sims.reserve(psim.num_shards());
    for (uint32_t s = 0; s < psim.num_shards(); ++s) sims.push_back(&psim.shard_sim(s));
    ParallelSimulator* ps = &psim;
    fluid_->bind_shards(std::move(sims),
                        [ps](topology::NodeId node) { return ps->shard_of_node(node); });
    psim.set_fluid(fluid_.get());
  }
  transports_.reserve(psim.num_shards());
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    auto transport = std::make_unique<TransportManager>(psim.shard_sim(s), config);
    transport->set_next_flow_id((static_cast<uint64_t>(s) << 48) + 1);
    if (fluid_ != nullptr) transport->use_fluid(fluid_.get(), config.hybrid_sample_every);
    transports_.push_back(std::move(transport));
  }
}

ParallelTransport::~ParallelTransport() {
  // Detach trackers before they die (the transports outlive this scope only
  // in teardown order edge cases; cheap insurance either way).
  for (uint32_t s = 0; s < transports_.size(); ++s) transports_[s]->set_flow_tracker(nullptr);
  if (fluid_ != nullptr) psim_->set_fluid(nullptr);
}

void ParallelTransport::enable_flow_tracking(uint32_t path_sample_every) {
  if (!trackers_.empty()) return;
  trackers_.reserve(transports_.size());
  for (uint32_t s = 0; s < transports_.size(); ++s) {
    trackers_.push_back(std::make_unique<obs::FlowTracker>());
    transports_[s]->set_flow_tracker(trackers_.back().get());
    transports_[s]->set_path_sample_every(path_sample_every);
    psim_->shard_sim(s).set_flow_telemetry(true);
  }
}

obs::FlowTracker ParallelTransport::merged_flow_tracker() {
  obs::FlowTracker merged = std::move(*trackers_[0]);
  for (size_t s = 1; s < trackers_.size(); ++s) {
    merged.merge_from(*trackers_[s]);
    *trackers_[s] = obs::FlowTracker{};
  }
  return merged;
}

TransportManager& ParallelTransport::for_host(HostId src) {
  return *transports_[psim_->shard_of_node(psim_->host_switch(src))];
}

uint64_t ParallelTransport::start_flow(HostId src, HostId dst, uint64_t bytes, Time start_time) {
  return for_host(src).start_flow(src, dst, bytes, start_time);
}

uint64_t ParallelTransport::start_udp_flow(HostId src, HostId dst, double rate_bps,
                                           Time start_time, Time stop_time,
                                           uint32_t packet_bytes) {
  return for_host(src).start_udp_flow(src, dst, rate_bps, start_time, stop_time, packet_bytes);
}

const std::vector<FlowRecord>& ParallelTransport::completed_flows() const {
  if (transports_.size() == 1) return transports_[0]->completed_flows();
  std::vector<FlowRecord>& all = merged_completed_;
  all.clear();
  for (const auto& transport : transports_) {
    const auto& flows = transport->completed_flows();
    all.insert(all.end(), flows.begin(), flows.end());
  }
  std::sort(all.begin(), all.end(), [](const FlowRecord& a, const FlowRecord& b) {
    if (a.end != b.end) return a.end < b.end;
    return a.flow_id < b.flow_id;
  });
  return all;
}

std::vector<FlowRecord> ParallelTransport::all_flows() const {
  std::vector<FlowRecord> all;
  for (const auto& transport : transports_) {
    const auto flows = transport->all_flows();
    all.insert(all.end(), flows.begin(), flows.end());
  }
  std::sort(all.begin(), all.end(),
            [](const FlowRecord& a, const FlowRecord& b) { return a.flow_id < b.flow_id; });
  return all;
}

uint64_t ParallelTransport::total_reordered_packets() const {
  uint64_t total = 0;
  for (const auto& transport : transports_) total += transport->total_reordered_packets();
  return total;
}

uint64_t ParallelTransport::udp_bytes_received() const {
  uint64_t total = 0;
  for (const auto& transport : transports_) total += transport->udp_bytes_received();
  return total;
}

}  // namespace contra::sim
