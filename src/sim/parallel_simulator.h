// Sharded parallel simulation engine (DESIGN.md §8).
//
// The topology is partitioned into shards (topology/partitioner.h); each
// shard owns a full Simulator restricted to its switches and advances on its
// own EventQueue. Shards synchronize with conservative per-channel lookahead
// (CMB/null-message style): the partitioner exposes a safe-horizon matrix
// h[src][dst] = min propagation delay over cut links src->dst, and between
// phases the scheduler computes, for every shard, the earliest time any
// other shard could still reach it — folding in each shard's next pending
// event (a quiescent shard cannot transmit before its next event fires) and
// closing the bound transitively over relay chains (min-plus closure, the
// classical LBTS computation). Each shard then runs to its own safe target:
// shards with no short inbound cut links advance in wide epochs, provably
// idle shards skip the barrier entirely, and a phase that dispatches a
// single shard runs inline on the main thread with no pool wakeup.
//
// Determinism contract (the part worth reading twice):
//   * The execution schedule is a pure function of (topology, shard count,
//     seeds). Phase targets are computed from barrier-time queue state that
//     is itself deterministic, so worker threads only decide *who* executes
//     a shard's deterministic event stream, never *what* is executed — any
//     --workers N, including 1, is bit-identical to any other N.
//   * Ties are processed in (time, shard, sequence) order: each queue breaks
//     time ties by insertion sequence, and drains happen at deterministic
//     phases in fixed source-shard order.
//   * One shard is the serial engine: run_until runs its queue straight to
//     `end` (and to each metrics snapshot tick), with no phase plan, no
//     epoch or barrier records and no par_epochs count.
//   * With >1 shards, results are deterministic and workers-invariant but
//     not bit-identical to one shard (or to a different shard count): a
//     cross-shard delivery enters the destination queue at a drain rather
//     than at transmit time, so *simultaneous* events can interleave
//     differently (and first-arrival-wins protocol ties, e.g. equal-rank
//     probes, can resolve the other way). Same-time tie order is the only
//     divergence.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/shard.h"
#include "sim/transport.h"
#include "topology/partitioner.h"

namespace contra::obs {
class EngineProfiler;
class FlowTracker;
}

namespace contra::sim {

class ParallelSimulator {
 public:
  /// `config.shards` and `config.workers` both 0 builds one shard. With
  /// `config.workers` > 0, `config.shards` = 0 picks
  /// topology::default_num_shards sized to the topology and to
  /// max(config.workers, hardware_concurrency) — pass an explicit shard
  /// count when the schedule must reproduce across machines. The worker
  /// count never changes the schedule.
  ParallelSimulator(const topology::Topology& topo, SimConfig config);
  ~ParallelSimulator();
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  const topology::Topology& topo() const { return *topo_; }
  const SimConfig& config() const { return config_; }
  const topology::Partition& partition() const { return partition_; }
  uint32_t num_shards() const { return partition_.num_shards; }
  uint32_t num_workers() const { return workers_; }
  /// Minimum cut-link delay (+inf when no link crosses the cut): a lower
  /// bound on every per-channel horizon, and the width a global epoch grid
  /// would step by.
  double epoch_width_s() const { return partition_.min_cut_delay_s; }
  /// Synchronization phases completed — one fork-join barrier each; 0 with
  /// one shard. The per-channel scheduler's whole point is keeping this
  /// small relative to sim-time / epoch_width_s.
  uint64_t epochs_completed() const { return phases_; }
  /// Phases whose dispatch list was a single shard: run inline on the main
  /// thread, no worker wakeup — a "free" barrier.
  uint64_t solo_phases() const { return solo_phases_; }

  Simulator& shard_sim(uint32_t shard) { return shards_[shard]->sim; }
  Shard& shard(uint32_t s) { return *shards_[s]; }
  uint32_t shard_of_node(topology::NodeId node) const { return partition_.shard(node); }

  // ----- setup (main thread, before run_until) -----------------------------

  /// Adds the host on *every* shard (ids and link indices must line up);
  /// only the shard owning `attach` ever carries its traffic.
  HostId add_host(topology::NodeId attach);
  uint32_t num_hosts() const { return shards_[0]->sim.num_hosts(); }
  topology::NodeId host_switch(HostId host) const { return shards_[0]->sim.host_switch(host); }

  /// Runs `fn(Simulator&)` on every shard simulator in shard order — the
  /// hook for install_*_network style setup.
  template <typename Fn>
  void for_each_shard(Fn&& fn) {
    for (auto& shard : shards_) fn(shard->sim);
  }

  /// Arms device timers on every shard.
  void start();

  /// Sends the control-plane trace to `sink`, which must outlive the run.
  /// With one shard the records reach the sink as they are emitted. With
  /// more, each shard buffers its own, and after every phase the records
  /// older than every shard's committed time — which no shard can still
  /// precede — are written merged in (t, shard, emission index) order.
  /// Call before start().
  void enable_tracing(obs::TraceSink* sink);
  /// Writes the rest of the shard trace buffers to the sink, merged, and
  /// empties them. Nothing is buffered with one shard.
  void flush_trace();

  /// Attaches a wall-clock engine profiler (obs::EngineProfiler built with
  /// num_shards()+1 tracks: one per shard plus the scheduler track). Spans,
  /// with more than one shard: per-shard `mailbox_drain` / `phase_run`,
  /// scheduler-track `plan` / `barrier`. Opt-in; one null-check per phase
  /// when absent. Call before run_until; timestamps are relative to the
  /// call.
  void set_profiler(obs::EngineProfiler* profiler);

  /// Periodic metrics snapshots: one merged snapshot line is written per
  /// `interval_s` tick of simulation time. One shard runs to each tick and
  /// writes it there; more shards write it at the first phase boundary
  /// where every shard has committed past the tick (the engine's natural
  /// stop-the-world points — see OBSERVABILITY.md). The emission schedule
  /// depends only on the deterministic phase plan, so output is
  /// workers-invariant. nullptr disables.
  void set_metrics_snapshots(double interval_s, std::ostream* out);

  // ----- failure injection -------------------------------------------------

  /// Immediate fail/restore on every shard's replica; telemetry and logging
  /// fire once, on the shard owning the link's transmit side.
  void fail_cable(topology::LinkId link);
  void restore_cable(topology::LinkId link);
  /// Pre-run scheduling of a mid-run failure: every shard applies the state
  /// change at local time `t` inside its own epoch.
  void schedule_cable_event(Time t, topology::LinkId link, bool down);

  // Churn engine hooks (DESIGN.md §13). Gray state replicates to every
  // shard's link replicas (loud on the owner, like cable events); a restart
  // is scheduled only on the shard owning the device; the wave marker fires
  // on shard 0, once.
  void schedule_gray_event(Time t, topology::LinkId link, GrayParams gray);
  void schedule_restart_event(Time t, topology::NodeId node);
  void schedule_churn_wave(Time t, obs::FaultClass cls, uint32_t wave_index);

  // ----- run ---------------------------------------------------------------

  /// Advances every shard to `end` (inclusive, like Simulator::run_until)
  /// through the phase scheduler. Callable repeatedly with growing `end`,
  /// exactly like the serial engine's run windows. With a fluid engine
  /// attached (set_fluid) the window is split at fluid quantum ticks: each
  /// tick runs on the main thread while every shard is parked at exactly the
  /// tick time, so hybrid results are workers-invariant by construction.
  void run_until(Time end);

  /// Attaches the hybrid fluid engine (DESIGN.md §14). ParallelTransport
  /// calls this when TransportConfig::hybrid is set; the engine must outlive
  /// the runs (detach with nullptr before it dies).
  void set_fluid(FluidEngine* fluid) { fluid_ = fluid; }

  Time now() const { return now_; }

  // ----- merged views ------------------------------------------------------

  /// Per-link stats summed over shards (only the owning shard's replica ever
  /// counts, so the sum is exact).
  LinkStats aggregate_fabric_stats() const;
  uint64_t events_processed() const;
  uint64_t events_clamped() const;

  /// Metrics snapshot with per-shard registries folded together (counters
  /// and histograms sum, gauges max).
  std::string merged_metrics_json(double t) const;

 private:
  /// Computes per-shard phase targets from the per-channel lookahead, fills
  /// dispatch_, and idle-skips shards with no work. Returns false when
  /// nothing at or before `end` remains anywhere.
  bool plan_phase(Time end);
  /// One scheduler window: phase loop + quiescent tail, no fluid ticks
  /// (run_until splits windows at fluid wakes and calls this per span).
  void run_span(Time end);
  /// Drain inbound mailboxes + run one shard to its planned target.
  void run_phase_shard(uint32_t s);
  /// Runs the planned dispatch list across the worker pool (or inline when
  /// it is a single shard) and retires the phase.
  void execute_phase();
  void worker_loop(uint32_t worker);
  void wait_done();
  /// Writes the buffered records with t < `before`, merged in (t, shard,
  /// emission index) order.
  void stream_trace_before(Time before);

  const topology::Topology* topo_;
  SimConfig config_;
  topology::Partition partition_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Time now_ = 0.0;
  FluidEngine* fluid_ = nullptr;  ///< hybrid mode (set_fluid); not owned
  uint64_t phases_ = 0;
  uint64_t solo_phases_ = 0;
  bool tracing_ = false;  ///< shards buffer trace records (more than one shard)
  obs::TraceSink* trace_sink_ = nullptr;
  std::vector<obs::TraceRecord> trace_batch_;  ///< stream_trace_before scratch

  // Engine profiling (opt-in; see set_profiler).
  obs::EngineProfiler* profiler_ = nullptr;
  std::chrono::steady_clock::time_point profile_epoch_{};
  double profile_us(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - profile_epoch_).count();
  }

  // Periodic merged snapshots (opt-in; see set_metrics_snapshots).
  std::ostream* snapshot_out_ = nullptr;
  double snapshot_interval_s_ = 0.0;
  uint64_t snapshot_tick_ = 1;  ///< next unemitted tick index (t = tick * interval)
  void emit_snapshots_through(Time t);

  // Phase-scheduler scratch (sized once; the steady state allocates nothing).
  std::vector<double> base_;   ///< earliest pending work per shard
  std::vector<double> avail_;  ///< min-plus closure of base_ over the horizon matrix
  std::vector<uint32_t> dispatch_;  ///< shards with real work this phase

  // Worker pool: persistent threads, fork-join per phase via a generation
  // counter (release) and a completion counter (acquire). Bounded spin, then
  // park on the atomic (C++20 wait/notify): epochs are microseconds of work
  // so short spins usually win, but oversubscribed or idle-heavy runs must
  // not burn cores.
  uint32_t workers_ = 1;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint32_t> done_{0};
  std::atomic<bool> shutdown_{false};
};

// ----- transport over shards -----------------------------------------------

/// One TransportManager per shard; a flow lives on the shard owning its
/// source host's edge switch (the receiver side materializes on the
/// destination shard on first data arrival, keyed by flow id). Flow ids are
/// namespaced per shard — (shard << 48) + sequence — so shard 0 matches the
/// serial id sequence.
class ParallelTransport {
 public:
  explicit ParallelTransport(ParallelSimulator& psim, TransportConfig config = {});
  ~ParallelTransport();  // out of line: trackers_ holds an incomplete type here

  uint64_t start_flow(HostId src, HostId dst, uint64_t bytes, Time start_time);
  uint64_t start_udp_flow(HostId src, HostId dst, double rate_bps, Time start_time,
                          Time stop_time, uint32_t packet_bytes = 1500);

  /// Completed flows. With one shard, its manager's list in completion
  /// order, read in place. With more, every shard's list merged in (end
  /// time, flow id) order — deterministic, unlike raw per-shard completion
  /// interleaving — into a buffer that the next call overwrites.
  const std::vector<FlowRecord>& completed_flows() const;
  std::vector<FlowRecord> all_flows() const;
  uint64_t total_reordered_packets() const;
  uint64_t udp_bytes_received() const;

  TransportManager& shard_transport(uint32_t shard) { return *transports_[shard]; }
  const TransportConfig& config() const { return config_; }

  /// Attaches one obs::FlowTracker per shard (and turns on path-signature
  /// stamping in every shard simulator). A flow's sender half lands on its
  /// source shard's tracker and the receiver half on the destination
  /// shard's; merged_flow_tracker() folds them by flow id.
  /// `path_sample_every` > 0 additionally samples 1-in-N data packets with
  /// INT hop records (deterministic in (flow_id, seq)).
  void enable_flow_tracking(uint32_t path_sample_every = 0);
  bool flow_tracking() const { return !trackers_.empty(); }
  obs::FlowTracker& shard_flow_tracker(uint32_t shard) { return *trackers_[shard]; }
  /// The shard trackers folded into one. Moves them out rather than copying
  /// them, so call it once, after the run.
  obs::FlowTracker merged_flow_tracker();

  /// The shared hybrid fluid engine (DESIGN.md §14); nullptr unless
  /// config.hybrid. One engine spans every shard: it is bound to all shard
  /// simulators and ticks on the main thread between phases.
  FluidEngine* fluid_engine() const { return fluid_.get(); }

 private:
  TransportManager& for_host(HostId src);

  ParallelSimulator* psim_;
  TransportConfig config_;
  std::unique_ptr<FluidEngine> fluid_;  ///< created when config.hybrid
  std::vector<std::unique_ptr<TransportManager>> transports_;
  std::vector<std::unique_ptr<obs::FlowTracker>> trackers_;
  mutable std::vector<FlowRecord> merged_completed_;  ///< see completed_flows()
};

}  // namespace contra::sim
