// Telemetry hub: one per Simulator.
//
// Bundles the fixed-slot metrics registry (always on, bench-gated to
// near-zero cost), the preregistered core metric ids every instrumented
// component uses, and the optional trace sink. Instrumentation calls are
// written so the disabled path is one branch:
//
//   obs::Telemetry& t = sim.telemetry();
//   t.metrics().add(t.core().probes_received);            // relaxed add
//   if (t.tracing()) t.emit({now, obs::Ev::kProbeRx, …}); // branch when off
#pragma once

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace contra::obs {

/// Core metric slots, registered once per registry. Components reach them
/// via Telemetry::core() so names stay consistent between the periodic
/// snapshots, --metrics-json output, and tools/telemetry_report.py.
struct CoreMetrics {
  // Probe lifecycle (contra + hula).
  CounterId probes_originated, probes_received, probes_accepted;
  CounterId probes_rejected_stale, probes_rejected_rank, probes_rejected_no_pg;
  CounterId fwdt_updates, route_flips;
  // Dense-table control plane (contra).
  CounterId probes_suppressed, dense_fallback_hits;
  // Triggered-update control plane (contra; DESIGN.md §12). probe_bytes_rx
  // counts on every probing plane.
  CounterId probes_triggered;          ///< probe copies sent by triggered emissions
  CounterId probes_holddown_deferred;  ///< trigger requests parked by the hold-down timer
  CounterId keepalive_probes;          ///< probes received on keepalive refresh rounds
  CounterId probes_withdrawn;          ///< poison (withdraw) adverts sent
  CounterId probe_bytes_rx;            ///< control-plane bytes received as probes
  // Flowlet churn (all flowlet-switching planes).
  CounterId flowlets_created, flowlets_switched, flowlets_expired, flowlets_flushed;
  // Failure handling + loop breaking.
  CounterId failure_detections, failure_clears, loop_breaks;
  CounterId link_down_events, link_up_events;
  // Link-level loss.
  CounterId link_drops, link_ecn_marks;
  // Data forwarding outcomes.
  CounterId data_forwarded, data_dropped_no_route, data_dropped_ttl;
  // Transport.
  CounterId tcp_rto_fired, tcp_fast_retx, flows_started, flows_completed;
  // Parallel engine (per-shard registries; merged view sums them).
  CounterId par_epochs;            ///< phases this shard actually ran work in
  CounterId par_idle_skips;       ///< phases this shard skipped the barrier (provably idle)
  CounterId par_mailbox_hops;     ///< cross-shard packets drained into this shard
  CounterId par_mailbox_batches;  ///< non-empty mailbox drain passes
  CounterId par_shards_fused;     ///< partition-time shard fusions (shard 0 only)
  // Churn engine (DESIGN.md §13).
  CounterId churn_waves;          ///< fault waves injected by the churn engine
  CounterId gray_loss_drops;      ///< packets lost to gray-failure loss draws
  CounterId switch_restarts;      ///< control-plane restarts injected
  // Distributions.
  HistogramId drop_queue_bytes;   ///< queue depth (bytes) at each drop
  HistogramId probe_path_len;     ///< mv.len of accepted probes
  HistogramId par_batch_size;     ///< hops per non-empty mailbox drain batch
  HistogramId fct_us;             ///< flow completion time (µs) of completed TCP flows

  explicit CoreMetrics(MetricsRegistry& registry);
};

class Telemetry {
 public:
  Telemetry() : core_(registry_) {}

  MetricsRegistry& metrics() { return registry_; }
  const MetricsRegistry& metrics() const { return registry_; }
  const CoreMetrics& core() const { return core_; }

  /// Whether a trace sink is attached. Gate any tracing-only bookkeeping
  /// (route-flip scans, flowlet tombstones) on this.
  bool tracing() const { return sink_ != nullptr; }
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  void emit(const TraceRecord& record) {
    if (sink_ != nullptr) sink_->write(record);
  }

 private:
  MetricsRegistry registry_;
  CoreMetrics core_;
  TraceSink* sink_ = nullptr;
};

}  // namespace contra::obs
