#include "obs/telemetry.h"

namespace contra::obs {

CoreMetrics::CoreMetrics(MetricsRegistry& r)
    : probes_originated(r.counter("probes_originated")),
      probes_received(r.counter("probes_received")),
      probes_accepted(r.counter("probes_accepted")),
      probes_rejected_stale(r.counter("probes_rejected_stale")),
      probes_rejected_rank(r.counter("probes_rejected_rank")),
      probes_rejected_no_pg(r.counter("probes_rejected_no_pg")),
      fwdt_updates(r.counter("fwdt_updates")),
      route_flips(r.counter("route_flips")),
      probes_suppressed(r.counter("probes_suppressed")),
      dense_fallback_hits(r.counter("dense_fallback_hits")),
      probes_triggered(r.counter("probes_triggered")),
      probes_holddown_deferred(r.counter("probes_holddown_deferred")),
      keepalive_probes(r.counter("keepalive_probes")),
      probes_withdrawn(r.counter("probes_withdrawn")),
      probe_bytes_rx(r.counter("probe_bytes_rx")),
      flowlets_created(r.counter("flowlets_created")),
      flowlets_switched(r.counter("flowlets_switched")),
      flowlets_expired(r.counter("flowlets_expired")),
      flowlets_flushed(r.counter("flowlets_flushed")),
      failure_detections(r.counter("failure_detections")),
      failure_clears(r.counter("failure_clears")),
      loop_breaks(r.counter("loop_breaks")),
      link_down_events(r.counter("link_down_events")),
      link_up_events(r.counter("link_up_events")),
      link_drops(r.counter("link_drops")),
      link_ecn_marks(r.counter("link_ecn_marks")),
      data_forwarded(r.counter("data_forwarded")),
      data_dropped_no_route(r.counter("data_dropped_no_route")),
      data_dropped_ttl(r.counter("data_dropped_ttl")),
      tcp_rto_fired(r.counter("tcp_rto_fired")),
      tcp_fast_retx(r.counter("tcp_fast_retx")),
      flows_started(r.counter("flows_started")),
      flows_completed(r.counter("flows_completed")),
      par_epochs(r.counter("par_epochs")),
      par_idle_skips(r.counter("par_idle_skips")),
      par_mailbox_hops(r.counter("par_mailbox_hops")),
      par_mailbox_batches(r.counter("par_mailbox_batches")),
      par_shards_fused(r.counter("par_shards_fused")),
      churn_waves(r.counter("churn_waves")),
      gray_loss_drops(r.counter("gray_loss_drops")),
      switch_restarts(r.counter("switch_restarts")),
      // Queue depth at drop, in bytes; bounds at MSS multiples of a
      // 1000×1500B drop-tail queue.
      drop_queue_bytes(r.histogram("drop_queue_bytes",
                                   {15e3, 150e3, 375e3, 750e3, 1125e3, 1.5e6})),
      probe_path_len(r.histogram("probe_path_len", {1, 2, 3, 4, 6, 8, 12, 16})),
      par_batch_size(r.histogram("par_batch_size", {1, 4, 16, 64, 256, 1024})),
      // FCT in µs; bounds span intra-rack mice through multi-RTT elephants.
      fct_us(r.histogram("fct_us", {10, 50, 100, 500, 1e3, 5e3, 1e4, 5e4, 1e5})) {}

}  // namespace contra::obs
