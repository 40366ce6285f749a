// Dataplane flow telemetry: per-flow lifecycle records and sampled INT-style
// path records (the paper's §6 evidence, measured instead of inferred).
//
// The tracker is an opt-in sink the transport pushes into; with no tracker
// attached the transport pays one predictable branch per hook site and the
// simulator pays one branch per link hop (see DESIGN.md §11 and the
// `probe_flood_periodic` bench gate). Everything here is sim-free so it
// can be unit-tested and merged across parallel shards without touching the
// engine: under `--workers N` a flow's sender-side state lives on the source
// shard and its receiver-side state on the destination shard, and
// `merge_from` folds the two halves by flow id.
//
// Output determinism follows the trace-stream discipline: fixed key order,
// `%.9g` doubles, records sorted by a schedule-invariant key — so
// `flows.jsonl` / `paths.jsonl` are byte-identical for any worker count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/hash.h"

namespace contra::obs {

/// One recorded hop of a sampled data packet: the directed fabric link it
/// crossed, the queue depth it found there, and when.
struct PathHop {
  uint32_t link = 0;
  uint32_t queue_bytes = 0;
  double t = 0.0;
};

/// Per-flow lifecycle record. Sender-side fields (start/end, loss recovery)
/// and receiver-side fields (deliveries, path signatures) are disjoint so a
/// record split across two shards merges field-wise.
struct FlowLife {
  static constexpr uint32_t kMaxDistinctPaths = 8;

  uint64_t flow_id = 0;
  uint32_t src_host = 0;
  uint32_t dst_host = 0;
  uint64_t bytes = 0;  ///< requested flow size
  double start_t = 0.0;
  double end_t = 0.0;
  bool started = false;    ///< sender half present
  bool completed = false;

  uint64_t pkts_rx = 0;
  uint64_t bytes_rx = 0;
  uint32_t fast_retx = 0;
  uint32_t rtos = 0;
  uint64_t reordered = 0;
  /// Times the end-to-end path signature changed between consecutive
  /// deliveries — the realized effect of flowlet re-pins and route flips.
  uint32_t path_switches = 0;
  uint32_t distinct_paths = 0;  ///< capped at kMaxDistinctPaths
  uint8_t hops_min = 0;
  uint8_t hops_max = 0;

  uint64_t path_sigs[kMaxDistinctPaths] = {};
  uint64_t last_sig = 0;
  bool any_rx = false;

  double fct_us() const { return completed ? (end_t - start_t) * 1e6 : 0.0; }
};

/// One sampled packet's full path record.
struct PathSample {
  static constexpr uint32_t kMaxHops = 16;

  uint64_t flow_id = 0;
  uint64_t seq = 0;
  uint32_t dst_switch = 0;
  uint32_t bytes = 0;
  double t = 0.0;          ///< delivery time
  uint8_t total_hops = 0;  ///< fabric hops the packet actually crossed
  uint8_t nhops = 0;       ///< hops recorded (== total_hops unless truncated)
  PathHop hops[kMaxHops] = {};

  bool truncated() const { return nhops < total_hops; }
};

class FlowTracker {
 public:
  /// Deterministic 1-in-`every` packet sampling decision — a pure function
  /// of (flow_id, seq), so the sampled set is invariant across worker
  /// counts and identical between serial and sharded runs of the same flow
  /// ids. `every == 0` disables sampling.
  static bool sampled(uint64_t flow_id, uint64_t seq, uint32_t every) {
    return every != 0 && util::mix64(util::hash_combine(flow_id, seq)) % every == 0;
  }

  // Sender-side hooks.
  void on_start(uint64_t flow_id, uint32_t src_host, uint32_t dst_host, uint64_t bytes,
                double t);
  void on_complete(uint64_t flow_id, double t);
  void on_rto(uint64_t flow_id);
  void on_fast_retx(uint64_t flow_id);

  // Receiver-side hooks.
  void on_data(uint64_t flow_id, uint32_t bytes, uint64_t path_sig, uint8_t hops,
               bool reordered);
  void on_path_sample(uint64_t flow_id, uint64_t seq, uint32_t dst_switch, uint32_t bytes,
                      double t, uint8_t total_hops, const PathHop* hops, uint8_t nhops);

  /// Folds another tracker's state in (parallel shards; see file comment).
  void merge_from(const FlowTracker& other);

  size_t num_flows() const { return flows_.size(); }
  size_t num_path_samples() const { return samples_.size(); }

  /// Flows sorted by (start_t, flow_id) — schedule-invariant order.
  std::vector<FlowLife> sorted_flows() const;
  /// Path samples sorted by (t, flow_id, seq).
  std::vector<PathSample> sorted_path_samples() const;

  /// One fixed-key-order JSONL line per record (no trailing newline);
  /// returns bytes written.
  static size_t flow_jsonl(const FlowLife& flow, char* buf, size_t cap);
  static size_t path_jsonl(const PathSample& sample, char* buf, size_t cap);

  void write_flows_jsonl(std::ostream& out) const;
  void write_paths_jsonl(std::ostream& out) const;

  /// FCT percentile summary (p50/p95/p99 in µs) bucketed by flow size,
  /// one JSON object (see OBSERVABILITY.md "Flow telemetry").
  std::string summary_json() const;

 private:
  FlowLife& life(uint64_t flow_id);

  std::unordered_map<uint64_t, FlowLife> flows_;
  std::vector<PathSample> samples_;
};

}  // namespace contra::obs
