// Flow arrival generation: Poisson arrivals per sender, sized from an
// empirical CDF, with the arrival rate tuned so the offered load is the
// requested fraction of sender NIC capacity — the paper's method of sweeping
// network load from 10% to 90% "by adjusting the flow arrival times" (§6.3).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/transport.h"
#include "workload/distributions.h"

namespace contra::workload {

struct GeneratedFlow {
  sim::HostId src = sim::kInvalidHost;
  sim::HostId dst = sim::kInvalidHost;
  uint64_t bytes = 0;
  sim::Time start = 0.0;
};

struct WorkloadConfig {
  double load = 0.5;            ///< fraction of per-sender capacity
  double sender_capacity_bps = 10e9;
  sim::Time start = 0.0;
  sim::Time duration = 0.01;
  uint64_t seed = 1;
  /// Multiplies sampled flow sizes (and scales arrival rate up to keep the
  /// offered load constant). Lets experiments shrink flows so short runs
  /// still contain statistically many flows; the paper's absolute trace
  /// sizes are not reproducible anyway (see DESIGN.md).
  double size_scale = 1.0;
};

/// Poisson arrivals: every sender independently emits flows at rate
/// load * capacity / mean_flow_size, each to a uniformly random receiver.
std::vector<GeneratedFlow> generate_poisson(const EmpiricalCdf& sizes,
                                            const std::vector<sim::HostId>& senders,
                                            const std::vector<sim::HostId>& receivers,
                                            const WorkloadConfig& config);

/// Lazy variant of generate_poisson for production-scale runs: the same
/// per-sender Poisson processes, materialized one flow at a time in global
/// arrival order. Memory is O(senders) — one Rng per sender, and a min-heap
/// of (next arrival, sender) keys — never O(flows), so a fat-tree k=16 /
/// 1M-flow run holds no flow list at all. Each sender's stream is seeded with
/// hash_combine(seed, sender index), so the sequence is deterministic but
/// (deliberately) not the byte-identical shared-Rng order generate_poisson
/// emits; pick one generator per experiment.
class FlowStream {
 public:
  FlowStream(const EmpiricalCdf& sizes, std::vector<sim::HostId> senders,
             std::vector<sim::HostId> receivers, const WorkloadConfig& config);

  /// Next flow in arrival order; false once every sender's window ended.
  bool next(GeneratedFlow* out);
  /// Peek at the next arrival time without consuming (+inf when drained).
  sim::Time next_start() const;
  uint64_t emitted() const { return emitted_; }

 private:
  struct SenderState {
    util::Rng rng{0};
    sim::HostId host = sim::kInvalidHost;
  };
  /// Heap entry: a sender's next arrival. The 2.5 KB SenderState stays in
  /// place in senders_, so heap sifts move 16 bytes.
  struct Arrival {
    sim::Time next_t = 0.0;
    uint32_t index = 0;  ///< into senders_; tie-break: sender submission order
  };
  struct ByArrival {
    bool operator()(const Arrival& a, const Arrival& b) const {
      if (a.next_t != b.next_t) return a.next_t > b.next_t;  // min-heap
      return a.index > b.index;
    }
  };

  const EmpiricalCdf* sizes_;
  std::vector<sim::HostId> receivers_;
  WorkloadConfig config_;
  double rate_per_sender_ = 0.0;
  std::vector<SenderState> senders_;
  std::vector<Arrival> heap_;  ///< min-heap (ByArrival) of live senders
  uint64_t emitted_ = 0;
};

/// Pumps `stream` into the transport in submission windows of `chunk_s`
/// simulated seconds, advancing the engine between windows: flows are only
/// materialized just before their start time, so peak memory follows flows
/// *in flight*, not flows *generated*. Drives `run(t)` — a callable that
/// advances the engine to `t` (serial run_until or the parallel wrapper) —
/// and always finishes with run(end). Returns the number of flows submitted.
template <typename Transport, typename RunFn>
uint64_t pump_stream(Transport& transport, FlowStream& stream, sim::Time end, sim::Time chunk_s,
                     RunFn&& run) {
  GeneratedFlow flow;
  while (stream.next_start() < end) {
    const sim::Time window = stream.next_start() + chunk_s;
    while (stream.next_start() < window) {
      stream.next(&flow);
      transport.start_flow(flow.src, flow.dst, flow.bytes, flow.start);
    }
    // The engine may run right up to the last submitted start; everything
    // later is still un-materialized.
    run(std::min(end, window));
  }
  run(end);
  return stream.emitted();
}

/// Registers every generated flow with the transport: a TransportManager,
/// or a ParallelTransport, which places each flow on the shard owning its
/// source host (flow-id assignment depends only on the generated order,
/// never on worker scheduling).
template <typename Transport>
void submit(Transport& transport, const std::vector<GeneratedFlow>& flows) {
  for (const GeneratedFlow& flow : flows) {
    transport.start_flow(flow.src, flow.dst, flow.bytes, flow.start);
  }
}

/// Total offered bytes (for load sanity checks).
uint64_t total_bytes(const std::vector<GeneratedFlow>& flows);

}  // namespace contra::workload
