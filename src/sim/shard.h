// One shard of the parallel simulation engine (DESIGN.md §8).
//
// A shard is a complete Simulator over the *shared* topology, restricted by
// an install filter to the switches its partition slice owns, plus the
// outgoing mailboxes that carry packets whose next hop lives in another
// shard. Replicating the Link array in every shard costs a few hundred bytes
// per link and buys a big simplification: link ids, host ids and packet-id
// spaces line up across shards, every dataplane reads only links its own
// shard transmits on, and a cross-shard delivery is just schedule_deliver on
// the destination shard's copy of the very same link id.
//
// Threading contract: a shard's simulator, telemetry, and trace buffer are
// touched by exactly one worker during a run phase; mailboxes are written by
// the producing shard during run phases and drained by the consuming shard
// in a later phase, with a phase barrier (release/acquire) between the two —
// so none of this needs per-access synchronization. Between phases the main
// thread reads queue next-event times, mailbox minima, and `committed` to
// compute the next schedule; those reads are likewise barrier-ordered.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "sim/simulator.h"
#include "topology/partitioner.h"

namespace contra::sim {

/// A packet in flight between shards: produced when a cut link finishes
/// serializing, consumed (scheduled on the destination queue) at the next
/// phase the destination shard advances. `deliver_at` already includes the
/// propagation delay, and the per-channel lookahead guarantees it is never
/// before the destination's committed time.
struct CrossHop {
  Time deliver_at = 0.0;
  topology::LinkId link = topology::kInvalidLink;
  Packet packet;
};

/// SPSC mailbox from one source shard to one destination shard, double
/// buffered for the fused drain+run phase: the producer pushes into
/// `pending_` while it runs; between phases the main thread stage()s pending
/// hops into `staged_`; the consumer drains `staged_` at the start of its
/// next phase. Producer and drainer can therefore run in the *same* phase
/// without ever touching the same vector — the phase barrier
/// (release/acquire) publishes the handoff, so no per-access atomics are
/// needed. Both vectors keep their capacity across phases; the steady state
/// allocates nothing. The running minimum deliver_at lets the scheduler fold
/// parked hops into a shard's next-activity bound without scanning entries.
class Mailbox {
 public:
  /// Producer side, during a run phase.
  void push(Time deliver_at, topology::LinkId link, Packet&& packet) {
    pending_.push_back(CrossHop{deliver_at, link, std::move(packet)});
    if (deliver_at < min_deliver_at_) min_deliver_at_ = deliver_at;
  }
  bool empty() const { return pending_.empty() && staged_.empty(); }
  /// Earliest parked hop, +infinity when none. The scheduler only reads this
  /// between phases, where staged_ is always empty (every stage() is paired
  /// with a drain in the same phase), so tracking pending_ alone is exact.
  Time min_deliver_at() const { return min_deliver_at_; }

  /// Main thread, between phases: hand all parked hops to the consumer.
  void stage() {
    if (pending_.empty()) return;
    if (staged_.empty()) {
      pending_.swap(staged_);
    } else {
      staged_.insert(staged_.end(), std::make_move_iterator(pending_.begin()),
                     std::make_move_iterator(pending_.end()));
      pending_.clear();
    }
    min_deliver_at_ = std::numeric_limits<Time>::infinity();
  }

  /// Consumer side, during its run phase.
  std::vector<CrossHop>& staged() { return staged_; }
  void clear_staged() { staged_.clear(); }

 private:
  std::vector<CrossHop> pending_;
  std::vector<CrossHop> staged_;
  Time min_deliver_at_ = std::numeric_limits<Time>::infinity();
};

struct Shard {
  /// Builds the shard simulator and wires its ownership boundary: install
  /// filter, id-namespace bases, and remote-forward hooks on every owned cut
  /// link (each pushing into outbox[shard of the link's far end]).
  Shard(uint32_t shard_id, const topology::Topology& topo, const SimConfig& config,
        const topology::Partition& partition);

  uint32_t id;
  Simulator sim;
  std::vector<Mailbox> outbox;  ///< indexed by destination shard

  obs::MemoryTraceSink trace;  ///< more than one shard: merged by (t, shard, index)
  uint64_t events_at_epoch_start = 0;  ///< for per-epoch kEpoch accounting

  // ----- epoch-scheduler state (see ParallelSimulator::run_until) ----------
  // `committed` is written by whichever thread ran the shard last phase (or
  // the main thread on an idle skip) and read by the main thread at the next
  // barrier; `target`/`inclusive` are written by the main thread before the
  // phase is published and read by the running worker.
  Time committed = 0.0;   ///< simulation time this shard has been advanced to
  Time target = 0.0;      ///< boundary to run to this phase
  bool inclusive = false; ///< run events at exactly `target` too (final window)
};

/// Drains every *staged* mailbox addressed to `dst` in fixed source-shard
/// order, scheduling each entry on dst's queue (push order within a
/// mailbox). Together with the queue's (time, seq) tie-break this realizes
/// the deterministic (time, source shard, sequence) processing order. The
/// whole inbound batch drains as one pass: queue storage is reserved once
/// and the per-shard batch counters/histogram are bumped once per pass, not
/// per message. Returns the number of hops drained. Runs on dst's worker.
uint64_t drain_mailboxes_into(Shard& dst, std::vector<std::unique_ptr<Shard>>& shards);

}  // namespace contra::sim
