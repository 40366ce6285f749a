// Discrete-event core: a time-ordered queue of handlers.
//
// Ties break by insertion order, which (with seeded RNGs everywhere) makes
// every simulation bit-reproducible.
//
// Performance contract (see DESIGN.md, "Simulator performance architecture"):
// the steady-state per-packet-hop path allocates nothing. Two mechanisms
// deliver that:
//   * EventHandler — a small-buffer-optimized callable with 48 bytes of
//     inline capture storage, enough for every lambda the simulator, the
//     transport, and the probe timers schedule; larger captures still work
//     but fall back to the heap.
//   * typed events — the two per-hop events (transmit-done, propagation
//     delivery) bypass closures entirely: the event stores a Link* (and for
//     deliveries the Packet* slot in the queue's pool that the packet has
//     occupied since Link::enqueue), so the hot loop in Link never
//     materializes a callable at all.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/packet.h"

namespace contra::sim {

class Link;

using Time = double;  ///< seconds

/// Move-only callable with inline storage for small captures. Drop-in for
/// the std::function<void()> the event queue used to hold, minus the heap
/// allocation for captures up to kInlineCapacity bytes.
class EventHandler {
 public:
  static constexpr size_t kInlineCapacity = 48;

  EventHandler() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventHandler> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandler(F&& f) {  // NOLINT(google-explicit-constructor) — matches std::function
    emplace(std::forward<F>(f));
  }

  EventHandler(EventHandler&& other) noexcept { move_from(other); }
  EventHandler& operator=(EventHandler&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventHandler(const EventHandler&) = delete;
  EventHandler& operator=(const EventHandler&) = delete;
  ~EventHandler() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()() { invoke_(storage()); }

  /// Whether the capture lives in the inline buffer (test introspection).
  bool is_inline() const { return invoke_ != nullptr && !on_heap_; }

 private:
  enum class Op : uint8_t { kDestroy, kRelocate };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* destination);

  void* storage() { return on_heap_ ? heap_ : static_cast<void*>(inline_); }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      on_heap_ = false;
      // Heap sifts relocate pending events constantly; a trivially copyable
      // capture (the overwhelmingly common case: a few pointers/scalars)
      // moves as a fixed-size memcpy with no indirect manage_ call.
      trivial_ = std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      manage_ = [](Op op, void* self, void* destination) {
        Fn* fn = static_cast<Fn*>(self);
        if (op == Op::kRelocate) ::new (destination) Fn(std::move(*fn));
        fn->~Fn();
      };
    } else {
      heap_ = new Fn(std::forward<F>(f));
      on_heap_ = true;
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      manage_ = [](Op op, void* self, void*) {
        if (op == Op::kDestroy) delete static_cast<Fn*>(self);
        // kRelocate for heap callables is a pointer steal, handled by the
        // owner; nothing to do here.
      };
    }
  }

  void move_from(EventHandler& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    on_heap_ = other.on_heap_;
    trivial_ = other.trivial_;
    if (invoke_ != nullptr) {
      if (on_heap_) {
        heap_ = other.heap_;
      } else if (trivial_) {
        std::memcpy(inline_, other.inline_, kInlineCapacity);
      } else {
        other.manage_(Op::kRelocate, other.inline_, inline_);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() {
    if (invoke_ != nullptr && !trivial_) manage_(Op::kDestroy, storage(), nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  union {
    alignas(std::max_align_t) unsigned char inline_[kInlineCapacity];
    void* heap_;
  };
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  bool on_heap_ = false;
  bool trivial_ = false;  ///< inline capture relocates/destroys as raw bytes
};

class EventQueue {
 public:
  using Handler = EventHandler;

  Time now() const { return now_; }

  /// Schedules at an absolute time. Times before now() are clamped to now()
  /// — the event still runs, immediately and in insertion order. Scheduling
  /// into the past is legal on purpose (a zero-delay retransmission computed
  /// from a stale RTT estimate must not abort the run), but every clamp is
  /// counted so silent time warps stay observable: a simulation that clamps
  /// unexpectedly has a bug upstream of the queue.
  void schedule_at(Time time, Handler handler);
  /// Schedules `delay` seconds from now.
  void schedule_in(Time delay, Handler handler) { schedule_at(now_ + delay, std::move(handler)); }

  // ----- typed per-hop fast path -------------------------------------------
  // The two events every packet hop needs. No callable is created: the event
  // records the Link (and the in-flight Packet's pool slot) and the dispatch
  // loop calls straight into Link.

  /// At `time`, run the link's transmit-done step.
  void schedule_link_tx(Time time, Link* link);
  /// At `time`, deliver the packet in pool slot `packet` out of `link`
  /// (propagation completes); the delivery releases the slot.
  void schedule_deliver(Time time, Link* link, Packet* packet);
  /// Same, for a packet arriving from outside the pool (the parallel
  /// engine's cross-shard mailbox): moves it into a fresh slot first.
  void schedule_deliver(Time time, Link* link, Packet&& packet);

  /// Storage for every packet queued on or propagating along this queue's
  /// links; shared with tests.
  PacketPool& packet_pool() { return pool_; }

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

  /// Time of the earliest pending event, +infinity when empty. The parallel
  /// engine's epoch scheduler reads this at barriers to compute per-shard
  /// safe horizons (next-event lookahead: a quiescent shard promises it
  /// cannot transmit anything before its next event fires).
  Time next_time() const {
    return heap_.empty() ? std::numeric_limits<Time>::infinity() : heap_.front().time;
  }

  /// Pre-grows heap and slot storage for `n` more events — the batched
  /// mailbox drain reserves once per batch so the per-hop push never
  /// reallocates mid-drain.
  void reserve_extra(size_t n) {
    heap_.reserve(heap_.size() + n);
    slots_.reserve(slots_.size() + n);
  }

  /// Runs one event; returns false when the queue is empty.
  bool step();

  /// Runs events until the queue empties or the next event is after `end`;
  /// advances now() to `end` at most.
  void run_until(Time end);

  /// Like run_until, but strictly: events at exactly `end` stay pending.
  /// This is the per-epoch step of the sharded parallel engine — an epoch
  /// [T, T+delta) owns events in the half-open interval, and cross-shard
  /// deliveries scheduled *at* the boundary belong to the next epoch.
  void run_before(Time end);

  uint64_t events_processed() const { return processed_; }
  /// Events whose requested time was in the past and got clamped to now().
  uint64_t events_clamped() const { return clamped_; }

 private:
  enum class Kind : uint8_t { kClosure, kLinkTx, kDeliver };

  // The heap holds only the ordering key plus a slot index; the bulky
  // payload (a 72-byte handler, or the typed Link*/Packet* pair) lives in a
  // recycled side table. Heap sifts move ~2·log2(n) elements per pop, so
  // keeping the sifted element a 24-byte POD — instead of the full event —
  // is worth ~40% of event throughput.
  struct HeapEntry {
    Time time;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(HeapEntry) == 24);
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    Kind kind = Kind::kClosure;
    Link* link = nullptr;     ///< kLinkTx / kDeliver
    Packet* packet = nullptr; ///< kDeliver: storage owned by pool_
    Handler handler;          ///< kClosure
  };

  Time clamp(Time time) {
    if (time < now_) {
      ++clamped_;
      return now_;
    }
    return time;
  }
  uint32_t acquire_slot();
  void push(Time time, uint32_t slot);

  std::vector<HeapEntry> heap_;  ///< binary heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  PacketPool pool_;
  Time now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t clamped_ = 0;
};

}  // namespace contra::sim
