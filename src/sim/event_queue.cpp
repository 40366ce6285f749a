#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "sim/link.h"

namespace contra::sim {

static_assert(std::has_single_bit(EventQueue::kLanes));

uint32_t EventQueue::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventQueue::push_heap_entry(Time time, uint64_t seq, uint32_t slot) {
  heap_.push_back(HeapEntry{time, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(Time time, Handler handler) {
  const uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kClosure;
  s.handler = std::move(handler);
  const Time t = clamp(time);
  push_heap_entry(t, next_seq_++, slot);
}

Time EventQueue::schedule_link_tx_in(Time delay, Link* link) {
  const Time time = now_ + delay;
  push_typed(delay, time, link, nullptr);
  return time;
}

void EventQueue::schedule_deliver_in(Time delay, Link* link, Packet* packet) {
  push_typed(delay, now_ + delay, link, packet);
}

void EventQueue::schedule_deliver_at(Time time, Link* link, Packet&& packet) {
  Packet* parked = pool_.acquire();
  *parked = std::move(packet);
  push_typed(link->delay_s(), time, link, parked);
}

// A lane only ever receives events at or after its tail, so each FIFO stays
// sorted by (time, seq) whatever it is keyed by. The key just steers events
// of one delay to one lane, where now() + delay is monotone and the tail
// check always passes. Absolute times (the mailbox drain) can fall before
// that lane's tail; they then open a second lane for the same delay.
inline EventQueue::Lane* EventQueue::lane_for(Time delay, Time time) {
  const uint64_t bits = std::bit_cast<uint64_t>(delay);
  const uint32_t home =
      static_cast<uint32_t>((bits * 0x9E3779B97F4A7C15ull) >> (64 - std::countr_zero(kLanes)));
  Lane* vacant = nullptr;
  for (uint32_t i = 0; i < kLaneProbes; ++i) {
    Lane& lane = lanes_[(home + i) & (kLanes - 1)];
    if (lane.delay_bits == bits && (lane.fifo.empty() || time >= lane.tail)) return &lane;
    if (vacant == nullptr && lane.fifo.empty()) vacant = &lane;
  }
  if (vacant != nullptr) vacant->delay_bits = bits;
  return vacant;
}

void EventQueue::push_typed(Time delay, Time time, Link* link, Packet* packet) {
  const Time t = clamp(time);
  const uint64_t seq = next_seq_++;
  if (Lane* lane = lane_for(delay, t)) {
    if (lane->fifo.empty()) {
      heads_[num_heads_] = LaneHead{t, seq, static_cast<uint32_t>(lane - lanes_.data())};
      sift_up(num_heads_++);
    }
    lane->fifo.push_back(LaneEntry{t, seq, link, packet});
    lane->tail = t;
    return;
  }
  ++lane_misses_;
  const uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = packet == nullptr ? Kind::kLinkTx : Kind::kDeliver;
  s.link = link;
  s.packet = packet;
  push_heap_entry(t, seq, slot);
}

void EventQueue::sift_up(uint32_t i) {
  const LaneHead head = heads_[i];
  while (i > 0) {
    const uint32_t parent = (i - 1) / 2;
    if (!earlier(head.time, head.seq, heads_[parent].time, heads_[parent].seq)) break;
    heads_[i] = heads_[parent];
    i = parent;
  }
  heads_[i] = head;
}

void EventQueue::sift_down(uint32_t i) {
  const LaneHead head = heads_[i];
  for (;;) {
    uint32_t child = 2 * i + 1;
    if (child >= num_heads_) break;
    if (child + 1 < num_heads_ &&
        earlier(heads_[child + 1].time, heads_[child + 1].seq, heads_[child].time,
                heads_[child].seq)) {
      ++child;
    }
    if (!earlier(heads_[child].time, heads_[child].seq, head.time, head.seq)) break;
    heads_[i] = heads_[child];
    i = child;
  }
  heads_[i] = head;
}

inline void EventQueue::step_lane() {
  LaneHead& head = heads_[0];
  Lane& lane = lanes_[head.lane];
  const LaneEntry entry = lane.fifo.pop_front();
  if (lane.fifo.empty()) {
    head = heads_[--num_heads_];
  } else {
    const LaneEntry& next = lane.fifo.front();
    head.time = next.time;
    head.seq = next.seq;
  }
  if (num_heads_ > 0) sift_down(0);
  now_ = entry.time;
  ++processed_;
  if (entry.packet == nullptr) {
    entry.link->on_transmit_done();
  } else {
    entry.link->complete_delivery(entry.packet);
  }
}

inline void EventQueue::step_heap() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapEntry entry = heap_.back();
  heap_.pop_back();
  now_ = entry.time;
  ++processed_;
  // Take what the dispatch needs out of the slot and recycle it before
  // invoking: the handler may schedule (growing slots_ would invalidate a
  // held reference) and may legitimately reuse this very slot.
  Slot& slot = slots_[entry.slot];
  switch (slot.kind) {
    case Kind::kClosure: {
      Handler handler = std::move(slot.handler);
      free_slots_.push_back(entry.slot);
      handler();
      break;
    }
    case Kind::kLinkTx: {
      Link* link = slot.link;
      free_slots_.push_back(entry.slot);
      link->on_transmit_done();
      break;
    }
    case Kind::kDeliver: {
      Link* link = slot.link;
      Packet* packet = slot.packet;
      free_slots_.push_back(entry.slot);
      link->complete_delivery(packet);
      break;
    }
  }
}

// Lanes first only when a lane head exists: a queue holding only closures
// pays one emptiness check per event on top of the plain heap pop.
bool EventQueue::step() {
  if (lane_first()) {
    step_lane();
    return true;
  }
  if (heap_.empty()) return false;
  step_heap();
  return true;
}

template <typename Due>
void EventQueue::run_while(Due due) {
  for (;;) {
    if (lane_first()) {
      if (!due(heads_[0].time)) return;
      step_lane();
    } else {
      if (heap_.empty() || !due(heap_.front().time)) return;
      step_heap();
    }
  }
}

void EventQueue::run_until(Time end) {
  run_while([end](Time t) { return t <= end; });
  now_ = std::max(now_, end);
}

void EventQueue::run_before(Time end) {
  run_while([end](Time t) { return t < end; });
  now_ = std::max(now_, end);
}

}  // namespace contra::sim
