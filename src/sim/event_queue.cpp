#include "sim/event_queue.h"

#include <algorithm>

#include "sim/link.h"

namespace contra::sim {

uint32_t EventQueue::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventQueue::push(Time time, uint32_t slot) {
  heap_.push_back(HeapEntry{clamp(time), next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(Time time, Handler handler) {
  const uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kClosure;
  s.handler = std::move(handler);
  push(time, slot);
}

void EventQueue::schedule_link_tx(Time time, Link* link) {
  const uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kLinkTx;
  s.link = link;
  push(time, slot);
}

void EventQueue::schedule_deliver(Time time, Link* link, Packet* packet) {
  const uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kDeliver;
  s.link = link;
  s.packet = packet;
  push(time, slot);
}

void EventQueue::schedule_deliver(Time time, Link* link, Packet&& packet) {
  Packet* parked = pool_.acquire();
  *parked = std::move(packet);
  schedule_deliver(time, link, parked);
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
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
  return true;
}

void EventQueue::run_until(Time end) {
  while (!heap_.empty() && heap_.front().time <= end) step();
  now_ = std::max(now_, end);
}

void EventQueue::run_before(Time end) {
  while (!heap_.empty() && heap_.front().time < end) step();
  now_ = std::max(now_, end);
}

}  // namespace contra::sim
