#include "sim/packet.h"

#include <cassert>

namespace contra::sim {
namespace {

#ifndef NDEBUG
// Canary stamped into freed slots: acquire() checks it survived the slot's
// time on the freelist, release() checks it is absent (double-release).
constexpr uint64_t kPoisonId = 0xdeadbeefdeadbeefull;
#endif

}  // namespace

Packet* PacketPool::acquire() {
  if (free_.empty()) {
    if (carved_ % kSlabSlots == 0) slabs_.push_back(std::make_unique<Packet[]>(kSlabSlots));
    return &slabs_.back()[carved_++ % kSlabSlots];
  }
  Packet* packet = free_.back();
  free_.pop_back();
#ifndef NDEBUG
  assert(packet->id == kPoisonId && "packet pool slot written while free");
  packet->id = 0;
#endif
  return packet;
}

void PacketPool::release(Packet* packet) {
#ifndef NDEBUG
  assert(packet->id != kPoisonId && "packet released to the pool twice");
  packet->id = kPoisonId;
  packet->flow_id = kPoisonId;
  packet->seq = kPoisonId;
  packet->size_bytes = 0xdeadbeefu;
#endif
  packet->path.reset();
  free_.push_back(packet);
}

}  // namespace contra::sim
