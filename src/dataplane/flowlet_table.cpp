#include "dataplane/flowlet_table.h"

namespace contra::dataplane {

void FlowletTable::emit(obs::Ev ev, const FlowletKey& key, topology::LinkId nhop,
                        double t, double value) const {
  obs::TraceRecord r;
  r.t = t;
  r.ev = ev;
  r.sw = switch_id_;
  r.tag = key.tag;
  r.pid = key.pid;
  r.aux = key.fid;
  r.link = nhop;
  r.value = value;
  telemetry_->emit(r);
}

void FlowletTable::remember_prev_nhop(const FlowletKey& key, topology::LinkId nhop) {
  if (prev_nhop_.size() >= kPrevNhopCap) prev_nhop_.clear();
  prev_nhop_[key] = nhop;
}

FlowletEntry* FlowletTable::lookup(const FlowletKey& key, sim::Time now) {
  FlowletEntry* entry = table_.find(key);
  if (entry == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  // A flowlet whose inter-packet gap reached the timeout is expired: the
  // §5.2 failover story needs the boundary packet to re-rate, so the
  // comparison is >= (not >).
  if (now - entry->last_seen >= timeout_s_) {
    remember_prev_nhop(key, entry->nhop);
    if (telemetry_ != nullptr) {
      telemetry_->metrics().add(telemetry_->core().flowlets_expired);
      if (telemetry_->tracing()) {
        emit(obs::Ev::kFlowletExpire, key, entry->nhop, now, now - entry->last_seen);
      }
    }
    table_.erase(key);
    ++stats_.expirations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return entry;
}

void FlowletTable::pin(const FlowletKey& key, const FlowletEntry& entry, sim::Time now) {
  const topology::LinkId* prev = prev_nhop_.find(key);
  const bool switched = prev != nullptr && *prev != entry.nhop;
  if (switched) ++stats_.switches;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().add(telemetry_->core().flowlets_created);
    if (switched) telemetry_->metrics().add(telemetry_->core().flowlets_switched);
    if (telemetry_->tracing()) {
      if (switched) {
        emit(obs::Ev::kFlowletSwitch, key, entry.nhop, now, static_cast<double>(*prev));
      } else {
        emit(obs::Ev::kFlowletCreate, key, entry.nhop, now);
      }
    }
  }
  if (prev != nullptr) prev_nhop_.erase(key);
  table_[key] = entry;
}

void FlowletTable::touch(const FlowletKey& key, sim::Time now) {
  if (FlowletEntry* entry = table_.find(key)) entry->last_seen = now;
}

void FlowletTable::flush(const FlowletKey& key, sim::Time now) {
  const FlowletEntry* entry = table_.find(key);
  if (entry == nullptr) return;
  remember_prev_nhop(key, entry->nhop);
  if (telemetry_ != nullptr) {
    telemetry_->metrics().add(telemetry_->core().flowlets_flushed);
    if (telemetry_->tracing()) emit(obs::Ev::kFlowletFlush, key, entry->nhop, now);
  }
  table_.erase(key);
  ++stats_.flushes;
}

}  // namespace contra::dataplane
