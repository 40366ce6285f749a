#include "sim/fluid.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace contra::sim {

namespace {

/// FNV-1a over the bytes of one u64 (little-endian byte order — the digest
/// is a pin, not a wire format, and the test suite runs on one arch).
uint64_t fnv1a_u64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t double_bits(double d) {
  uint64_t v = 0;
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

}  // namespace

FluidEngine::FluidEngine(FluidConfig config) : config_(config) {
  if (config_.max_hops < 4) config_.max_hops = 4;
  if (config_.quantum_s <= 0.0) config_.quantum_s = 64e-6;
}

void FluidEngine::bind_shards(std::vector<Simulator*> sims,
                              std::function<uint32_t(topology::NodeId)> shard_of) {
  sims_ = std::move(sims);
  shard_of_ = std::move(shard_of);
}

void FluidEngine::ensure_link_tables() {
  const uint32_t n = sims_.at(0)->num_total_links();
  if (n == num_links_) return;
  num_links_ = n;
  link_owner_.assign(n, 0);
  link_rate_.assign(n, 0.0);
  wf_cap_.assign(n, 0.0);
  wf_nflows_.assign(n, 0);
  wf_count_.assign(n, 0);
  wf_offset_.assign(n, 0);
  wf_epoch_.assign(n, 0);
  link_touched_.assign(n, 0);
  touched_.clear();
  touched_.reserve(n);
  loaded_links_.clear();
  loaded_links_.reserve(n);
  wf_heap_.reserve(2 * n);
  Simulator& s0 = *sims_[0];
  const topology::Topology& topo = s0.topo();
  for (topology::LinkId l = 0; l < topo.num_links(); ++l) {
    link_owner_[l] = shard_of_(topo.link(l).from);
  }
  // Host links live with the shard owning the attach switch (the only shard
  // whose replica ever transmits on them).
  for (HostId h = 0; h < s0.num_hosts(); ++h) {
    const uint32_t shard = shard_of_(s0.host_switch(h));
    link_owner_[s0.host_uplink_id(h)] = shard;
    link_owner_[s0.host_downlink_id(h)] = shard;
  }
}

uint64_t FluidEngine::link_generation_sum() const {
  uint64_t sum = 0;
  for (const Simulator* sim : sims_) sum += sim->link_state_generation();
  return sum;
}

uint32_t FluidEngine::acquire_slot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const uint32_t slot = static_cast<uint32_t>(f_id_.size());
  f_id_.push_back(0);
  f_src_.push_back(kInvalidHost);
  f_dst_.push_back(kInvalidHost);
  f_remaining_.push_back(0.0);
  f_rate_.push_back(0.0);
  f_start_.push_back(0.0);
  f_origin_.push_back(0.0);
  f_bytes_.push_back(0);
  f_latency_.push_back(0.0);
  f_path_len_.push_back(0);
  f_owner_.push_back(nullptr);
  path_arena_.resize(path_arena_.size() + config_.max_hops, topology::kInvalidLink);
  return slot;
}

void FluidEngine::release_slot(uint32_t slot) {
  f_owner_[slot] = nullptr;
  f_path_len_[slot] = 0;
  free_slots_.push_back(slot);
}

void FluidEngine::start_flow(TransportManager* owner, uint64_t flow_id, HostId src, HostId dst,
                             uint64_t bytes, Time start_time) {
  PendingStart p;
  p.start = start_time;
  p.flow_id = flow_id;
  p.src = src;
  p.dst = dst;
  p.bytes = bytes == 0 ? 1 : bytes;  // match TransportManager's 1-byte floor
  p.owner = owner;
  pending_.push_back(p);
  std::push_heap(pending_.begin(), pending_.end(), ByStart{});
}

Time FluidEngine::next_wake() const {
  if (!active_.empty()) return last_settle_ + config_.quantum_s;
  if (!pending_.empty()) return std::max(pending_.front().start, last_settle_);
  return std::numeric_limits<double>::infinity();
}

void FluidEngine::advance_to(Time t) {
  ensure_link_tables();
  ++stats_.ticks;
  bool dirty = false;
  settle(t, dirty);
  admit_starts(t, dirty);
  const uint64_t gen = link_generation_sum();
  if (gen != last_link_generation_) {
    last_link_generation_ = gen;
    rewalk_all(t);
    dirty = true;
  } else {
    // Stalled flows (no usable route when admitted, or black-holed after a
    // failure) retry their walk every quantum until the control plane has
    // repaired a path for them.
    for (const uint32_t slot : active_) {
      if (f_path_len_[slot] != 0) continue;
      if (walk_route(slot, t)) dirty = true;
    }
  }
  if (dirty) {
    recompute_rates(t);
    push_link_loads();
  }
  last_settle_ = t;
}

void FluidEngine::settle(Time now, bool& dirty) {
  fin_order_.clear();
  size_t w = 0;
  for (size_t r = 0; r < active_.size(); ++r) {
    const uint32_t slot = active_[r];
    const double rate = f_rate_[slot];
    if (rate > 0.0) {
      const double fin = f_origin_[slot] + f_remaining_[slot] / rate;
      if (fin <= now) {
        fin_order_.emplace_back(fin + f_latency_[slot], slot);
        dirty = true;
        continue;  // stable compaction: drop from active_, keep order
      }
      f_remaining_[slot] -= rate * (now - f_origin_[slot]);
    }
    f_origin_[slot] = now;
    active_[w++] = slot;
  }
  active_.resize(w);
  if (fin_order_.empty()) return;
  std::sort(fin_order_.begin(), fin_order_.end(),
            [this](const std::pair<double, uint32_t>& a, const std::pair<double, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return f_id_[a.second] < f_id_[b.second];
            });
  for (const auto& [end, slot] : fin_order_) {
    ++stats_.flows_completed;
    FlowRecord rec;
    rec.flow_id = f_id_[slot];
    rec.src = f_src_[slot];
    rec.dst = f_dst_[slot];
    rec.bytes = f_bytes_[slot];
    rec.start = f_start_[slot];
    rec.end = end;
    rec.completed = true;
    completion_digest_ = fnv1a_u64(completion_digest_, rec.flow_id);
    completion_digest_ = fnv1a_u64(completion_digest_, double_bits(end));
    TransportManager* owner = f_owner_[slot];
    release_slot(slot);
    if (owner != nullptr) owner->on_fluid_complete(rec);
  }
}

void FluidEngine::admit_starts(Time now, bool& dirty) {
  while (!pending_.empty() && pending_.front().start <= now) {
    std::pop_heap(pending_.begin(), pending_.end(), ByStart{});
    const PendingStart p = pending_.back();
    pending_.pop_back();
    const uint32_t slot = acquire_slot();
    f_id_[slot] = p.flow_id;
    f_src_[slot] = p.src;
    f_dst_[slot] = p.dst;
    f_bytes_[slot] = p.bytes;
    f_remaining_[slot] = static_cast<double>(p.bytes) * 8.0;  // bits: rates are bps
    f_start_[slot] = p.start;
    // Transfer time is counted from the nominal start, not the admission
    // tick: at light load this makes analytic FCTs exact; under contention
    // it over-grants at most one quantum of rate (DESIGN.md §14).
    f_origin_[slot] = p.start;
    f_rate_[slot] = 0.0;
    f_owner_[slot] = p.owner;
    ++stats_.flows_started;
    if (!walk_route(slot, now)) ++stats_.stalls;
    active_.push_back(slot);
    if (active_.size() > stats_.peak_active) stats_.peak_active = active_.size();
    dirty = true;
  }
}

void FluidEngine::rewalk_all(Time now) {
  for (const uint32_t slot : active_) {
    const bool had_path = f_path_len_[slot] != 0;
    ++stats_.reroutes;
    if (!walk_route(slot, now) && had_path) ++stats_.stalls;
  }
}

bool FluidEngine::walk_route(uint32_t slot, Time now) {
  (void)now;
  f_path_len_[slot] = 0;
  Simulator& s0 = *sims_[0];
  const HostId src = f_src_[slot];
  const HostId dst = f_dst_[slot];
  const topology::NodeId dst_sw = s0.host_switch(dst);
  topology::NodeId cur = s0.host_switch(src);
  const uint32_t base = slot * config_.max_hops;
  uint32_t len = 0;
  path_arena_[base + len++] = s0.host_uplink_id(src);

  // The five-tuple the flow's packets would carry (see
  // TransportManager::make_packet / start_flow) — flowlet hashes and ECMP
  // picks must see exactly what packet mode would.
  util::FiveTuple tuple;
  tuple.src_ip = 0x0a000000u + src;
  tuple.dst_ip = 0x0a000000u + dst;
  tuple.src_port = static_cast<uint16_t>(1024 + f_id_[slot] % 50000);
  tuple.dst_port = static_cast<uint16_t>(5000 + f_id_[slot] % 1000);
  tuple.protocol = 6;
  RoutingState routing;

  const topology::Topology& topo = s0.topo();
  while (cur != dst_sw) {
    Simulator& owner = sim_for(cur);
    if (!owner.has_device(cur)) return false;
    const topology::LinkId next = owner.device_at(cur).fluid_next_hop(owner, dst_sw, tuple, routing);
    if (next == topology::kInvalidLink) return false;
    if (len + 2 > config_.max_hops) return false;  // routing-loop guard
    // The control plane may still point at a link that just died; packets
    // would be dropped there, so the fluid flow stalls and retries.
    if (link_ref(next).down()) return false;
    path_arena_[base + len++] = next;
    cur = topo.link(next).to;
  }
  path_arena_[base + len++] = s0.host_downlink_id(dst);
  f_path_len_[slot] = static_cast<uint16_t>(len);

  // FCT latency floor: forward propagation + one-MSS serialization per hop,
  // plus the bare return propagation for the final ACK.
  const double wire_bits = 8.0 * (config_.mss_bytes + config_.header_bytes);
  double fwd = 0.0;
  double ret = 0.0;
  for (uint32_t h = 0; h < len; ++h) {
    const Link& lk = link_ref(path_arena_[base + h]);
    fwd += lk.delay_s() + wire_bits / lk.capacity_bps();
    ret += lk.delay_s();
  }
  f_latency_[slot] = fwd + ret;
  return true;
}

void FluidEngine::recompute_rates(Time now) {
  (void)now;
  ++stats_.recomputes;
  // Reset the previous recompute's per-link scratch (touched list only —
  // never a full sweep over num_links_).
  for (const topology::LinkId l : touched_) {
    link_touched_[l] = 0;
    link_rate_[l] = 0.0;
    wf_nflows_[l] = 0;
    wf_count_[l] = 0;
  }
  touched_.clear();

  // Pass 1: per-link membership counts.
  for (const uint32_t slot : active_) {
    const uint16_t len = f_path_len_[slot];
    if (len == 0) {
      f_rate_[slot] = 0.0;
      continue;
    }
    const uint32_t base = slot * config_.max_hops;
    for (uint16_t h = 0; h < len; ++h) {
      const topology::LinkId l = path_arena_[base + h];
      if (link_touched_[l] == 0) {
        link_touched_[l] = 1;
        touched_.push_back(l);
      }
      ++wf_count_[l];
    }
  }

  // Capacities in goodput units and slice offsets (counting sort by link).
  const double goodput_share =
      static_cast<double>(config_.mss_bytes) / (config_.mss_bytes + config_.header_bytes);
  uint32_t total = 0;
  for (const topology::LinkId l : touched_) {
    wf_offset_[l] = total;
    total += wf_count_[l];
    wf_cap_[l] = link_ref(l).capacity_bps() * goodput_share;
  }
  if (wf_members_.size() < total) wf_members_.resize(total);

  // Pass 2: scatter members (wf_nflows_ doubles as the fill cursor, and ends
  // equal to wf_count_ — the unfrozen count the water-fill then drains).
  uint32_t unfrozen = 0;
  for (const uint32_t slot : active_) {
    const uint16_t len = f_path_len_[slot];
    if (len == 0) continue;
    f_rate_[slot] = -1.0;  // unfrozen marker
    ++unfrozen;
    const uint32_t base = slot * config_.max_hops;
    for (uint16_t h = 0; h < len; ++h) {
      const topology::LinkId l = path_arena_[base + h];
      wf_members_[wf_offset_[l] + wf_nflows_[l]++] = slot;
    }
  }

  // Progressive filling: repeatedly freeze every unfrozen flow crossing the
  // most-constrained link at its fair share. The heap is lazy-deleted via
  // per-link epochs; ties break on link id, so the fill order — and the
  // floating-point subtraction order — is deterministic.
  wf_heap_.clear();
  for (const topology::LinkId l : touched_) {
    ++wf_epoch_[l];
    wf_heap_.push_back(WfEntry{wf_cap_[l] / wf_nflows_[l], l, wf_epoch_[l]});
  }
  std::make_heap(wf_heap_.begin(), wf_heap_.end(), WfCmp{});
  while (unfrozen > 0 && !wf_heap_.empty()) {
    std::pop_heap(wf_heap_.begin(), wf_heap_.end(), WfCmp{});
    const WfEntry e = wf_heap_.back();
    wf_heap_.pop_back();
    if (e.epoch != wf_epoch_[e.link] || wf_nflows_[e.link] == 0) continue;
    const double fair = std::max(0.0, wf_cap_[e.link]) / wf_nflows_[e.link];
    const uint32_t off = wf_offset_[e.link];
    const uint32_t cnt = wf_count_[e.link];
    for (uint32_t i = 0; i < cnt; ++i) {
      const uint32_t slot = wf_members_[off + i];
      if (f_rate_[slot] >= 0.0) continue;  // frozen by an earlier bottleneck
      f_rate_[slot] = fair;
      --unfrozen;
      const uint32_t base = slot * config_.max_hops;
      for (uint16_t h = 0; h < f_path_len_[slot]; ++h) {
        const topology::LinkId l2 = path_arena_[base + h];
        wf_cap_[l2] -= fair;
        --wf_nflows_[l2];
        if (l2 != e.link && wf_nflows_[l2] > 0) {
          ++wf_epoch_[l2];
          wf_heap_.push_back(
              WfEntry{std::max(0.0, wf_cap_[l2]) / wf_nflows_[l2], l2, wf_epoch_[l2]});
          std::push_heap(wf_heap_.begin(), wf_heap_.end(), WfCmp{});
        }
      }
    }
  }

  // Commit per-link fluid goodput.
  for (const uint32_t slot : active_) {
    const uint16_t len = f_path_len_[slot];
    if (len == 0) continue;
    if (f_rate_[slot] < 0.0) f_rate_[slot] = 0.0;  // defensive: heap exhausted
    const uint32_t base = slot * config_.max_hops;
    for (uint16_t h = 0; h < len; ++h) link_rate_[path_arena_[base + h]] += f_rate_[slot];
  }
}

void FluidEngine::push_link_loads() {
  for (const topology::LinkId l : loaded_links_) link_ref(l).set_fluid_load_bps(0.0);
  loaded_links_.clear();
  const double wire_factor =
      static_cast<double>(config_.mss_bytes + config_.header_bytes) / config_.mss_bytes;
  for (const topology::LinkId l : touched_) {
    if (link_rate_[l] <= 0.0) continue;
    link_ref(l).set_fluid_load_bps(link_rate_[l] * wire_factor);
    loaded_links_.push_back(l);
  }
}

}  // namespace contra::sim
