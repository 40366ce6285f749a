#include "workload/generator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/parallel_simulator.h"
#include "util/hash.h"

namespace contra::workload {

std::vector<GeneratedFlow> generate_poisson(const EmpiricalCdf& sizes,
                                            const std::vector<sim::HostId>& senders,
                                            const std::vector<sim::HostId>& receivers,
                                            const WorkloadConfig& config) {
  if (senders.empty() || receivers.empty()) {
    throw std::invalid_argument("workload needs senders and receivers");
  }
  util::Rng rng(config.seed);
  const double bits_per_flow = sizes.mean_bytes() * 8.0 * config.size_scale;
  const double rate_per_sender = config.load * config.sender_capacity_bps / bits_per_flow;

  std::vector<GeneratedFlow> flows;
  for (sim::HostId sender : senders) {
    sim::Time t = config.start + rng.exponential(rate_per_sender);
    while (t < config.start + config.duration) {
      GeneratedFlow flow;
      flow.src = sender;
      flow.bytes = std::max<uint64_t>(
          1, static_cast<uint64_t>(sizes.sample(rng) * config.size_scale));
      flow.start = t;
      do {
        flow.dst = receivers[static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(receivers.size()) - 1))];
      } while (flow.dst == sender && receivers.size() > 1);
      flows.push_back(flow);
      t += rng.exponential(rate_per_sender);
    }
  }
  return flows;
}

FlowStream::FlowStream(const EmpiricalCdf& sizes, std::vector<sim::HostId> senders,
                       std::vector<sim::HostId> receivers, const WorkloadConfig& config)
    : sizes_(&sizes), receivers_(std::move(receivers)), config_(config) {
  if (senders.empty() || receivers_.empty()) {
    throw std::invalid_argument("workload needs senders and receivers");
  }
  const double bits_per_flow = sizes.mean_bytes() * 8.0 * config.size_scale;
  rate_per_sender_ = config.load * config.sender_capacity_bps / bits_per_flow;
  senders_.reserve(senders.size());
  heap_.reserve(senders.size());
  for (uint32_t i = 0; i < senders.size(); ++i) {
    senders_.push_back(SenderState{util::Rng(util::hash_combine(config.seed, i)), senders[i]});
    SenderState& s = senders_.back();
    const sim::Time first = config.start + s.rng.exponential(rate_per_sender_);
    if (first < config.start + config.duration) heap_.push_back(Arrival{first, i});
  }
  std::make_heap(heap_.begin(), heap_.end(), ByArrival{});
}

sim::Time FlowStream::next_start() const {
  return heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.front().next_t;
}

bool FlowStream::next(GeneratedFlow* out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), ByArrival{});
  Arrival& arrival = heap_.back();
  SenderState& s = senders_[arrival.index];
  out->src = s.host;
  out->start = arrival.next_t;
  out->bytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(sizes_->sample(s.rng) * config_.size_scale));
  do {
    out->dst = receivers_[static_cast<size_t>(
        s.rng.uniform_int(0, static_cast<int64_t>(receivers_.size()) - 1))];
  } while (out->dst == s.host && receivers_.size() > 1);
  ++emitted_;
  arrival.next_t += s.rng.exponential(rate_per_sender_);
  if (arrival.next_t < config_.start + config_.duration) {
    std::push_heap(heap_.begin(), heap_.end(), ByArrival{});
  } else {
    heap_.pop_back();
  }
  return true;
}

uint64_t total_bytes(const std::vector<GeneratedFlow>& flows) {
  uint64_t total = 0;
  for (const GeneratedFlow& flow : flows) total += flow.bytes;
  return total;
}

}  // namespace contra::workload
