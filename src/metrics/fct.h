// Flow-completion-time aggregation — the headline metric of Figs. 11, 12, 15.
#pragma once

#include <string>
#include <vector>

#include "sim/transport.h"

namespace contra::metrics {

struct FctSummary {
  size_t completed = 0;
  size_t incomplete = 0;
  double mean_s = 0.0;
  double median_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;

  std::string to_string() const;
  bool operator==(const FctSummary&) const = default;
};

/// Summarizes completed flows; `incomplete` counts flows still unfinished at
/// simulation end (they indicate loss/overload, reported separately the way
/// the paper reports ECMP's "heavy traffic loss").
FctSummary summarize_fct(const std::vector<sim::FlowRecord>& completed, size_t total_flows);

/// Mean FCT filtered to small (< threshold) or large flows.
double mean_fct_below(const std::vector<sim::FlowRecord>& completed, uint64_t bytes_threshold);
double mean_fct_at_least(const std::vector<sim::FlowRecord>& completed,
                         uint64_t bytes_threshold);

}  // namespace contra::metrics
