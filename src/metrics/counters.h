// Traffic-overhead accounting (Fig. 16): total fabric bytes split into data,
// ACK, and probe traffic; overhead is reported normalized to a baseline run.
#pragma once

#include <string>

#include "sim/link.h"

namespace contra::metrics {

struct OverheadReport {
  uint64_t data_bytes = 0;
  uint64_t ack_bytes = 0;
  uint64_t probe_bytes = 0;
  uint64_t total_bytes = 0;
  uint64_t data_packets = 0;
  uint64_t ack_packets = 0;
  uint64_t probe_packets = 0;
  uint64_t total_packets = 0;
  uint64_t drops = 0;

  double probe_fraction() const {
    return total_bytes ? static_cast<double>(probe_bytes) / total_bytes : 0.0;
  }
  /// Probe share of fabric *packets* — probes are small, so the packet-count
  /// overhead can dwarf the byte overhead (pps is what switch pipelines pay).
  double probe_packet_fraction() const {
    return total_packets ? static_cast<double>(probe_packets) / total_packets : 0.0;
  }
  /// Total traffic relative to a baseline run of the same workload.
  double normalized_to(const OverheadReport& baseline) const {
    return baseline.total_bytes
               ? static_cast<double>(total_bytes) / baseline.total_bytes
               : 0.0;
  }

  std::string to_string() const;
  bool operator==(const OverheadReport&) const = default;
};

OverheadReport make_overhead_report(const sim::LinkStats& fabric);

/// Windowed report: counters at window end minus counters at window start
/// (LinkStats counters are monotonic).
OverheadReport make_overhead_report(const sim::LinkStats& end, const sim::LinkStats& start);

}  // namespace contra::metrics
