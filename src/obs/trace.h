// Structured control-plane trace stream.
//
// Every protocol-visible state transition — probe lifecycle, FwdT/BestT
// mutations, route flips, flowlet churn, failure detection, loop breaking,
// link failures — is describable as one fixed-width TraceRecord. Records are
// emitted through obs::Telemetry into a TraceSink; with no sink attached the
// emit call is a single predictable branch, so instrumentation can stay in
// the hot paths permanently (the bench gate holds it to zero allocations and
// <10% throughput cost).
//
// The on-disk format is JSONL, one record per line with a fixed key order,
// written by JsonlTraceSink and parsed back by read_jsonl — the same schema
// tools/telemetry_report.py consumes (see docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace contra::obs {

/// Trace event types. Names (ev_name) are the wire identifiers — stable,
/// snake_case, documented in docs/OBSERVABILITY.md.
enum class Ev : uint8_t {
  kProbeOrig = 0,      ///< destination originated a probe round entry
  kProbeRx,            ///< probe arrived at a switch
  kProbeAccept,        ///< probe adopted into FwdT (new or updated entry)
  kProbeRejectStale,   ///< versioned-probe staleness drop (§5.1)
  kProbeRejectRank,    ///< same-version probe lost the rank comparison
  kProbeRejectNoPg,    ///< no PG transition for the carried tag
  kRouteFlip,          ///< BestT choice for a destination changed
  kFlowletCreate,      ///< first pin of a flowlet key
  kFlowletSwitch,      ///< re-pin of a known flowlet onto a different next hop
  kFlowletExpire,      ///< inter-packet gap exceeded the flowlet timeout
  kFlowletFlush,       ///< forced removal (loop breaking, failure expiry)
  kFailureDetect,      ///< probe silence: link presumed failed (§5.4)
  kFailureClear,       ///< probes resumed on a presumed-failed link
  kLoopBreak,          ///< TTL-spread loop detector fired (§5.5)
  kLinkDown,           ///< cable administratively failed
  kLinkUp,             ///< cable restored
  kDrop,               ///< link dropped a packet (queue full or link down)
  kEpoch,              ///< parallel engine: epoch boundary reached (sw=shard)
  kBarrier,            ///< parallel engine: mailbox drain at a barrier (sw=shard)
  // Appended (schema is append-only; numeric order is not the wire format):
  kProbeSuppress,      ///< accepted probe not re-broadcast: quantized advert unchanged
  kDenseFallback,      ///< probe key outside the compiled dense FwdT universe
  kProbeTrigger,       ///< triggered-update emission for a destination (aux=probe copies)
  kProbeWithdraw,      ///< poison advert sent/accepted for a now-unusable row
  kChurnWave,          ///< churn engine wave starts (aux=FaultClass, value=wave index)
  kGrayDegrade,        ///< gray-failure state changed on a cable (value=loss prob)
  kSwitchRestart,      ///< control-plane restart injected at a switch
  kCount,
};

inline constexpr size_t kNumEv = static_cast<size_t>(Ev::kCount);

std::string_view ev_name(Ev ev);
std::optional<Ev> ev_from_name(std::string_view name);

/// Fault-class taxonomy of the churn engine (DESIGN.md §13), carried in
/// TraceRecord::aux of kChurnWave records so the ConvergenceTracker can
/// bucket reconvergence windows per class without depending on the engine.
enum class FaultClass : uint32_t {
  kFlap = 0,   ///< link flapping at a tunable frequency
  kSrg,        ///< correlated failure over a shared-risk group
  kGray,       ///< gray failure: loss / added latency / capacity derate
  kDrift,      ///< metric drift: oscillating link degradation
  kDrain,      ///< maintenance drain: deep capacity derate, link stays up
  kRestart,    ///< control-plane restart of one switch
  kCount,
};
std::string_view fault_class_name(FaultClass cls);

/// Field sentinel: "not applicable to this event".
inline constexpr uint32_t kNoField = 0xffffffffu;

/// One trace event. Trivially copyable on purpose: records pass through
/// sinks and memory buffers without touching the heap.
struct TraceRecord {
  double t = 0.0;          ///< simulation time, seconds
  Ev ev = Ev::kProbeRx;
  uint32_t sw = kNoField;   ///< switch observing the event
  uint32_t dst = kNoField;  ///< traffic destination / probe origin
  uint32_t tag = kNoField;  ///< PG tag
  uint32_t pid = kNoField;  ///< probe id
  uint32_t link = kNoField; ///< directed link id (event-specific direction)
  uint32_t aux = kNoField;  ///< event-specific: old nhop, packet kind, TTL…
  uint64_t version = 0;     ///< probe version, 0 when n/a
  double value = 0.0;       ///< event-specific scalar: util, age, spread…
};
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "trace records must copy without touching the heap");

/// Formats a record as one JSONL line (no trailing newline) into `out`,
/// which must hold at least kMaxLineBytes. Returns the byte count.
inline constexpr size_t kMaxLineBytes = 256;
size_t format_jsonl(const TraceRecord& record, char* out);

/// Parses one line of the JSONL schema back into a record. Returns nullopt
/// on malformed input (wrong schema, unknown event name).
std::optional<TraceRecord> parse_jsonl_line(std::string_view line);

/// Reads a whole JSONL stream; malformed lines are skipped and counted into
/// `*bad_lines` when provided.
std::vector<TraceRecord> read_jsonl(std::istream& in, size_t* bad_lines = nullptr);

// ----- sinks ---------------------------------------------------------------

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceRecord& record) = 0;
  virtual void flush() {}
};

/// Buffers records in memory; the test- and analysis-friendly sink.
class MemoryTraceSink : public TraceSink {
 public:
  void write(const TraceRecord& record) override { records_.push_back(record); }
  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }
  /// Moves the records with t < `before` to the end of `*out`, keeping
  /// emission order on both sides.
  void take_before(double before, std::vector<TraceRecord>* out) {
    auto kept = records_.begin();
    for (TraceRecord& r : records_) {
      if (r.t < before) {
        out->push_back(r);
      } else {
        *kept++ = r;
      }
    }
    records_.erase(kept, records_.end());
  }

 private:
  std::vector<TraceRecord> records_;
};

/// Streams JSONL lines to an ostream (file or stringstream). The stream must
/// outlive the sink.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}
  void write(const TraceRecord& record) override;
  void flush() override;
  uint64_t records_written() const { return written_; }

 private:
  std::ostream* out_;
  uint64_t written_ = 0;
};

/// Duplicates every record into each registered sink (e.g. JSONL file plus a
/// live ConvergenceTracker).
class FanoutSink : public TraceSink {
 public:
  void add(TraceSink* sink) { sinks_.push_back(sink); }
  void write(const TraceRecord& record) override {
    for (TraceSink* sink : sinks_) sink->write(record);
  }
  void flush() override {
    for (TraceSink* sink : sinks_) sink->flush();
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace contra::obs
