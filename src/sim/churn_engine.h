// Adversarial failure & churn engine (DESIGN.md §13).
//
// A scripted timeline of faults, spoken in fault *classes* rather than
// single cable events: link flaps at a tunable frequency, correlated
// failures over shared-risk groups (a pod, a spine plane, all links of one
// switch), gray failures (loss probability, added latency, capacity
// derate — Link's non-binary sickness), metric drift/oscillation,
// maintenance drains, and control-plane restarts
// (Device::restart_control_plane). Each builder call is one *wave*: the
// engine emits a churn_wave trace record (aux = FaultClass) at the wave's
// start, before its events, so the ConvergenceTracker can measure a
// reconvergence window per wave and report a distribution per class.
//
// Schedules are built entirely up front — scripted (builders / the
// --churn-spec JSON schema) or seed-generative (generate) — and then armed
// on a ParallelSimulator. Arming schedules plain events, so a schedule is
// deterministic across --workers by the engine's own contract.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "sim/parallel_simulator.h"

namespace contra::sim {

using obs::FaultClass;

class ChurnEngine {
 public:
  explicit ChurnEngine(const topology::Topology& topo) : topo_(&topo) {}

  // ----- scripted builders (each call = one wave) ---------------------------

  /// Flap: alternate fail/restore every `half_period` starting at `start`,
  /// `cycles` times (ends restored).
  ChurnEngine& flap(topology::LinkId link, Time start, Time half_period, int cycles);
  /// Shared-risk group: every cable in `links` fails at `at`, all restore at
  /// `restore_at`.
  ChurnEngine& srg(const std::vector<topology::LinkId>& links, Time at, Time restore_at);
  /// SRG convenience: all cables of one switch (the whole-switch failure).
  ChurnEngine& srg_switch(topology::NodeId node, Time at, Time restore_at);
  /// Gray failure on one cable from `at` to `clear_at`.
  ChurnEngine& gray(topology::LinkId link, Time at, Time clear_at, GrayParams params);
  /// Metric drift: the cable's extra latency oscillates between 0 and
  /// `amplitude_s` every `half_period`, `cycles` times (ends clean).
  ChurnEngine& drift(topology::LinkId link, Time start, Time half_period, int cycles,
                     double amplitude_s);
  /// Maintenance drain: deep capacity derate on every cable of `node` from
  /// `at` to `restore_at` (links stay up; traffic should route around).
  ChurnEngine& drain(topology::NodeId node, Time at, Time restore_at,
                     double capacity_factor = 0.1);
  /// Control-plane restart of the device at `node`.
  ChurnEngine& restart(topology::NodeId node, Time at);

  // ----- seed-generative schedules ------------------------------------------

  /// Appends `waves` random waves on [start, horizon): class, target, and
  /// timing drawn from mix64(seed)-keyed streams. Every wave fully clears
  /// (links restored, gray healed) before `horizon`, so an oracle may demand
  /// quiescence afterwards. Deterministic in (topology, seed).
  ChurnEngine& generate(uint64_t seed, Time start, Time horizon, uint32_t waves);

  // ----- JSON spec (contrasim --churn-spec) ---------------------------------

  /// Parses the spec schema documented in DESIGN.md §13. Returns false and
  /// fills `*error` on malformed input. Accepts either scripted "events"
  /// (nodes/links named as in the topology, links as "from-to") or a
  /// generative {"seed", "waves", "start_ms", "horizon_ms"} block, or both.
  bool load_json(const std::string& text, std::string* error);

  // ----- arming -------------------------------------------------------------

  void arm(ParallelSimulator& psim) const;

  size_t num_events() const { return events_.size(); }
  uint32_t num_waves() const { return next_wave_; }
  /// Time of the last scheduled event (0 when empty) — quiescence budgets
  /// start after this.
  Time last_event_time() const;
  /// True when no link is left down and no gray state is left installed at
  /// the end of the schedule — the precondition for the all-links-up
  /// reconvergence oracle.
  bool ends_clean() const;
  /// Cables the schedule holds down at `t` (events at `t` applied), each
  /// named by the link id its fail event used.
  std::vector<topology::LinkId> cables_down_at(Time t) const;
  /// Whether any wave restarts a control plane — restarted nodes may need a
  /// version-reset escape window on top of the usual quiescence margin.
  bool has_restarts() const;
  /// One line per wave, for logs and --churn-spec summaries.
  std::string describe() const;

 private:
  enum class Op : uint8_t { kFail, kRestore, kGraySet, kRestart };
  struct Event {
    Time at = 0.0;
    Op op = Op::kFail;
    topology::LinkId link = topology::kInvalidLink;
    topology::NodeId node = topology::kInvalidNode;
    GrayParams gray;  ///< kGraySet payload (defaults = heal)
  };
  struct Wave {
    Time at = 0.0;
    FaultClass cls = FaultClass::kFlap;
    uint32_t index = 0;
    std::string what;  ///< describe() text
  };

  uint32_t begin_wave(FaultClass cls, Time at, std::string what);
  void push(Event ev) { events_.push_back(ev); }
  uint64_t gray_salt(topology::LinkId link, uint32_t wave) const;
  /// Replays the events at or before `t` in time order into the links left
  /// down and the links left gray.
  void replay_through(Time t, std::set<topology::LinkId>* down,
                      std::set<topology::LinkId>* grayed) const;

  const topology::Topology* topo_;
  std::vector<Event> events_;
  std::vector<Wave> waves_;
  uint32_t next_wave_ = 0;
};

}  // namespace contra::sim
