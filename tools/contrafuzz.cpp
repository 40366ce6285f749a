// contrafuzz — differential fuzzer for the Contra control plane.
//
// Each iteration derives a deterministic case from (seed, iteration):
// a random topology (topology/generators plus degenerate shapes), a random
// policy drawn from the language grammar (resampled until it passes the
// monotonicity gate), and an optional failure/recovery schedule. The case
// is compiled, simulated to quiescence (on one shard, and periodically on
// the sharded engine with --workers), and the converged FwdT/BestT state
// is checked against the centralized RouteOracle (src/oracle). Tag
// minimization is cross-checked against the un-minimized product graph on
// a subsample of iterations.
//
// On violation a minimized, self-contained repro file is written into the
// corpus directory; `contrafuzz --replay <file>` re-executes it. Replaying
// stamps `<file>.replayed` — tools/compare_bench.py --fuzz-corpus treats
// repros without a stamp as an unexamined regression and hard-fails.
//
// Usage:
//   contrafuzz --seed 1 --iterations 200 [--corpus DIR] [--workers-every 4]
//              [--tag-check-every 5] [--cross-check] [--cross-check-triggered]
//              [--fault-schedules] [--verbose]
//   contrafuzz --replay DIR/repro-<seed>.txt
//
// --cross-check arms two differentials on every quiesced run: the dense
// FwdT/BestT rows against the shadow PR 4 hash-map tables (reference_tables),
// and the delta-suppression protocol against an unsuppressed rerun of the
// same case, compared by a usable-entry content digest.
//
// --cross-check-triggered reruns every strictly monotonic quiesced case under
// the triggered-update engine (keepalive_rounds=4) and hard-fails unless both
// protocols reach the same usable-FwdT fixed point.
//
// --fault-schedules arms a generated ChurnEngine schedule on every case —
// flaps, shared-risk groups, gray failures, metric drift, maintenance
// drains, and control-plane restarts, all derived from a per-case churn
// seed. Schedules always end clean (links restored, gray healed), so the
// all-links-up quiescence oracle stays sound; restart-bearing schedules
// widen the quiesce budget by the version-reset escape window.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "oracle/checker.h"
#include "oracle/oracle.h"
#include "oracle/quiesce.h"
#include "sim/churn_engine.h"
#include "sim/parallel_simulator.h"
#include "sim/simulator.h"
#include "cli_common.h"
#include "topology/generators.h"
#include "topology/parser.h"
#include "util/hash.h"
#include "util/rng.h"

namespace contra {
namespace {

using lang::Expr;
using lang::ExprPtr;
using lang::Regex;
using lang::RegexPtr;

// ---------------------------------------------------------------------------
// Case model
// ---------------------------------------------------------------------------

struct FailEvent {
  double t = 0.0;
  std::string a, b;  ///< endpoint names (robust across topology reserialization)
  bool fail = true;
};

struct FuzzCase {
  uint64_t seed = 0;
  topology::Topology topo;
  std::string policy_text;
  std::vector<FailEvent> events;
  uint32_t workers = 0;  ///< 0 = one shard, the serial engine
  /// Non-zero arms a ChurnEngine::generate fault schedule (flaps, SRGs, gray
  /// failures, drift, drains, restarts) derived from this seed. The schedule
  /// always ends clean, so the all-links-up quiescence oracle stays sound.
  uint64_t churn_seed = 0;
  double probe_period_s = 256e-6;
  bool suppression = true;   ///< probe delta-suppression (the shipping default)
  bool cross_check = false;  ///< dense-vs-reference + suppression differential
  bool triggered = false;    ///< run under the triggered-update engine
  /// Rerun strictly-monotonic cases under triggered updates and compare
  /// usable-FwdT fixed points against the periodic run.
  bool cross_check_triggered = false;
};

struct CaseResult {
  bool compiled = false;
  bool quiesced = false;
  oracle::CheckReport report;
  std::string error;  ///< compile/setup failure (not a violation)
  std::string cross_note;  ///< cross-check divergence (empty = agree)
  sim::Time quiesced_at = 0.0;
  uint64_t usable_digest = 0;  ///< usable-FwdT content digest at quiescence

  bool violated() const {
    return compiled && (!quiesced || !report.ok() || !cross_note.empty());
  }
};

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

topology::Topology random_topology(util::Rng& rng, uint64_t seed) {
  switch (rng.uniform_int(0, 9)) {
    case 0:
    case 1:
    case 2:
      return topology::random_connected(
          static_cast<uint32_t>(rng.uniform_int(4, 10)), 2.0 + rng.uniform() * 1.5, seed);
    case 3:
      return topology::ring(static_cast<uint32_t>(rng.uniform_int(3, 6)));
    case 4:
      return topology::line(static_cast<uint32_t>(rng.uniform_int(2, 5)));
    case 5:
      return topology::grid(static_cast<uint32_t>(rng.uniform_int(2, 3)),
                            static_cast<uint32_t>(rng.uniform_int(2, 3)));
    case 6:
      return topology::running_example();
    case 7:
      return topology::leaf_spine(static_cast<uint32_t>(rng.uniform_int(2, 4)),
                                  static_cast<uint32_t>(rng.uniform_int(2, 3)));
    case 8: {  // single node: zero-edge corner case
      topology::Topology t;
      t.add_node("solo");
      return t;
    }
    default: {  // disconnected islands: unreachable destinations
      topology::Topology t;
      const int n = static_cast<int>(rng.uniform_int(2, 4));
      for (int i = 0; i < n; ++i) t.add_node("iso" + std::to_string(i));
      if (n >= 4) t.add_link(0, 1, 10e9, 1e-6);  // one pair connected, rest isolated
      return t;
    }
  }
}

RegexPtr random_regex(util::Rng& rng, const std::vector<std::string>& names, int depth) {
  if (names.empty()) return Regex::star(Regex::dot());
  if (depth <= 0 || rng.uniform() < 0.4) {
    if (rng.uniform() < 0.4) return Regex::dot();
    return Regex::make_node(names[rng.uniform_int(0, names.size() - 1)]);
  }
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return Regex::make_union(random_regex(rng, names, depth - 1),
                               random_regex(rng, names, depth - 1));
    case 1:
      return Regex::concat(random_regex(rng, names, depth - 1),
                           random_regex(rng, names, depth - 1));
    default:
      return Regex::star(random_regex(rng, names, depth - 1));
  }
}

/// Monotone-friendly metric expressions (isotonic and weakly non-isotonic
/// shapes both appear; the checker adapts via the isotonicity report).
ExprPtr random_metric(util::Rng& rng) {
  const auto attr = [&] {
    return Expr::attribute(static_cast<lang::PathAttr>(rng.uniform_int(0, 2)));
  };
  switch (rng.uniform_int(0, 6)) {
    case 0: return Expr::attribute(lang::PathAttr::kLen);
    case 1: return Expr::attribute(lang::PathAttr::kLat);
    case 2: return Expr::attribute(lang::PathAttr::kUtil);
    case 3: return Expr::binop(lang::BinOp::kAdd, attr(),
                               Expr::constant(static_cast<double>(rng.uniform_int(0, 8))));
    case 4: return Expr::tuple({attr(), attr()});
    case 5: return Expr::binop(lang::BinOp::kAdd, Expr::attribute(lang::PathAttr::kLat),
                               Expr::attribute(lang::PathAttr::kLen));
    default: return Expr::tuple({attr(), attr(), attr()});
  }
}

lang::Policy random_policy(util::Rng& rng, const topology::Topology& topo) {
  std::vector<std::string> names;
  for (topology::NodeId n = 0; n < topo.num_nodes() && names.size() < 4; ++n) {
    if (rng.uniform() < 0.6) names.push_back(topo.name(n));
  }
  const double r = rng.uniform();
  if (r < 0.30) return lang::Policy{random_metric(rng)};
  if (r < 0.55) {
    // Regex-gated policy (waypoint / link-preference shape).
    RegexPtr guard = rng.uniform() < 0.5 && !names.empty()
                         ? Regex::concat(Regex::star(Regex::dot()),
                                         Regex::concat(Regex::make_node(names[0]),
                                                       Regex::star(Regex::dot())))
                         : random_regex(rng, names, 2);
    const ExprPtr fallback = rng.uniform() < 0.6
                                 ? Expr::infinity()
                                 : Expr::binop(lang::BinOp::kAdd, random_metric(rng),
                                               Expr::constant(10.0));
    return lang::Policy{
        Expr::if_then_else(lang::BoolTest::regex_test(guard), random_metric(rng), fallback)};
  }
  if (r < 0.80) {
    // Dynamic-test policy (congestion-aware shape) — exercises decomposition.
    const auto test = lang::BoolTest::compare(
        lang::BoolTest::CmpOp::kLt,
        Expr::attribute(static_cast<lang::PathAttr>(rng.uniform_int(0, 2))),
        Expr::constant(rng.uniform() * 8));
    return lang::Policy{Expr::if_then_else(test, random_metric(rng), random_metric(rng))};
  }
  // Wild card: unconstrained grammar walk; mostly rejected by the
  // monotonicity gate, occasionally yields genuinely odd accepted policies.
  std::function<ExprPtr(int)> wild = [&](int depth) -> ExprPtr {
    if (depth <= 0 || rng.uniform() < 0.35) {
      switch (rng.uniform_int(0, 2)) {
        case 0: return Expr::constant(static_cast<double>(rng.uniform_int(0, 10)));
        case 1: return Expr::infinity();
        default: return Expr::attribute(static_cast<lang::PathAttr>(rng.uniform_int(0, 2)));
      }
    }
    switch (rng.uniform_int(0, 2)) {
      case 0:
        return Expr::binop(static_cast<lang::BinOp>(rng.uniform_int(0, 3)), wild(depth - 1),
                           wild(depth - 1));
      case 1:
        return Expr::if_then_else(lang::BoolTest::regex_test(random_regex(rng, names, 2)),
                                  wild(depth - 1), wild(depth - 1));
      default:
        return Expr::tuple({wild(depth - 1), wild(depth - 1)});
    }
  };
  return lang::Policy{wild(3)};
}

FuzzCase generate_case(uint64_t run_seed, uint64_t iteration) {
  const uint64_t seed = util::mix64(util::hash_combine(run_seed, iteration));
  util::Rng rng(seed);
  FuzzCase c;
  c.seed = seed;
  c.topo = random_topology(rng, seed);

  // Resample policies until one compiles (monotonicity gate + decomposition
  // bounds); degenerate "all destinations forbidden" policies are kept —
  // they exercise the trivial-fixed-point path.
  for (int attempt = 0;; ++attempt) {
    const lang::Policy policy = random_policy(rng, c.topo);
    try {
      (void)compiler::compile(policy, c.topo);
      c.policy_text = lang::to_string(policy);
      break;
    } catch (const std::exception&) {
      if (attempt >= 60) {
        c.policy_text = "minimize(path.len)";
        break;
      }
    }
  }

  // Failure schedule: up to two cable events; destinations may die and
  // revive. Times are in probe periods past start.
  if (c.topo.num_links() > 0 && rng.uniform() < 0.5) {
    const int cables = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < cables; ++i) {
      const topology::LinkId link =
          static_cast<topology::LinkId>(rng.uniform_int(0, c.topo.num_links() - 1));
      const auto& l = c.topo.link(link);
      const double t_fail = (4.0 + rng.uniform() * 6.0) * c.probe_period_s;
      c.events.push_back({t_fail, c.topo.name(l.from), c.topo.name(l.to), true});
      if (rng.uniform() < 0.4) {
        c.events.push_back(
            {t_fail + (3.0 + rng.uniform() * 5.0) * c.probe_period_s,
             c.topo.name(l.from), c.topo.name(l.to), false});
      }
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Final cable state after replaying the event list (oracle's link view).
oracle::LinkState final_link_state(const FuzzCase& c) {
  oracle::LinkState state = oracle::LinkState::all_up(c.topo);
  // The simulator applies cable events in time order; the event vector is not
  // necessarily sorted (and repro files may list events in any order).
  std::vector<FailEvent> events = c.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const FailEvent& x, const FailEvent& y) { return x.t < y.t; });
  for (const FailEvent& e : events) {
    const topology::NodeId a = c.topo.find(e.a);
    const topology::NodeId b = c.topo.find(e.b);
    const topology::LinkId l = c.topo.link_between(a, b);
    if (l == topology::kInvalidLink) continue;
    state.up[l] = !e.fail;
    state.up[c.topo.link(l).reverse] = !e.fail;
  }
  return state;
}

CaseResult run_case(const FuzzCase& c, bool verbose) {
  CaseResult result;
  compiler::CompileResult compiled;
  try {
    compiled = compiler::compile(c.policy_text, c.topo);
  } catch (const std::exception& e) {
    result.error = std::string("compile failed: ") + e.what();
    return result;
  }
  result.compiled = true;
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  dataplane::ContraSwitchOptions options;
  options.probe_period_s = std::max(c.probe_period_s, compiled.min_probe_period_s);
  // Idle-exact mode: with a full-scale quantum, probe-only utilization
  // quantizes to exactly 0 on every link, matching the oracle's idle view
  // (see the checker's tolerance model). It also makes the suppression
  // differential exact: both protocol variants measure identical (zero)
  // utilization even though they emit different probe loads.
  options.util_quantum = 1.0;
  if (!c.suppression) options.suppress_refresh_rounds = 1;
  options.reference_tables = c.cross_check;
  options.triggered_updates = c.triggered;
  if (c.triggered) {
    // Small keepalive window so fuzz cases converge in few rounds; hold-down
    // short enough that failure waves settle inside the quiesce budget.
    options.keepalive_rounds = 4;
    options.holddown_periods = 2.0;
  }
  // Triggered runs change state only on keepalive rounds / trigger waves, so
  // every protocol timing window — and the quiescence sampler below — spans
  // keepalive_rounds probe periods instead of one.
  const double wscale = c.triggered ? static_cast<double>(options.keepalive_rounds) : 1.0;

  // Generated fault-schedule churn (--fault-schedules). Times are fixed
  // multiples of the configured probe period, independent of the protocol
  // variant, so a repro's churn-seed fully determines the schedule.
  sim::ChurnEngine churn(c.topo);
  if (c.churn_seed != 0 && c.topo.num_links() > 0) {
    churn.generate(c.churn_seed, 4.0 * c.probe_period_s, 28.0 * c.probe_period_s, 2);
  }

  // The generated churn is independent of the base event list, so a clean-
  // ending churn wave can restore a cable the base schedule failed for good —
  // and the quiesced network would then disagree with final_link_state()'s
  // view. Re-assert every net-down base failure after the churn clears;
  // fail_cable is idempotent, so re-failing an already-down cable is a no-op
  // (no telemetry, no port signal) when there was no conflict.
  std::vector<topology::LinkId> reassert_downs;
  double reassert_t = 0.0;
  if (churn.last_event_time() > 0.0) {
    const oracle::LinkState final_state = final_link_state(c);
    for (topology::LinkId l = 0; l < c.topo.num_links(); ++l) {
      if (!final_state.up[l] && l < c.topo.link(l).reverse) reassert_downs.push_back(l);
    }
    if (!reassert_downs.empty()) {
      reassert_t = churn.last_event_time() + options.probe_period_s;
      for (const FailEvent& e : c.events) {
        reassert_t = std::max(reassert_t, e.t + options.probe_period_s);
      }
    }
  }

  double last_event = 0.0;
  for (const FailEvent& e : c.events) last_event = std::max(last_event, e.t);
  last_event = std::max(last_event, churn.last_event_time());
  last_event = std::max(last_event, reassert_t);
  oracle::QuiesceOptions qopts;
  qopts.probe_period_s = options.probe_period_s * wscale;
  qopts.start_s = last_event +
                  (options.metric_expiry_periods + options.failure_detect_periods + 4.0) *
                      options.probe_period_s * wscale;
  // Restarted control planes may need the DSDV version-reset escape before
  // their origin rounds are adopted again; widen the budget only then.
  if (churn.has_restarts()) {
    qopts.start_s += options.version_reset_periods * options.probe_period_s * wscale;
  }
  qopts.max_time_s = qopts.start_s + 400.0 * options.probe_period_s * wscale;

  auto resolve = [&](const FailEvent& e) {
    return c.topo.link_between(c.topo.find(e.a), c.topo.find(e.b));
  };

  oracle::QuiesceResult q;
  std::vector<const dataplane::ContraSwitch*> view;
  sim::SimConfig cfg;
  cfg.workers = c.workers;
  sim::ParallelSimulator psim(c.topo, cfg);
  std::vector<dataplane::ContraSwitch*> switches;
  psim.for_each_shard([&](sim::Simulator& shard_sim) {
    auto owned = dataplane::install_contra_network(shard_sim, compiled, evaluator, options);
    switches.insert(switches.end(), owned.begin(), owned.end());
  });
  for (const FailEvent& e : c.events) {
    const topology::LinkId l = resolve(e);
    if (l != topology::kInvalidLink) psim.schedule_cable_event(e.t, l, e.fail);
  }
  for (const topology::LinkId l : reassert_downs) psim.schedule_cable_event(reassert_t, l, true);
  churn.arm(psim);
  psim.start();
  q = oracle::run_to_quiescence(psim, switches, qopts);
  result.quiesced = q.quiesced;
  result.quiesced_at = q.at;
  view.assign(switches.begin(), switches.end());
  if (result.quiesced) {
    oracle::RouteOracle oracle(compiled.graph, evaluator, final_link_state(c));
    result.report = oracle::check_invariants(
        oracle, view, q.at, oracle::options_for(compiled.isotonicity));
    result.usable_digest = oracle::usable_fwdt_digest(view, q.at);
    if (c.cross_check) {
      // Dense FwdT/BestT vs the shadow PR 4 hash-map tables, every switch.
      for (const dataplane::ContraSwitch* sw : view) {
        const std::string diff = sw->check_reference_parity(q.at);
        if (!diff.empty()) {
          result.cross_note = "dense/reference parity: " + diff;
          break;
        }
      }
    }
  }
  // Suppression differential: the same case under the legacy (unsuppressed)
  // protocol must reach the same usable-FwdT fixed point. Runs only when the
  // primary is the suppressed variant (the recursion bottoms out because the
  // rerun clears cross_check).
  if (c.cross_check && c.suppression && result.quiesced && result.cross_note.empty()) {
    FuzzCase legacy = c;
    legacy.cross_check = false;
    legacy.cross_check_triggered = false;
    legacy.suppression = false;
    const CaseResult ref = run_case(legacy, false);
    if (!ref.quiesced) {
      result.cross_note = "unsuppressed rerun failed to quiesce";
    } else if (ref.usable_digest != result.usable_digest) {
      result.cross_note = "suppression on/off usable-FwdT fixed points differ";
    }
  }
  // Triggered differential: rerun the case under the triggered-update engine
  // and compare usable-FwdT fixed points. Gated on strict monotonicity — with
  // rank ties the two protocols may legitimately settle on different
  // equal-rank paths (DESIGN.md §12), so only strictly ranked policies are a
  // hard digest gate.
  if (c.cross_check_triggered && !c.triggered && result.quiesced && result.cross_note.empty() &&
      compiled.monotonicity.strictly_monotonic) {
    FuzzCase trig = c;
    trig.cross_check = false;
    trig.cross_check_triggered = false;
    trig.triggered = true;
    const CaseResult ref = run_case(trig, false);
    if (!ref.quiesced) {
      result.cross_note = "triggered rerun failed to quiesce";
    } else if (ref.usable_digest != result.usable_digest) {
      result.cross_note = "triggered/periodic usable-FwdT fixed points differ";
    }
  }
  if (verbose) {
    std::cerr << "  policy: " << c.policy_text << "\n  topo: " << c.topo.num_nodes()
              << " nodes / " << c.topo.num_links() << " half-links, events=" << c.events.size()
              << ", workers=" << c.workers << ", quiesced="
              << (result.quiesced ? "yes" : "NO") << " @" << result.quiesced_at << "s\n";
  }
  return result;
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

std::string format_repro(const FuzzCase& c, const CaseResult& result) {
  std::ostringstream out;
  out << "# contrafuzz violation repro (v1)\n";
  if (!result.quiesced) {
    out << "# network failed to quiesce\n";
  }
  for (const oracle::Violation& v : result.report.violations) {
    out << "# " << v.to_string(c.topo) << "\n";
  }
  if (!result.cross_note.empty()) {
    out << "# cross-check: " << result.cross_note << "\n";
  }
  out << "seed " << c.seed << "\n";
  out << "workers " << c.workers << "\n";
  if (c.cross_check) out << "cross-check 1\n";
  if (c.cross_check_triggered) out << "cross-check-triggered 1\n";
  if (c.triggered) out << "triggered 1\n";
  if (!c.suppression) out << "suppression 0\n";
  if (c.churn_seed != 0) out << "churn-seed " << c.churn_seed << "\n";
  out << "probe-period " << c.probe_period_s << "\n";
  out << "policy " << c.policy_text << "\n";
  for (const FailEvent& e : c.events) {
    out << (e.fail ? "fail " : "restore ") << e.t << " " << e.a << " " << e.b << "\n";
  }
  out << "topology\n" << topology::format_topology(c.topo) << "end\n";
  return out.str();
}

std::optional<FuzzCase> parse_repro(const std::string& text, std::string* error) {
  FuzzCase c;
  std::istringstream in(text);
  std::string line;
  std::string topo_text;
  bool in_topo = false;
  bool saw_topo = false;
  while (std::getline(in, line)) {
    if (in_topo) {
      if (line == "end") {
        in_topo = false;
        continue;
      }
      topo_text += line + "\n";
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "seed") {
      ls >> c.seed;
    } else if (key == "workers") {
      ls >> c.workers;
    } else if (key == "cross-check") {
      int v = 0;
      ls >> v;
      c.cross_check = v != 0;
    } else if (key == "cross-check-triggered") {
      int v = 0;
      ls >> v;
      c.cross_check_triggered = v != 0;
    } else if (key == "triggered") {
      int v = 0;
      ls >> v;
      c.triggered = v != 0;
    } else if (key == "suppression") {
      int v = 1;
      ls >> v;
      c.suppression = v != 0;
    } else if (key == "churn-seed") {
      ls >> c.churn_seed;
    } else if (key == "probe-period") {
      ls >> c.probe_period_s;
    } else if (key == "policy") {
      std::getline(ls, c.policy_text);
      const size_t start = c.policy_text.find_first_not_of(' ');
      c.policy_text = start == std::string::npos ? "" : c.policy_text.substr(start);
    } else if (key == "fail" || key == "restore") {
      FailEvent e;
      e.fail = key == "fail";
      ls >> e.t >> e.a >> e.b;
      c.events.push_back(std::move(e));
    } else if (key == "topology") {
      in_topo = true;
      saw_topo = true;
    } else {
      *error = "unknown repro directive: " + key;
      return std::nullopt;
    }
  }
  if (!saw_topo || c.policy_text.empty()) {
    *error = "repro file missing topology or policy";
    return std::nullopt;
  }
  try {
    c.topo = topology::parse_topology(topo_text);
  } catch (const std::exception& e) {
    *error = std::string("bad topology section: ") + e.what();
    return std::nullopt;
  }
  return c;
}

/// Greedy minimization: prefer a one-shard repro over a sharded one, then drop
/// failure events that are not needed to reproduce the violation.
FuzzCase minimize_case(FuzzCase c) {
  auto still_violates = [](const FuzzCase& candidate) {
    return run_case(candidate, false).violated();
  };
  if (c.workers != 0) {
    FuzzCase one_shard = c;
    one_shard.workers = 0;
    if (still_violates(one_shard)) c = std::move(one_shard);
  }
  // Churn first: a repro that reproduces without the generated fault
  // schedule is far easier to reason about than one that needs it.
  if (c.churn_seed != 0) {
    FuzzCase calm = c;
    calm.churn_seed = 0;
    if (still_violates(calm)) c = std::move(calm);
  }
  for (size_t i = c.events.size(); i-- > 0;) {
    FuzzCase fewer = c;
    fewer.events.erase(fewer.events.begin() + static_cast<long>(i));
    if (still_violates(fewer)) c = std::move(fewer);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

int replay(const std::string& path) {
  const auto text = tools::read_file(path);
  if (!text) {
    std::cerr << "cannot read repro: " << path << "\n";
    return 1;
  }
  std::string error;
  const auto c = parse_repro(*text, &error);
  if (!c) {
    std::cerr << "bad repro file: " << error << "\n";
    return 1;
  }
  const CaseResult result = run_case(*c, true);
  std::ostringstream summary;
  if (!result.compiled) {
    summary << "replay error: " << result.error << "\n";
  } else if (!result.quiesced) {
    summary << "VIOLATION reproduced: network failed to quiesce\n";
  } else {
    summary << (result.violated() ? "VIOLATION reproduced\n" : "violation did NOT reproduce\n");
    if (!result.cross_note.empty()) summary << "cross-check: " << result.cross_note << "\n";
    summary << result.report.to_string(c->topo) << "\n";
  }
  std::cout << summary.str();
  tools::write_file(path + ".replayed", summary.str());
  return result.violated() ? 2 : 0;
}

}  // namespace
}  // namespace contra

int main(int argc, char** argv) {
  using namespace contra;
  tools::Args args(argc, argv);
  if (args.has("replay")) return replay(args.get("replay"));

  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 1));
  const uint64_t iterations = static_cast<uint64_t>(args.get_int("iterations", 100));
  const std::string corpus = args.get("corpus", "fuzz-corpus");
  const uint64_t workers_every = static_cast<uint64_t>(args.get_int("workers-every", 4));
  const uint64_t tag_check_every = static_cast<uint64_t>(args.get_int("tag-check-every", 5));
  const bool cross_check = args.has("cross-check");
  const bool cross_check_triggered = args.has("cross-check-triggered");
  const bool fault_schedules = args.has("fault-schedules");
  const bool verbose = args.has("verbose");

  uint64_t violations = 0;
  uint64_t compile_skips = 0;
  uint64_t tag_checks = 0;
  uint64_t parallel_runs = 0;
  for (uint64_t i = 0; i < iterations; ++i) {
    FuzzCase c = generate_case(seed, i);
    c.cross_check = cross_check;
    c.cross_check_triggered = cross_check_triggered;
    if (fault_schedules) c.churn_seed = util::mix64(c.seed ^ 0x6661756c74736368ULL);
    if (workers_every > 0 && i % workers_every == workers_every - 1) {
      c.workers = (i / workers_every) % 2 == 0 ? 2 : 4;
      ++parallel_runs;
    }
    if (verbose) std::cerr << "iteration " << i << " (case seed " << c.seed << ")\n";
    CaseResult result = run_case(c, verbose);
    if (!result.compiled) {
      ++compile_skips;
      if (verbose) std::cerr << "  skipped: " << result.error << "\n";
      continue;
    }
    bool violated = result.violated();

    // Tag-minimization differential on a subsample (it recompiles the PG).
    if (!violated && tag_check_every > 0 && i % tag_check_every == tag_check_every - 1) {
      try {
        const compiler::CompileResult compiled = compiler::compile(c.policy_text, c.topo);
        const auto tag_report =
            oracle::check_tag_minimization(compiled, final_link_state(c));
        ++tag_checks;
        if (!tag_report.ok()) {
          result.report = tag_report;
          violated = true;
        }
      } catch (const std::exception&) {
        // compile raced a non-deterministic resource limit; ignore
      }
    }

    if (violated) {
      ++violations;
      std::cerr << "VIOLATION at iteration " << i << " (case seed " << c.seed << ")\n";
      const FuzzCase minimized = minimize_case(c);
      const CaseResult final_result = run_case(minimized, false);
      std::filesystem::create_directories(corpus);
      const std::string path = corpus + "/repro-" + std::to_string(c.seed) + ".txt";
      tools::write_file(path, format_repro(minimized, final_result.violated()
                                                          ? final_result
                                                          : result));
      std::cerr << format_repro(minimized, final_result.violated() ? final_result : result);
      std::cerr << "repro written: " << path << "\n";
    }
  }

  std::cout << "contrafuzz: " << iterations << " iterations, " << violations
            << " violations, " << compile_skips << " compile-skips, " << tag_checks
            << " tag-merge checks, " << parallel_runs << " parallel runs"
            << (cross_check ? ", cross-check armed" : "")
            << (cross_check_triggered ? ", triggered cross-check armed" : "")
            << (fault_schedules ? ", fault schedules armed" : "") << " (seed "
            << seed << ")\n";
  return violations == 0 ? 0 : 2;
}
