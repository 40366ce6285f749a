#!/usr/bin/env python3
"""Compare two bench_core_speed JSON reports and fail on regression.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--threshold 0.10]
  compare_bench.py --self CURRENT.json [--threshold 0.10]
  compare_bench.py --gates-only CURRENT.json
  compare_bench.py --fuzz-corpus DIR

Each scenario's events_per_sec in CURRENT must be no more than `threshold`
below BASELINE (default 10%). Probe scenarios carry two extra hard gates:
probes_per_s (workload-normalized control-plane throughput) obeys the same
threshold when both reports record it, and any dense_fallback_hits > 0 in
CURRENT fails outright — a fallback means a probe key escaped the compiled
dense FwdT universe, which is a compiler/dataplane contract break, not a
perf wobble. Scenarios named *_off are overhead-contract runs (telemetry /
flow tracking disabled): any allocs_per_event != 0 in CURRENT fails
outright, mirroring the bench binary's own exit-1 zero-allocation gate.
Triggered-update scenarios add three more hard gates on CURRENT alone:
any scenario reporting digest_match=false fails (the triggered engine
landed on a different usable-FwdT fixed point than the periodic one — a
protocol break), probe_steady_state's steady_state_reduction must stay
>= 0.90 (the §12 tentpole: keepalive-only steady traffic), and
probe_failure_wave's wave_ratio must stay < 1.0 (a triggered failure
wave may not cost more probes than the periodic recovery).
Hybrid scale scenarios (hybrid_*) carry three more hard gates on CURRENT
alone, mirroring the bench binary's own exit-1 gates: event_ratio >= 50
(the §14 tentpole — a hybrid run must simulate at least 50x fewer events
than the projected pure packet-level cost), steady_window_allocs == 0
(the warm fluid tick allocates nothing), and rss_peak_mib within the
scenario's recorded rss_ceiling_mib. Because the hybrid scenarios run
once (no best-of-N) and their wall time is dominated by control-plane
convergence, their events_per_sec is reported informationally, never
gated — and a baseline hybrid_* scenario missing from CURRENT is skipped
rather than failed (CI's bench-smoke runs with --no-hybrid; the
scale-smoke job carries the hybrid gates instead).

--gates-only CURRENT.json runs only the current-only hard gates
(dense fallbacks, *_off allocs, digest_match, triggered thresholds,
hybrid_* scale gates) with no baseline comparison — the mode CI's
scale-smoke job uses on a reduced-flow-count hybrid run.
Baselines predating these keys are tolerated (events_per_sec gate only). With --self, CURRENT's embedded "baseline" section (written by
bench_core_speed --baseline-json) is the reference.
Exit code 0 = ok, 1 = regression, 2 = bad input.

The gate keys only on the serial "scenarios" section. A "parallel_scaling"
section (the sharded engine's worker sweep) is reported informationally —
thread scaling is machine-dependent, so it never fails the gate, with two
exceptions: bit_identical=false in CURRENT is a determinism break and
fails, and when CURRENT records
hardware_concurrency >= 8 (the bench binary measures and embeds it) the
8-worker sweep must show a real engine speedup: speedup_w8 >= 2.0. The
core-count key makes the gate self-activating — laptop and CI runs with
fewer cores keep the informational behavior, big machines are held to the
scaling contract.

--fuzz-corpus is an unrelated gate sharing this entry point: it hard-fails
(exit 1) when DIR contains contrafuzz violation repros (repro-*.txt) that
were never triaged with `contrafuzz --replay` (no .replayed stamp next to
them). A missing DIR is fine — nothing to triage.
"""

import argparse
import glob
import json
import os
import sys


def check_fuzz_corpus(corpus_dir):
    if not os.path.isdir(corpus_dir):
        print(f"fuzz-corpus: {corpus_dir} does not exist — nothing to triage")
        return 0
    repros = sorted(glob.glob(os.path.join(corpus_dir, "repro-*.txt")))
    unreplayed = [r for r in repros if not os.path.exists(r + ".replayed")]
    for r in repros:
        status = "UNREPLAYED" if r in unreplayed else "ok"
        print(f"{status:10s} {r}")
    if unreplayed:
        print(f"fuzz-corpus: {len(unreplayed)} violation repro(s) without a "
              f".replayed stamp — run `contrafuzz --replay <file>` to triage",
              file=sys.stderr)
        return 1
    print(f"fuzz-corpus: {len(repros)} repro(s), all replayed")
    return 0


def load_report(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"compare_bench: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"compare_bench: {path} is not valid JSON: {e}")


def load_scenarios(report, where):
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        sys.exit(f"compare_bench: no scenarios in {where}")
    return scenarios


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="BASELINE CURRENT, or CURRENT with --self")
    parser.add_argument("--self", dest="use_self", action="store_true",
                        help="compare CURRENT against its embedded baseline section")
    parser.add_argument("--gates-only", dest="gates_only", action="store_true",
                        help="run only the current-only hard gates on CURRENT "
                             "(no baseline comparison)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional events/sec drop (default 0.10)")
    parser.add_argument("--fuzz-corpus", metavar="DIR",
                        help="fail on unreplayed contrafuzz repros in DIR")
    args = parser.parse_args()

    if args.fuzz_corpus is not None:
        if args.files:
            sys.exit("compare_bench: --fuzz-corpus takes no report files")
        return check_fuzz_corpus(args.fuzz_corpus)

    if not args.files:
        sys.exit("compare_bench: need report files (or --fuzz-corpus DIR)")

    if args.gates_only:
        if len(args.files) != 1:
            sys.exit("compare_bench: --gates-only takes exactly one file")
        current_report = load_report(args.files[0])
        baseline_report = {"scenarios": {}}
        baseline_name = "(gates-only)"
        current_name = args.files[0]
    elif args.use_self:
        if len(args.files) != 1:
            sys.exit("compare_bench: --self takes exactly one file")
        current_report = load_report(args.files[0])
        baseline_report = current_report.get("baseline")
        if not isinstance(baseline_report, dict):
            sys.exit(f"compare_bench: {args.files[0]} has no embedded baseline")
        baseline_name = f"{args.files[0]}#baseline"
        current_name = args.files[0]
    else:
        if len(args.files) != 2:
            sys.exit("compare_bench: need BASELINE and CURRENT files")
        baseline_report = load_report(args.files[0])
        current_report = load_report(args.files[1])
        baseline_name, current_name = args.files

    baseline = {} if args.gates_only else load_scenarios(baseline_report, baseline_name)
    current = load_scenarios(current_report, current_name)

    failed = False
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            # Hybrid scale scenarios run once and are expensive; bench-smoke
            # skips them with --no-hybrid, so a tracked hybrid_* baseline
            # absent from CURRENT is expected (the scale-smoke job gates it).
            if name.startswith("hybrid_"):
                print(f"SKIP       {name}: hybrid scenario absent in current "
                      f"(gated by scale-smoke, not here)")
                continue
            print(f"MISSING  {name}: present in baseline, absent in current")
            failed = True
            continue
        base_eps = float(base["events_per_sec"])
        cur_eps = float(cur["events_per_sec"])
        ratio = cur_eps / base_eps if base_eps > 0 else float("inf")
        if name.startswith("hybrid_"):
            # Single-shot runs dominated by control-plane convergence: their
            # throughput is machine- and scale-dependent, never gated.
            print(f"INFO       {name}: {base_eps:,.0f} -> {cur_eps:,.0f} ev/s "
                  f"({(ratio - 1) * 100:+.1f}%, informational)")
            continue
        status = "OK" if ratio >= 1.0 - args.threshold else "REGRESSION"
        if status != "OK":
            failed = True
        print(f"{status:10s} {name}: {base_eps:,.0f} -> {cur_eps:,.0f} ev/s "
              f"({(ratio - 1) * 100:+.1f}%)")
        if "probes_per_s" in base and "probes_per_s" in cur:
            base_pps = float(base["probes_per_s"])
            cur_pps = float(cur["probes_per_s"])
            pps_ratio = cur_pps / base_pps if base_pps > 0 else float("inf")
            pps_status = "OK" if pps_ratio >= 1.0 - args.threshold else "REGRESSION"
            if pps_status != "OK":
                failed = True
            print(f"{pps_status:10s} {name}: {base_pps:,.0f} -> {cur_pps:,.0f} probes/s "
                  f"({(pps_ratio - 1) * 100:+.1f}%)")
        if "fwdt_lookup_ns" in base and "fwdt_lookup_ns" in cur:
            print(f"INFO       {name}: fwdt_lookup "
                  f"{float(base['fwdt_lookup_ns']):.2f} -> "
                  f"{float(cur['fwdt_lookup_ns']):.2f} ns (informational)")

    # dense_fallback_hits is a correctness gate on CURRENT alone: no baseline
    # needed, and zero is the only passing value.
    for name, cur in sorted(current.items()):
        hits = cur.get("dense_fallback_hits")
        if hits is not None and int(hits) > 0:
            print(f"FALLBACK   {name}: dense_fallback_hits={int(hits)} (want 0) "
                  f"— probe key escaped the compiled dense FwdT universe",
                  file=sys.stderr)
            failed = True
        # *_off scenarios are overhead-contract runs: disabled telemetry /
        # flow tracking must cost zero allocations, so a nonzero
        # allocs_per_event means the contract broke (or the binary's own
        # exit-1 gate was bypassed).
        if name.endswith("_off") and float(cur.get("allocs_per_event", 0.0)) != 0.0:
            print(f"ALLOCS     {name}: allocs_per_event="
                  f"{float(cur['allocs_per_event'])} (want 0) — disabled-"
                  f"telemetry overhead contract broken", file=sys.stderr)
            failed = True
        # Triggered-vs-periodic fixed-point identity is a correctness gate:
        # any scenario that records the comparison must have passed it.
        if cur.get("digest_match") is False:
            print(f"DIGEST     {name}: digest_match=false — triggered engine "
                  f"diverged from the periodic fixed point", file=sys.stderr)
            failed = True
        if name == "probe_steady_state":
            reduction = cur.get("steady_state_reduction")
            if reduction is None or float(reduction) < 0.9:
                print(f"TRIGGERED  {name}: steady_state_reduction="
                      f"{reduction} (want >= 0.90) — triggered engine no "
                      f"longer suppresses steady-state probe traffic",
                      file=sys.stderr)
                failed = True
            else:
                print(f"OK         {name}: steady_state_reduction="
                      f"{float(reduction):.4f} (>= 0.90)")
        if name == "probe_failure_wave":
            ratio = cur.get("wave_ratio")
            if ratio is None or float(ratio) >= 1.0:
                print(f"TRIGGERED  {name}: wave_ratio={ratio} (want < 1.0) — "
                      f"triggered failure wave costs more than periodic",
                      file=sys.stderr)
                failed = True
            else:
                print(f"OK         {name}: wave_ratio={float(ratio):.4f} (< 1.0)")
        # Hybrid scale scenarios (§14): the event-reduction tentpole, the
        # zero-alloc steady tick, and the RSS ceiling are correctness gates
        # on CURRENT alone (the ceiling travels inside the report, so the
        # gate follows whatever scale the run was configured for).
        if name.startswith("hybrid_"):
            event_ratio = cur.get("event_ratio")
            if event_ratio is None or float(event_ratio) < 50.0:
                print(f"HYBRID     {name}: event_ratio={event_ratio} "
                      f"(want >= 50) — hybrid engine no longer beats pure "
                      f"packet-level by the contracted margin", file=sys.stderr)
                failed = True
            else:
                print(f"OK         {name}: event_ratio="
                      f"{float(event_ratio):.1f}x (>= 50x)")
            allocs = cur.get("steady_window_allocs")
            if allocs is None or int(allocs) != 0:
                print(f"HYBRID     {name}: steady_window_allocs={allocs} "
                      f"(want 0) — warm fluid ticks allocate", file=sys.stderr)
                failed = True
            rss = cur.get("rss_peak_mib")
            ceiling = cur.get("rss_ceiling_mib")
            if rss is None or ceiling is None or int(rss) > int(ceiling):
                print(f"HYBRID     {name}: rss_peak_mib={rss} over "
                      f"ceiling={ceiling} MiB", file=sys.stderr)
                failed = True
            else:
                print(f"OK         {name}: rss_peak_mib={int(rss)} "
                      f"(<= {int(ceiling)} MiB)")

    scaling = current_report.get("parallel_scaling")
    if isinstance(scaling, dict):
        cores = scaling.get("hardware_concurrency", "?")
        qualifier = ""
        if scaling.get("speedup_informational"):
            qualifier = ", workers exceed cores"
        for key, label in (("speedup_w4", "w4"), ("speedup_w8", "w8")):
            speedup = scaling.get(key)
            if isinstance(speedup, (int, float)):
                print(f"INFO       parallel_scaling: speedup({label})="
                      f"{speedup:.2f}x on {cores} cores "
                      f"(informational{qualifier})")
        if scaling.get("bit_identical") is False:
            print("compare_bench: parallel_scaling reports bit_identical=false "
                  "— determinism break", file=sys.stderr)
            failed = True
        # Self-activating scaling gate: when the bench machine has the cores
        # to deliver parallelism (recorded by the binary itself), an 8-worker
        # sweep that can't reach 2x over serial is an engine regression, not
        # machine noise.
        cores_n = scaling.get("hardware_concurrency")
        w8 = scaling.get("speedup_w8")
        if (isinstance(cores_n, int) and cores_n >= 8 and
                not scaling.get("speedup_informational") and
                isinstance(w8, (int, float)) and w8 < 2.0):
            print(f"compare_bench: speedup_w8={w8:.2f}x < 2.0x on "
                  f"{cores_n} cores — parallel engine scaling regression",
                  file=sys.stderr)
            failed = True

    if failed:
        print(f"compare_bench: regression beyond {args.threshold:.0%} threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
