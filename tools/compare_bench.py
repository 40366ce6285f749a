#!/usr/bin/env python3
"""Compare two bench_core_speed JSON reports and fail on a throughput drop.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--threshold 0.10]
  compare_bench.py --fuzz-corpus DIR

Each scenario's events_per_sec in CURRENT must be no more than `threshold`
below BASELINE (default 10%), and so must probes_per_s (workload-normalized
control-plane throughput) where both reports record it. A BASELINE scenario
missing from CURRENT fails. The hybrid_* scale scenarios run once and their
wall time is dominated by control-plane convergence, so their
events_per_sec is printed as INFO and never gated, and one missing from
CURRENT (bench_core_speed --no-hybrid) is skipped.

Only throughput is compared here. Every correctness contract of a report
(zero allocations, usable-FwdT fixed points, dense-table fallbacks, the
triggered reduction, the hybrid event ratio and RSS ceiling, parallel
determinism and speedup) is enforced by bench_core_speed itself, which
exits 1 before it writes a report that breaks one.

--fuzz-corpus is an unrelated gate sharing this entry point: it fails
(exit 1) when DIR contains contrafuzz violation repros (repro-*.txt) that
were never triaged with `contrafuzz --replay` (no .replayed stamp next to
them). A missing DIR is fine — nothing to triage.

Exit code 0 = ok, 1 = regression or unreadable report, 2 = bad arguments.
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


def load_scenarios(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        sys.exit(f"compare_bench: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"compare_bench: {path} is not valid JSON: {e}")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        sys.exit(f"compare_bench: no scenarios in {path}")
    return scenarios


def compare(name, key, unit, base, cur, threshold):
    """Prints one comparison line; returns True on a regression."""
    base_v = float(base[key])
    cur_v = float(cur[key])
    ratio = cur_v / base_v if base_v > 0 else float("inf")
    change = f"{base_v:,.0f} -> {cur_v:,.0f} {unit} ({(ratio - 1) * 100:+.1f}%"
    if name.startswith("hybrid_"):
        print(f"{'INFO':10s} {name}: {change}, informational)")
        return False
    regressed = ratio < 1.0 - threshold
    print(f"{'REGRESSION' if regressed else 'OK':10s} {name}: {change})")
    return regressed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", metavar="REPORT", help="BASELINE CURRENT")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional throughput drop (default 0.10)")
    parser.add_argument("--fuzz-corpus", metavar="DIR",
                        help="fail on unreplayed contrafuzz repros in DIR")
    args = parser.parse_args()

    if args.fuzz_corpus is not None:
        if args.files:
            parser.error("--fuzz-corpus takes no report files")
        return check_fuzz_corpus(args.fuzz_corpus)
    if len(args.files) != 2:
        parser.error("need BASELINE and CURRENT report files")

    baseline = load_scenarios(args.files[0])
    current = load_scenarios(args.files[1])

    failed = False
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            if name.startswith("hybrid_"):
                print(f"{'SKIP':10s} {name}: hybrid scenario absent in current")
                continue
            print(f"{'MISSING':10s} {name}: present in baseline, absent in current")
            failed = True
            continue
        failed |= compare(name, "events_per_sec", "ev/s", base, cur, args.threshold)
        if "probes_per_s" in base and "probes_per_s" in cur:
            failed |= compare(name, "probes_per_s", "probes/s", base, cur, args.threshold)

    if failed:
        print(f"compare_bench: regression beyond {args.threshold:.0%} threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
