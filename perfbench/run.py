#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Contra simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fattree_web --seed 1 --seconds 30 --trace 0

Every call first brings `contrasim` and `contrac` (Release) up to date in
$CARGO_TARGET_DIR, default `.bench_build`, with CMake's incremental build.
It then does three things.

1. Set-up: runs the workload's scenario MIN_RUNS times with no traffic and
   no failure (topology, policy compile, switch install, control-plane
   convergence and the idle drain). setup_s is the median time of those
   runs.
2. Measure: runs complete scenarios back to back, one at a time (a closed
   loop with one client), until --seconds have passed, with at least
   MIN_RUNS runs. Each run gets its own workload seed, drawn from --seed.
3. Check: every run exits 0 and completes every flow it offered. The
   failover scenario must take its cable down. Last, the scenario runs
   untraced with CHECK_SEED, and its answer (the FCT summary and, on the
   hybrid engine, the fluid completion digest) must equal the one pinned
   for the workload in expected.json.

Runs are pinned to one CPU and their times calibrated against the host's
speed there (see REFERENCE_S). The last
line on stdout is one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics. --trace 1 reports the
per-layer metrics. These come from the program's --engine-profile spans, its
--metrics-json counters and `contrac` compile runs. A span file is written
to $CARGO_TARGET_DIR/perfbench/.
"""
import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
EXPECTED = Path(__file__).resolve().parent / "expected.json"
TOOLS = ("contrasim", "contrac")
MIN_RUNS = 3
# The workload seed whose answer is pinned in EXPECTED.
CHECK_SEED = 1
RUN_TIMEOUT_S = 90
OUTPUT_FILES = ("metrics.json", "profile.json")
# On a shared host the speed of identical runs drifts by tens of percent over
# minutes as other tenants load the machine (on a 4-core Xeon VM at 2.1 GHz,
# identical fat-tree runs took 0.36 s to 0.60 s). Each program run is therefore
# timed between two runs of a fixed pure-Python reference, and its wall time
# is scaled by REFERENCE_S / (their mean): the reported times are what the run
# takes when the reference takes REFERENCE_S, as it does on that host when
# quiet. The reference does not depend on the program, so a change to the
# program shows in full.
REFERENCE_S = 0.040


@dataclass(frozen=True)
class Workload:
    topology: list
    policy: str
    traffic: list
    duration_ms: float
    failure: tuple = ()
    hybrid: bool = False


WORKLOADS = {
    # Paper Fig. 11 point: k=4 fat-tree, web-search flows at 60% load,
    # every packet simulated; the CLI's default probe protocol.
    "fattree_web": Workload(
        topology=["--builtin", "fat-tree:4"],
        policy="minimize((path.len, path.util))",
        traffic=["--workload", "web-search", "--load", "0.6"],
        duration_ms=100,
    ),
    # Abilene WAN under min-utilization routing: initial convergence, a
    # central cable cut half-way through the traffic, then reconvergence.
    "abilene_failover": Workload(
        topology=["--builtin", "abilene"],
        policy="minimize(path.util)",
        traffic=["--workload", "web-search", "--load", "0.5"],
        duration_ms=100,
        failure=("--fail", "KansasCity-Indianapolis", "--fail-at-ms", "55"),
    ),
    # k=16 fat-tree (320 switches, 256 hosts), ~260k streamed flows on the
    # hybrid fluid engine with the triggered control plane; the settings of
    # the tracked hybrid_fabric scale scenario.
    "hybrid_k16": Workload(
        topology=["--builtin", "fat-tree:16"],
        policy="minimize(path.len)",
        traffic=["--workload", "web-search", "--load", "0.5", "--size-scale", "0.01",
                 "--probe-period-us", "1024", "--triggered", "--keepalive-rounds", "512",
                 "--hybrid", "--hybrid-sample-n", "256", "--stream"],
        duration_ms=150,
        hybrid=True,
    ),
}

END_TO_END = {"run_ms": "ms", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "compile_ms": "ms",
    "converge_ms": "ms",
    "traffic_ms": "ms",
    "drain_ms": "ms",
    "traffic_us_per_flow": "us",
    "probe_ns": "ns",
    "probes_received": "count",
    "data_forwarded": "count",
    "flowlets_created": "count",
    "link_drops": "count",
    "tcp_retx": "count",
    "fluid_recomputes": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def reference_s():
    """Wall time of a fixed amount of pure-Python work."""
    start = time.perf_counter()
    table, x = {}, 0
    for i in range(300_000):
        table[i & 4095] = x
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


# ---- build ----------------------------------------------------------------

def build():
    """Brings the CLIs up to date with the sources; False if that is impossible.

    Both steps run on every call. When the binaries are current the build
    step does nothing; after a source edit it recompiles what changed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no program sources under {ROOT}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TOOLS],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


# ---- running the program --------------------------------------------------

@dataclass
class Run:
    wall_s: float
    maxrss_kib: int
    returncode: int
    stdout: str
    start_s: float
    calibrated_s: float = 0.0


def run_tool(argv, workdir, t_origin):
    """Runs one CLI to completion; wall time and peak RSS come from wait4."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, stdout=out, stderr=err)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"perfbench: exit {proc.returncode}: {' '.join(argv)}\n{err_path.read_text()[-2000:]}")
    return Run(wall, usage.ru_maxrss, proc.returncode, out_path.read_text(), start - t_origin)


class Bench:
    def __init__(self, name, seed, trace, workdir):
        self.name = name
        self.wl = WORKLOADS[name]
        self.trace = trace
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.seed = seed
        self.t_origin = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.spans = []
        self.reference = reference_s()

    def timed(self, argv):
        """run_tool between two reference timings, with the calibrated time set."""
        before = self.reference
        run = run_tool(argv, self.workdir, self.t_origin)
        self.reference = reference_s()
        run.calibrated_s = run.wall_s * REFERENCE_S * 2 / (before + self.reference)
        return run

    def scenario_argv(self, duration_ms, seed, traced):
        """Set-up runs (duration 0) leave the failure out: they time idle convergence."""
        wl = self.wl
        argv = [str(BUILD / "tools" / "contrasim"), *wl.topology, "--plane", "contra",
                "--policy", wl.policy, *wl.traffic, "--duration-ms", str(duration_ms),
                "--seed", str(seed), "--metrics-json", "metrics.json"]
        if duration_ms > 0:
            argv += wl.failure
        if traced:
            argv += ["--engine-profile", "profile.json"]
        return argv

    def scenario(self, label, duration_ms, seed, traced, expected=None):
        """One contrasim run plus everything parsed from it; None on failure."""
        self.attempted += 1
        for stale in OUTPUT_FILES:
            (self.workdir / stale).unlink(missing_ok=True)
        run = self.timed(self.scenario_argv(duration_ms, seed, traced))
        result = parse_scenario(run, self.workdir, traced) if run.returncode == 0 else None
        if run.returncode != 0:
            problem = f"exit status {run.returncode}"
        elif result is None:
            problem = "output not in the expected format"
        else:
            problem = check_scenario(self.wl, result, duration_ms > 0, expected)
        self.spans.append({"name": label, "ts": run.start_s * 1e6, "dur": run.wall_s * 1e6,
                           "args": {"seed": seed}})
        for name, (ts_us, dur_us) in (result or {}).get("spans", {}).items():
            self.spans.append({"name": name, "ts": run.start_s * 1e6 + ts_us, "dur": dur_us,
                               "args": {"parent": label}})
        if problem:
            log(f"perfbench: {label} (seed {seed}) failed check: {problem}")
            self.failed += 1
            return None
        return result

    def compile_once(self):
        self.attempted += 1
        argv = [str(BUILD / "tools" / "contrac"), *self.wl.topology, "--policy", self.wl.policy]
        run = self.timed(argv)
        self.spans.append({"name": "compile", "ts": run.start_s * 1e6, "dur": run.wall_s * 1e6})
        if run.returncode != 0 or "compiled :" not in run.stdout:
            self.failed += 1
            return None
        return run.calibrated_s

    def execute(self, seconds):
        setups = [self.scenario("setup", 0, self.seed, self.trace) for _ in range(MIN_RUNS)]
        compiles = [self.compile_once() for _ in range(MIN_RUNS)] if self.trace else []

        runs = []
        window_start = time.perf_counter()
        while len(runs) < MIN_RUNS or time.perf_counter() - window_start < seconds:
            seed = self.rng.randrange(1, 2**31)
            runs.append(self.scenario("run", self.wl.duration_ms, seed, self.trace))
        pinned = json.loads(EXPECTED.read_text())[self.name]
        self.scenario("check", self.wl.duration_ms, CHECK_SEED, False, expected=pinned)

        good_setups = [s for s in setups if s is not None]
        good_runs = [r for r in runs if r is not None]
        if not good_setups or not good_runs or (self.trace and None in compiles):
            return None
        if self.trace:
            metrics = layer_metrics(good_setups, good_runs, compiles)
            self.write_spans()
        else:
            metrics = {
                "run_ms": statistics.median(r["calibrated_s"] for r in good_runs) * 1e3,
                "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in good_runs) / 1024,
                "setup_s": statistics.median(s["calibrated_s"] for s in good_setups),
            }
        log(f"perfbench: {self.name}: {len(good_runs)} runs, {len(good_setups)} set-up runs, "
            f"{self.failed}/{self.attempted} failed")
        return self.failed == 0, metrics

    def write_spans(self):
        path = BUILD / "perfbench" / f"{self.name}-seed{self.seed}-spans.json"
        events = [{"ph": "X", "pid": 0, "tid": 0, **s} for s in self.spans]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")
        log(f"perfbench: spans -> {path}")


# ---- parsing and checking -------------------------------------------------

FLOWS_RE = re.compile(r"^plane=\S+ load=\S+ flows=(\d+)$", re.M)
FCT_RE = re.compile(r"^FCT\s*: (n=(\d+) \(\+(\d+) incomplete\).*)$", re.M)
FLUID_RE = re.compile(r"^fluid\s*: (\d+) flows \((\d+) completed\), (\d+) ticks, "
                      r"(\d+) recomputes, .* digest ([0-9a-f]+)$", re.M)


def parse_scenario(run, workdir, traced):
    flows, fct = FLOWS_RE.search(run.stdout), FCT_RE.search(run.stdout)
    try:
        snapshot = (workdir / "metrics.json").read_text().strip().splitlines()[-1]
        counters = json.loads(snapshot)["counters"]
    except (OSError, IndexError, ValueError, KeyError):
        return None
    if flows is None or fct is None:
        return None
    fluid = FLUID_RE.search(run.stdout)
    result = {
        "calibrated_s": run.calibrated_s,
        "maxrss_kib": run.maxrss_kib,
        "flows": int(flows.group(1)),
        "fct_n": int(fct.group(2)),
        "incomplete": int(fct.group(3)),
        "fluid": tuple(int(g) for g in fluid.groups()[:4]) if fluid else None,
        "counters": counters,
        # What the run computed, not how much work it took: an optimization
        # may change work counts (probes, recomputes, ticks), never these.
        "answer": {"fct": fct.group(1), "fluid_digest": fluid.group(5) if fluid else None},
    }
    if traced:
        # Program spans are wall time; scale them like the run that holds them.
        scale = run.calibrated_s / run.wall_s
        result["spans"] = read_profile(workdir / "profile.json")
        result["span_ms"] = {name: dur_us * scale / 1e3
                             for name, (_, dur_us) in result["spans"].items()}
    return result


def read_profile(path):
    """{span name: (start us, duration us)} from a Chrome trace-event file."""
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError):
        return {}
    return {e["name"]: (e["ts"], e["dur"]) for e in events if e.get("ph") == "X"}


def check_scenario(wl, r, with_traffic, expected=None):
    """Empty string when the run's outputs are consistent, else the problem."""
    if with_traffic and r["flows"] < 1:
        return "no flows offered"
    if r["fct_n"] != r["flows"] or r["incomplete"] != 0:
        return f"{r['fct_n']} of {r['flows']} flows completed, {r['incomplete']} incomplete"
    if wl.hybrid and with_traffic:
        if r["fluid"] is None or r["fluid"][0] < 1 or r["fluid"][0] != r["fluid"][1]:
            return f"fluid flows started/completed {r['fluid']}"
    if wl.failure and with_traffic and r["counters"].get("link_down_events", 0) < 1:
        return "the scripted cable failure never happened"
    if expected is not None and r["answer"] != expected:
        return (f"answer {json.dumps(r['answer'])} is not the one pinned in "
                f"{EXPECTED.name}: {json.dumps(expected)}")
    return ""


def layer_metrics(setups, runs, compiles):
    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def span_ms(r, name):
        return r["span_ms"].get(name, 0.0)

    def counter(r, *names):
        return sum(r["counters"].get(n, 0) for n in names)

    idle_probe_ns = [(span_ms(s, "warmup") + span_ms(s, "drain")) * 1e6 / counter(s, "probes_received")
                     for s in setups if counter(s, "probes_received") > 0]
    return {
        "compile_ms": med(compiles) * 1e3,
        "converge_ms": med(span_ms(r, "warmup") for r in runs),
        "traffic_ms": med(span_ms(r, "traffic") for r in runs),
        "drain_ms": med(span_ms(r, "drain") for r in runs),
        "traffic_us_per_flow": med(span_ms(r, "traffic") * 1e3 / r["flows"] for r in runs),
        "probe_ns": med(idle_probe_ns),
        "probes_received": med(counter(r, "probes_received") for r in runs),
        "data_forwarded": med(counter(r, "data_forwarded") for r in runs),
        "flowlets_created": med(counter(r, "flowlets_created") for r in runs),
        "link_drops": med(counter(r, "link_drops") for r in runs),
        "tcp_retx": med(counter(r, "tcp_rto_fired", "tcp_fast_retx") for r in runs),
        "fluid_recomputes": med(r["fluid"][3] if r["fluid"] else 0 for r in runs),
    }


# ---- main -----------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    # One CPU for the program and the reference alike, so the reference
    # samples the contention the program sees and nothing migrates.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = BUILD / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.trace == 1, workdir)
        outcome = bench.execute(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        log("perfbench: no successful runs to report")
        return 1
    correct, values = outcome
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in values.items():
        log(f"  {name:20s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
