"""movebar benchmark: one workload, one seed, a fixed measuring time.

Usage:
    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

WORKLOAD is triangle, lattice, book, validate-cli or validate-cli-all.

Closed loop, one caller: each op starts when the previous one and its check
have finished.  ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics plus the tracing overhead.  Human-readable lines come first; the
last line of stdout is the JSON result.  Details (machine facts, failure
kinds, spans of the first traced ops) go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict

import checkout
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7
SPAN_OPS_KEPT = 8
TAIL_MIN_BEYOND = 10
# layers that call into other layers, so self time differs from busy time
SELF_TIMED = ("barrier", "pde", "montecarlo", "cli")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_declared(section: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


# -- machine facts ------------------------------------------------------

def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(checkout.ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
                              env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    """Digest of the movebar sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout.SRC, "movebar", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, checkout.SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# -- set-up time --------------------------------------------------------

def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=checkout.ROOT, env=checkout.child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


# -- the measuring loop -------------------------------------------------

class Run:
    """Op loop, checks and the counts and timings they leave."""

    def __init__(self, wl, tracer_obj, cli_trace_file):
        self.wl = wl
        self.tracer = tracer_obj
        self.cli_trace_file = cli_trace_file
        self.attempted = 0
        self.failed = 0
        self.kinds = Counter()
        self.errors = []
        # traced? -> op wall times; compact, so that peak RSS hardly
        # depends on how many ops a run makes
        self.latency = {False: array("d"), True: array("d")}
        self.layers = defaultdict(lambda: defaultdict(float))
        self.counters = defaultdict(float)
        self.cli_process_s = 0.0
        self.kept_spans = []

    def op(self, k: int, case: int, traced: bool, timed: bool):
        wl, tr = self.wl, self.tracer
        trace_file = self.cli_trace_file if traced and self.cli_trace_file else None
        in_process_trace = traced and trace_file is None
        if in_process_trace:
            tr.install()
        start = time.perf_counter()
        try:
            out = wl.run(case, trace_file) if trace_file else wl.run(case)
            kinds = None
        except Exception as exc:  # an op that raises is a counted failure
            kinds = [f"raised:{type(exc).__name__}"]
            if len(self.errors) < 5:
                self.errors.append(f"op {k} case {case}: {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            if in_process_trace:
                tr.uninstall()
        if kinds is None:
            kinds = wl.check(case, out)
        self.attempted += 1
        if kinds:
            self.failed += 1
            self.kinds.update(kinds)
        if timed:
            self.latency[traced].append(elapsed)
        if traced:
            self._collect(k, elapsed, trace_file)

    def _collect(self, k: int, elapsed: float, trace_file):
        if trace_file:
            with open(trace_file) as fh:
                child = json.load(fh)
            os.remove(trace_file)
            summary, spans = child["layers"], child["spans"]
            for name, value in child["counters"].items():
                self.counters[name] += value
            self.cli_process_s += elapsed - summary.get("cli", {}).get("busy_s", 0.0)
        else:
            spans = self.tracer.take_spans()
            summary = tracer.summarize(spans)
            for name, value in self.tracer.counters.items():
                self.counters[name] += value
            self.tracer.counters.clear()
        for layer, row in summary.items():
            for key, value in row.items():
                self.layers[layer][key] += value
        if len(self.kept_spans) < SPAN_OPS_KEPT and spans:
            t0 = min(s[2] for s in spans)
            self.kept_spans.append({"op": k, "spans": [
                [layer, parent, start - t0, end - t0]
                for layer, parent, start, end in spans]})


def measure(run: Run, seconds: float, traced_mode: bool) -> float:
    """Run ops for ``seconds`` after one untimed warm-up op; returns the wall time.

    In traced mode ops alternate untraced/traced on the same case and the
    loop only stops after a complete pair, so both halves see the same
    cases.
    """
    run.op(-1, 0, traced=False, timed=False)
    start = time.perf_counter()
    k = 0
    while True:
        if (not traced_mode or k % 2 == 0) and time.perf_counter() - start >= seconds:
            break
        case = k // 2 if traced_mode else k
        run.op(k, case, traced=traced_mode and k % 2 == 1, timed=True)
        k += 1
    return time.perf_counter() - start


# -- metrics ------------------------------------------------------------

def tail(latency: list):
    """Highest percentile with at least ten samples beyond it, or None.

    Reported only when that percentile is p90 or above (100+ ops).
    """
    n = len(latency)
    beyond = TAIL_MIN_BEYOND
    if n < 10 * beyond:
        return None
    ordered = sorted(latency)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], n


def end_to_end(run: Run, wall: float, setup: list) -> dict:
    lat = run.latency[False]
    # validate-cli runs its ops in child processes and tracks their peak
    rss_kb = getattr(run.wl, "peak_child_rss_kb", None)
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": len(lat) / wall,
        "op_p50_s": statistics.median(lat),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(run: Run) -> dict:
    n = len(run.latency[True])
    m = {}
    for layer in tracer.LAYERS:
        row = run.layers.get(layer, {})
        keys = ("calls", "busy_s", "self_s") if layer in SELF_TIMED else ("calls", "busy_s")
        for key in keys:
            m[f"{layer}.{key}"] = row.get(key, 0.0) / n
    counters = run.counters
    pde_busy = run.layers.get("pde", {}).get("busy_s", 0.0)
    mc_busy = run.layers.get("montecarlo", {}).get("busy_s", 0.0)
    estimates = counters["montecarlo.estimates"]
    m.update({
        "pde.node_steps": counters["pde.node_steps"] / n,
        "pde.node_steps_per_s": counters["pde.node_steps"] / pde_busy if pde_busy else 0.0,
        "montecarlo.cpu_s": counters["montecarlo.cpu_s"] / n,
        "montecarlo.path_steps": counters["montecarlo.path_steps"] / n,
        "montecarlo.path_steps_per_s":
            counters["montecarlo.path_steps"] / mc_busy if mc_busy else 0.0,
        "montecarlo.knockout_fraction":
            counters["montecarlo.knockout_sum"] / estimates if estimates else 0.0,
        "montecarlo.bytes_computed": counters["montecarlo.bytes_computed"] / n,
        "cli.process_s": run.cli_process_s / n,
    })
    untraced = len(run.latency[False]) / sum(run.latency[False])
    traced = n / sum(run.latency[True])
    m["trace.ops_per_s_untraced"] = untraced
    m["trace.ops_per_s_traced"] = traced
    m["trace.overhead"] = untraced / traced - 1.0
    return m


# -- main ---------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("triangle", "lattice", "book", "validate-cli",
                            "validate-cli-all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        p.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.use_checkout_src()
    declared = load_declared("per_layer" if args.trace else "end_to_end")
    import workloads  # imports movebar, so only after use_checkout_src

    facts = machine_facts()
    setup = [time_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cli_trace_file = None
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.prepare()
        if isinstance(wl, workloads.ValidateCli):
            cli_trace_file = os.path.join(OUT_DIR, f"{tag}-child.json")
    run = Run(wl, tr, cli_trace_file)
    wall = measure(run, args.seconds, bool(args.trace))
    facts["os_threads_at_end"] = _os_threads()

    metrics = per_layer(run) if args.trace else end_to_end(run, wall, setup)
    if set(metrics) != set(declared):
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    correct = all(kind in wl.KNOWN for kind in run.kinds)
    failure_ratio = run.failed / run.attempted
    timings = run.latency[False]
    tail_stat = tail(timings)

    print(f"machine {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} ops attempted, {run.failed} failed, "
          f"measured {wall:.3f}s after 1 warm-up op")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {declared[name]}")
    if not args.trace:
        if tail_stat is None:
            print(f"  {'op_tail_s':34s} n/a ({len(timings)} timed ops; needs "
                  f"{10 * TAIL_MIN_BEYOND} for a p90+ tail)")
        else:
            pct, value, n = tail_stat
            print(f"  {'op_tail_s':34s} {value:.6g} s at p{pct:.2f} "
                  f"({TAIL_MIN_BEYOND} of {n} ops beyond)")
    print(f"  {'failure_ratio':34s} {failure_ratio:.6g} "
          f"({run.failed}/{run.attempted})")
    for kind, count in sorted(run.kinds.items()):
        known = "known" if kind in wl.KNOWN else "NEW"
        print(f"  failure {kind}: {count} ({known})")
    for line in run.errors:
        print(f"  error {line}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "setup_s_samples": setup, "op_wall_s": {"untraced": list(run.latency[False]),
                            "traced": list(run.latency[True])},
              "failure_kinds": dict(run.kinds), "errors": run.errors,
              "failure_ratio": failure_ratio, "metrics": metrics,
              "op_tail": tail_stat}
    if args.trace:
        record["layers"] = {k: dict(v) for k, v in run.layers.items()}
        record["spans_first_traced_ops"] = run.kept_spans
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
