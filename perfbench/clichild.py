"""Run the movebar CLI in this interpreter and report its own peak RSS.

Usage: python3 perfbench/clichild.py TRACE_FILE|- validate --curves ...

stdout and the exit code are the CLI's own.  The last stderr line is
"perfbench-peak-rss-kb N": the VmHWM of this process.  It is read here rather
than from the parent's wait4, because Linux folds the spawning process's RSS
high-water mark into a child's ru_maxrss at exec.  Unless TRACE_FILE is "-",
the CLI runs under the tracer and TRACE_FILE receives the per-layer summary,
the computed counters and the spans as JSON.
"""
import json
import sys

import checkout

checkout.use_checkout_src()

import movebar.cli  # noqa: E402


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def traced_main(trace_file: str, argv: list) -> int:
    import tracer

    tr = tracer.Tracer()
    tr.prepare()
    tr.install()
    try:
        return movebar.cli.main(argv)
    finally:
        tr.uninstall()
        spans = tr.take_spans()
        with open(trace_file, "w") as fh:
            json.dump({"layers": tracer.summarize(spans),
                       "counters": dict(tr.counters), "spans": spans}, fh)


trace_file, argv = sys.argv[1], sys.argv[2:]
try:
    code = movebar.cli.main(argv) if trace_file == "-" else traced_main(trace_file, argv)
finally:
    sys.stdout.flush()
    print(f"{checkout.PEAK_RSS_TAG} {peak_rss_kb()}", file=sys.stderr, flush=True)
sys.exit(code)
