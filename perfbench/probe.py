"""Set-up probe: import movebar, build one workload's inputs, print "ready".

run.py times this process from spawn to the "ready" line; that span is the
``setup_s`` metric.  Usage: python3 perfbench/probe.py WORKLOAD SEED
"""
import sys

import checkout

checkout.use_checkout_src()

import workloads  # noqa: E402  (needs the checkout's src/ on sys.path)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
