"""Self-tests of the benchmark: inputs, span arithmetic, declared metrics.

Run with: python3 -m pytest perfbench -q
"""
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import checkout

checkout.use_checkout_src()

import movebar as mb  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _declared(section):
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def test_same_seed_same_book():
    a, b = workloads.Book(7), workloads.Book(7)
    assert a.cases == b.cases
    assert a.cases != workloads.Book(8).cases
    assert len(a.cases) == workloads.Book.SIZE
    # every op holds one contract of each piece count
    for op in a.cases:
        pieces = tuple(len(case[3][0].barrier.curves.sigma.values) for case in op)
        assert pieces == workloads.Book.PIECES


def test_same_seed_same_twelve_piece_curves():
    def twelve(seed):
        return {c.barrier.curves for c in workloads.Lattice(seed).cases
                if len(c.barrier.curves.r.values) == 12}
    assert twelve(7) == twelve(7)
    assert len(twelve(7)) == 1
    assert twelve(7) != twelve(8)


def test_self_time_on_synthetic_tree():
    spans = [
        ("cli", -1, 0.0, 10.0),
        ("barrier", 0, 1.0, 5.0),
        ("vanilla", 1, 2.0, 3.0),
        ("barrier", 1, 3.5, 4.5),   # re-entry: not a new call
        ("curves", 3, 3.6, 3.8),
        ("curves", 0, 6.0, 7.0),
    ]
    got = tracer.summarize(spans)
    want = {
        "cli": (1, 10.0, 5.0),
        "barrier": (1, 4.0, 2.8),
        "vanilla": (1, 1.0, 1.0),
        "curves": (2, 1.2, 1.2),
    }
    assert set(got) == set(want)
    for layer, (calls, busy, own) in want.items():
        assert got[layer]["calls"] == calls
        assert got[layer]["busy_s"] == pytest.approx(busy)
        assert got[layer]["self_s"] == pytest.approx(own)
    assert sum(r["self_s"] for r in got.values()) == pytest.approx(10.0)


def test_tracer_records_and_restores():
    original = mb.price_contract
    tr = tracer.Tracer()
    tr.prepare()
    con = workloads.Lattice(1).cases[0]
    tr.install()
    try:
        mb.price_contract(100.0, 0.0, con)
    finally:
        tr.uninstall()
    assert mb.price_contract is original
    layers = tracer.summarize(tr.take_spans())
    assert layers["barrier"]["calls"] == 1
    assert layers["curves"]["calls"] > 0
    mb.price_contract(100.0, 0.0, con)
    assert tr.take_spans() == []


def test_lattice_node_steps_follow_the_solver():
    two = mb.load_curves(os.path.join(checkout.FIXTURES, "curves_two_piece.json"))
    con = workloads._knockout(two, 0.0)
    grid = mb.PdeGrid.for_contract(100.0, 0.0, con, n_space=40, n_time=30)
    tr = tracer.Tracer()
    tr.prepare()
    tr.install()
    try:
        mb.pde_price(100.0, 0.0, con, grid=grid)
        mb.pde_price(100.0, 0.0, con, grid=grid, tol=1.0)
    finally:
        tr.uninstall()
    assert tracer.summarize(tr.take_spans())["pde"]["calls"] == 2
    # interior nodes x (steps + 2 smoothing half-steps).  The breakpoint 0.5
    # is a node of the 30-step grid but adds a step to the 15-step
    # Richardson half grid (20 cells).
    assert tr.counters["pde.node_steps"] == 2 * 39 * (30 + 2) + 19 * (16 + 2)


def test_known_failures_cover_only_their_own_kind():
    tri = workloads.Triangle(1)

    def triangle_kinds(i, misses_in_se):
        est = types.SimpleNamespace(price=10.0 + misses_in_se, std_error=1.0)
        return tri.check(i, (10.0, 10.0, 10.0, est))

    assert triangle_kinds(0, 2.9) == []
    assert triangle_kinds(1, 3.1) == ["mc_beyond_3se"]
    assert not workloads.Triangle.KNOWN

    assert not workloads.ValidateCli.KNOWN
    assert all(kfile != "contract_levels_put.json"
               for _, kfile in workloads.ValidateCli(1).cases)
    cli = workloads.ValidateCliAll(1)
    assert len(cli.cases) == 9
    put = next(i for i, (_, kfile) in enumerate(cli.cases)
               if kfile == "contract_levels_put.json")

    def cli_kinds(failing):
        rows = [{"name": n, "passed": n not in failing} for n in (
            "quadrature_vs_closed", "lattice_vs_closed_rel", "simulation_vs_closed")]
        cli.first_stdout.clear()
        return cli.check(put, (1, json.dumps({"results": rows}).encode(), 1))

    assert cli_kinds({"lattice_vs_closed_rel"}) == list(cli.KNOWN)
    assert not set(cli_kinds({"lattice_vs_closed_rel", "simulation_vs_closed"})) & set(cli.KNOWN)
    assert not set(cli_kinds({"quadrature_vs_closed"})) & set(cli.KNOWN)


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "book",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=checkout.ROOT, timeout=180)
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = _declared(section)
    assert sorted(result["metrics"]) == sorted(declared)
    for line in done.stdout.splitlines()[2:-1]:
        name = line.split()[0]
        if name not in ("op_tail_s", "failure_ratio", "failure", "error"):
            assert name in declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(checkout.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "book", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
