"""The benchmark workloads: inputs from a seed, one op, its checks.

Each workload class builds its inputs in ``__init__`` (that is the set-up the
``setup_s`` metric times), runs one op in ``run`` (the timed part) and checks
that op's outputs in ``check``, which returns the failure kinds found.

``KNOWN`` lists the failure kinds the program shows today.  They are still
counted in ``failed`` and ``failure_ratio``; they only keep a run's
``correct`` flag true, so that any other kind of failure stands out.

Every call into movebar goes through an attribute of the package (``mb.x``),
so the tracer's wrappers see it when they are installed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import movebar as mb

from checkout import FIXTURES, PEAK_RSS_TAG, ROOT, child_env

HERE = os.path.dirname(os.path.abspath(__file__))

S0, K0, H_T0, T0 = 100.0, 100.0, 90.0, 1.0


def _knockout(curves, C, side="call", style="down_and_out", strike=K0,
              h_T=H_T0, expiry=T0):
    bar = mb.barrier_from_terminal(h_T, C, curves, expiry)
    return mb.BarrierContract(strike=strike, expiry=expiry, side=side,
                              style=style, barrier=bar)


def piecewise_curves(rng, pieces: int, lo: float, hi: float,
                     r=(0.0, 0.06), q=(0.0, 0.06), sigma=(0.15, 0.4)):
    """Curves with ``pieces`` intervals; the breakpoints fall inside (lo, hi).

    Breakpoints are cumulative sums of positive gaps, so they are strictly
    increasing for any draw.
    """
    if pieces == 1:
        return mb.CurveSet.constant(*(float(rng.uniform(*b)) for b in (r, q, sigma)))
    gaps = rng.uniform(0.5, 1.5, pieces)
    inner = lo + (hi - lo) * np.cumsum(gaps)[:-1] / gaps.sum()
    bps = (0.0, *(float(b) for b in inner))

    def curve(bounds):
        return mb.TermStructure(bps, tuple(float(v) for v in rng.uniform(*bounds, pieces)))
    return mb.CurveSet(curve(r), curve(q), curve(sigma))


class Triangle:
    """Acceptance criteria 1-2: closed form against all three oracles."""

    name = "triangle"
    MC_PATHS = 131_072  # four 32,768-path simulation chunks
    MC_STEPS = 256
    # The simulation seeds are fixed, so every --seed checks the same four
    # estimates; --seed sets the order of the contracts.  An unbiased
    # estimate misses by more than 3 standard errors with probability
    # 0.27%, so seeds drawn from --seed would fail about 1 run in 100 by
    # chance.  These four estimates lie within 1 standard error.
    MC_ENTROPY = 0
    KNOWN = {}

    def __init__(self, seed: int):
        flat = mb.CurveSet.constant(0.05, 0.0, 0.2)
        two = mb.load_curves(os.path.join(FIXTURES, "curves_two_piece.json"))
        contracts = [_knockout(flat, -1.25)] + [_knockout(two, C)
                                               for C in (-1.0, 0.0, 1.0)]
        mc_seeds = np.random.SeedSequence(self.MC_ENTROPY).generate_state(4, np.uint64)
        cases = [(c, int(s)) for c, s in zip(contracts, mc_seeds)]
        order = np.random.default_rng([seed, 0]).permutation(len(cases))
        self.cases = [cases[j] for j in order]
        self.first_estimate = {}

    def run(self, i: int):
        contract, mc_seed = self.cases[i % len(self.cases)]
        closed = mb.down_and_out_call(S0, 0.0, contract).price
        heat = mb.heat_kernel_price(S0, 0.0, contract, tol=1e-10)
        grid = mb.PdeGrid.for_contract(S0, 0.0, contract, n_space=800, n_time=800)
        pde = mb.pde_price(S0, 0.0, contract, grid=grid)
        est = mb.mc_price(S0, 0.0, contract, n_paths=self.MC_PATHS,
                          n_steps=self.MC_STEPS, seed=mc_seed)
        return closed, heat, pde, est

    def check(self, i: int, out) -> list:
        closed, heat, pde, est = out
        kinds = []
        if not abs(heat - closed) <= 1e-8:
            kinds.append("heat_vs_closed")
        if not abs(pde - closed) <= 5e-4 * abs(closed):
            kinds.append("pde_vs_closed")
        miss = abs(est.price - closed)
        if not miss <= 3.0 * est.std_error:
            kinds.append("mc_beyond_3se")
        # criterion 9: same (seed, paths, steps) gives the same bits
        if self.first_estimate.setdefault(i % len(self.cases), est) != est:
            kinds.append("mc_not_reproducible")
        return kinds


class Lattice:
    """Richardson-gated 1600x1600 lattice on two-piece and 12-piece curves."""

    name = "lattice"
    N = 1600
    REL_TOL = 5e-4
    KNOWN = {}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        two = mb.load_curves(os.path.join(FIXTURES, "curves_two_piece.json"))
        # value ranges of the two-piece fixture, so the barrier stays below S0
        twelve = piecewise_curves(rng, 12, 0.0, T0, r=(0.02, 0.06),
                                  q=(0.0, 0.02), sigma=(0.15, 0.30))
        contracts = [_knockout(curves, C, side)
                     for curves in (two, twelve) for C in (-1.0, 0.0, 1.0)
                     for side in ("call", "put")]
        self.cases = [contracts[j] for j in rng.permutation(len(contracts))]

    def run(self, i: int):
        contract = self.cases[i % len(self.cases)]
        closed = mb.price_contract(S0, 0.0, contract).price
        grid = mb.PdeGrid.for_contract(S0, 0.0, contract, n_space=self.N, n_time=self.N)
        value = mb.pde_price(S0, 0.0, contract, grid=grid,
                             tol=self.REL_TOL * closed)
        return closed, value

    def check(self, i: int, out) -> list:
        closed, value = out
        if not abs(value - closed) <= self.REL_TOL * abs(closed):
            return ["pde_vs_closed"]
        return []


class Book:
    """Closed forms on random contracts whose curves have 1-52 pieces.

    One op prices one contract of each piece count, so every op costs about
    the same and the median op describes the whole book.
    """

    name = "book"
    SIZE = 512  # ops per cycle; each op holds len(PIECES) contracts
    PIECES = (1, 2, 12, 52)
    PARITY_TOL = 1e-12
    ROUNDING = 1e-13
    KNOWN = {
        f"{side}_out_{where}_rounding": "knockout price outside [0, vanilla] "
                                       "by a few 1e-15 (flat curves, about "
                                       "1 draw in 1000)"
        for side in ("call", "put") for where in ("below_zero", "above_vanilla")
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.cases = [tuple(self._draw(rng, pieces) for pieces in self.PIECES)
                      for _ in range(self.SIZE)]

    @staticmethod
    def _draw(rng, pieces: int):
        """One contract in the ranges of the test suite's random draws."""
        t = float(rng.uniform(0.0, 0.5))
        T = t + float(rng.uniform(0.5, 2.0))
        curves = piecewise_curves(rng, pieces, t + 0.1 * (T - t), T - 0.1 * (T - t))
        K = float(rng.uniform(50.0, 150.0))
        h_T = K * float(rng.uniform(0.75, 0.98))
        C = float(rng.uniform(-1.5, 1.5))
        contracts = tuple(_knockout(curves, C, side, style, K, h_T, T)
                          for side in ("call", "put")
                          for style in ("down_and_out", "down_and_in"))
        level = contracts[0].barrier.level(t)
        S = level * float(np.exp(rng.uniform(0.0, 1.0)))
        return S, t, level, contracts

    @staticmethod
    def _price(S, t, level, contracts):
        c_out, c_in, p_out, p_in = contracts
        K, T, curves = c_out.strike, c_out.expiry, c_out.barrier.curves
        return (mb.price_contract(S, t, c_out).price,
                mb.price_contract(S, t, c_in).price,
                mb.price_contract(S, t, p_out).price,
                mb.price_contract(S, t, p_in).price,
                mb.forward_barrier_value(S, t, c_out).price,
                mb.vanilla_call(S, t, K, T, curves).price,
                mb.vanilla_put(S, t, K, T, curves).price,
                mb.price_contract(level, t, c_out).price)

    def run(self, i: int):
        return [self._price(*case) for case in self.cases[i % len(self.cases)]]

    def check(self, i: int, out) -> list:
        kinds = []
        for prices in out:
            kinds += self._check_one(prices)
        return kinds

    def _check_one(self, prices) -> list:
        c_out, c_in, p_out, p_in, fwd, van_c, van_p, on_barrier = prices
        kinds = []
        for side, out_px, in_px, van in (("call", c_out, c_in, van_c),
                                         ("put", p_out, p_in, van_p)):
            scale = max(1.0, van)
            if not abs(out_px + in_px - van) <= self.PARITY_TOL * scale:
                kinds.append(f"{side}_in_out_parity")
            for where, excess in (("below_zero", -out_px),
                                  ("above_vanilla", out_px - van)):
                if excess > 0.0:
                    small = excess <= self.ROUNDING * scale
                    kinds.append(f"{side}_out_{where}" + ("_rounding" if small else ""))
        if not abs(p_out + fwd - c_out) <= self.PARITY_TOL * max(1.0, abs(c_out)):
            kinds.append("put_forward_call_parity")
        if on_barrier != 0.0:
            kinds.append("nonzero_on_barrier")
        return kinds


class ValidateCli:
    """``movebar validate`` as a child process on the fixture pairs that pass.

    ``contract_levels_put`` is left out: on all three curve files the CLI
    exits 1 on it today (see ``ValidateCliAll``), and a declared workload
    must have no failing op.  Any failure here is a new one.
    """

    name = "validate-cli"
    CURVES = ("curves_flat.json", "curves_flat_div.json", "curves_two_piece.json")
    CONTRACTS = ("contract_knockout_call.json", "contract_low_strike.json")
    KNOWN = {}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        pairs = []
        for cfile in self.CURVES:
            curves = mb.load_curves(os.path.join(FIXTURES, cfile))
            for kfile in self.CONTRACTS:
                mb.load_contract(os.path.join(FIXTURES, kfile), curves)
                pairs.append((cfile, kfile))
        self.cases = [pairs[j] for j in rng.permutation(len(pairs))]
        self.first_stdout = {}
        self.peak_child_rss_kb = 0
        self.env = child_env()

    def command(self, i: int) -> list:
        cfile, kfile = self.cases[i % len(self.cases)]
        return ["validate", "--curves", f"fixtures/{cfile}",
                "--contract", f"fixtures/{kfile}", "--spot", "100", "--time", "0"]

    def run(self, i: int, trace_file: str | None = None):
        """Run one validate child; returns (exit code, stdout, peak RSS kB).

        The child is clichild.py, which runs the CLI in its own interpreter
        and reports that interpreter's peak RSS on stderr.  With
        ``trace_file`` it also runs the CLI under the tracer and leaves the
        span summary in that file.
        """
        argv = [sys.executable, os.path.join(HERE, "clichild.py"),
                trace_file or "-", *self.command(i)]
        done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True)
        return done.returncode, done.stdout, _child_peak_kb(done.stderr)

    def check(self, i: int, out) -> list:
        code, stdout, rss_kb = out
        cfile, kfile = self.cases[i % len(self.cases)]
        kinds = []
        if rss_kb is None:
            kinds.append("no_peak_rss_report")
        else:
            self.peak_child_rss_kb = max(self.peak_child_rss_kb, rss_kb)
        if code != 0:
            kinds.append(f"exit_{code}:{_failed_rows(stdout)}:"
                         f"{kfile.removesuffix('.json')}")
        if self.first_stdout.setdefault((cfile, kfile), stdout) != stdout:
            kinds.append("stdout_not_reproducible")
        return kinds


class ValidateCliAll(ValidateCli):
    """``movebar validate`` on all 9 fixture pairs, the known failure included."""

    name = "validate-cli-all"
    CONTRACTS = ("contract_knockout_call.json", "contract_levels_put.json",
                 "contract_low_strike.json")
    KNOWN = {
        "exit_1:lattice_vs_closed_rel:contract_levels_put":
            "the 400x400 lattice misses the 5e-4 relative limit on this put "
            "(1.5e-3 to 2.0e-3) on all three curve files; every other check "
            "of the op passes",
    }


def _child_peak_kb(stderr: bytes):
    """The peak RSS (kB) that clichild.py prints as its last stderr line."""
    lines = stderr.decode(errors="replace").strip().splitlines()
    if lines and lines[-1].startswith(PEAK_RSS_TAG):
        return int(lines[-1].split()[1])
    return None


def _failed_rows(stdout: bytes) -> str:
    """Names of the validate report rows that did not pass, joined by '+'."""
    try:
        rows = json.loads(stdout)["results"]
        return "+".join(r["name"] for r in rows if r["passed"] is False) or "none"
    except (ValueError, KeyError, TypeError):
        return "unparsable_report"


WORKLOADS = {w.name: w for w in (Triangle, Lattice, Book, ValidateCli,
                                  ValidateCliAll)}
