"""Simulation oracle: reproducibility, substreams, statistical agreement."""
import dataclasses
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import movebar as mb
from movebar import DomainError, mc_price
from movebar.oracles.montecarlo import _BLOCK, _E_MIN, _walk_chunk
from movebar.oracles.pde import _time_grid

FIX = Path(__file__).resolve().parents[1] / "fixtures"


def _normals(seed, lo, z):
    """Fill z, a (steps, pairs) array, with the normals of pairs
    [lo, lo + pairs) as the walk of the whole blocks that hold them draws
    them: a walk from x = 0 with no drift whose only nonzero sd is step
    i's ends its +z paths exactly at step i's normals."""
    steps, m = z.shape
    first = lo // _BLOCK * _BLOCK
    blocks = -(-(lo + m - first) // _BLOCK)
    for i in range(steps):
        x = np.zeros((2, blocks, _BLOCK))
        sd = np.zeros(steps)
        sd[i] = 1.0
        x_T, _ = _walk_chunk(seed, first, x, np.ones_like(x), np.zeros(steps),
                             sd, np.full(steps, -2.0),
                             (np.empty((blocks, _BLOCK)), np.empty_like(x)))
        assert np.array_equal(x_T[1], -x_T[0])
        z[i] = x_T[0].reshape(-1)[lo - first:lo - first + m]
    return z


def test_bit_identical_for_same_seed(const_contract):
    a = mc_price(100.0, 0.0, const_contract, n_paths=5000, n_steps=16, seed=42)
    b = mc_price(100.0, 0.0, const_contract, n_paths=5000, n_steps=16, seed=42)
    assert a == b  # every field, exact float equality


def test_path_substreams_align_across_chunks():
    # pair p's normals depend only on (seed, p), not on the batch
    joint = _normals(9, 0, np.empty((10, 7))).T
    tail = _normals(9, 3, np.empty((10, 4))).T
    assert np.array_equal(joint[3:], tail)


def test_block_streams_follow_the_stream_rule():
    # step i of pair 2048 b + j is normal number 2048 i + j of block b's
    # stream; pairs 1900-4299 span three blocks, the first and last in part
    whole = _normals(5, 1900, np.empty((9, 2400)))
    for b in range(3):
        stream = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(5, spawn_key=(b,))))
        lo, hi = max(1900, _BLOCK * b), min(4300, _BLOCK * (b + 1))
        for i in range(9):
            row = stream.standard_normal(_BLOCK)
            assert np.array_equal(whole[i, lo - 1900:hi - 1900],
                                  row[lo - _BLOCK * b:hi - _BLOCK * b])


def test_first_steps_do_not_depend_on_the_step_count():
    long = _normals(5, 1900, np.empty((17, 2400)))
    short = _normals(5, 1900, np.empty((10, 2400)))
    assert np.array_equal(long[:10], short)


def _whole_array_estimate(S, con, n_paths, n_steps, seed):
    """(price, std_error, knockout_fraction) of one walk over all pairs at
    once, on normals drawn a whole block's steps per call by the stream
    rule, in the estimator's arithmetic."""
    co = mb.to_heat_coords(S, 0.0, con)
    times = _time_grid(0.0, con.expiry, n_steps, con)
    sig = np.array([con.curves.sigma.value_at(0.5 * (a + b))
                    for a, b in zip(times[:-1], times[1:])])
    var = sig * sig * np.diff(times)
    pairs = n_paths // 2
    z = np.hstack([np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(b,)))).standard_normal(
            (len(var), _BLOCK)) for b in range(-(-pairs // _BLOCK))])
    x, w = np.full((2, pairs), co.x), np.ones((2, pairs))
    for i, v in enumerate(var):
        dz = z[i, :pairs] * math.sqrt(v)
        x_b = x - co.a_T * v
        x_b[0] += dz
        x_b[1] -= dz
        w *= 1.0 - np.exp(np.clip(x * x_b * (-2.0 / v), _E_MIN, 0.0))
        x = x_b
    pay = con.barrier.h_T * np.exp(x) - con.strike
    pay = math.exp(-co.rbar) * np.maximum(pay if con.side == "call" else -pay,
                                          0.0)
    pay *= 1.0 - w if con.style == "down_and_in" else w
    means = 0.5 * (pay[0] + pay[1])
    return (float(np.mean(means)),
            float(np.std(means, ddof=1) / math.sqrt(pairs)),
            float(np.mean(1.0 - w)))


@pytest.mark.parametrize("side,style", [("call", "down_and_out"),
                                        ("put", "down_and_in")])
def test_estimate_is_that_of_a_whole_array_walk(td_contract, side, style):
    # 5,001 pairs end 905 pairs into their third block
    con = td_contract(0.0, side=side, style=style)
    est = mc_price(100.0, 0.0, con, n_paths=10_002, n_steps=9, seed=41)
    assert (est.price, est.std_error, est.knockout_fraction) == \
        _whole_array_estimate(100.0, con, 10_002, 9, 41)


# float.hex of (price, std_error, knockout_fraction) on the two-piece curves
# with C = 0, recorded with antithetic pairs walking x = ln(S/h(t)) on the
# ziggurat normals of one SFC64 stream per block of 2,048 pairs: step i of
# pair 2048 b + j is normal number 2048 i + j of SeedSequence(seed,
# spawn_key=(b,)).  3000 paths leave one partial block and 8194 a one-pair
# third block.  The last three shapes have crossing exponents below -745
# (exp underflows to 0), in the subnormal band [-745, -708] and exactly at
# 0 (an endpoint at or below the barrier).  Spot None is one part in 1e4
# above h(0).  Where numpy's SIMD kernels set last bits, the second record
# is without AVX-512.
_PINNED = [
    ((100.0, "call", "down_and_out", 3000, 8, 3),
     (("0x1.247cbb7a00fdbp+3", "0x1.0159871a4d293p-2",
       "0x1.34fe120bee62ap-1"),)),
    ((100.0, "call", "down_and_out", 40_000, 256, 11),
     (("0x1.1d9bc3a0f17ccp+3", "0x1.1c47e77520950p-4",
       "0x1.36bb8a0729a58p-1"),)),
    ((None, "call", "down_and_out", 8194, 256, 5),
     (("0x1.50e40cfa58611p-8", "0x1.69b980095e862p-11",
       "0x1.ffd92e6a6006dp-1"),
      ("0x1.50e40cfa5860ep-8", "0x1.69b980095e85fp-11",
       "0x1.ffd92e6a6006dp-1"))),
    ((250.0, "put", "down_and_in", 8194, 64, 17),
     (("0x0.0p+0", "0x0.0p+0",
       "0x1.3fec013fec014p-61"),)),
    ((None, "put", "down_and_in", 3000, 8, 3),
     (("0x1.ca1dab0424341p+3", "0x1.74b506bde01b2p-4",
       "0x1.ffd7dd06608ddp-1"),
      ("0x1.ca1dab042433fp+3", "0x1.74b506bde01b2p-4",
       "0x1.ffd7dd06608ddp-1"))),
]


@pytest.mark.parametrize("shape,bits", _PINNED)
def test_estimate_keeps_its_bits(td_contract, shape, bits):
    spot, side, style, n_paths, n_steps, seed = shape
    con = td_contract(0.0, side=side, style=style)
    S = con.barrier.level(0.0) * (1.0 + 1e-4) if spot is None else spot
    est = mc_price(S, 0.0, con, n_paths=n_paths, n_steps=n_steps, seed=seed)
    assert (est.price.hex(), est.std_error.hex(),
            est.knockout_fraction.hex()) in bits


# float.hex of (price, std_error, knockout_fraction, ess) on the two-piece
# curves with C = 0 at S 100.  50,001 pairs fill two chunks of 13 blocks
# and 125,001 pairs four of 16, on one or two workers; the last block of
# each is partial and the last chunk padded.  Where numpy's SIMD kernels
# set last bits, the second record is without AVX-512.
_PINNED_MULTI_CHUNK = [
    (("put", "down_and_in", 100_002, 8, 23),
     (("0x1.eb26792d919fap+2", "0x1.93c3d1b8d607ap-6",
       "0x1.3676afad865e3p-1", "0x1.01bd80f560498p+15"),
      ("0x1.eb26792d919fap+2", "0x1.93c3d1b8d6079p-6",
       "0x1.3676afad865e3p-1", "0x1.01bd80f560498p+15"))),
    (("call", "down_and_out", 250_002, 5, 29),
     (("0x1.1b2914fae90d3p+3", "0x1.b76caa4571293p-6",
       "0x1.36a82f115b82dp-1", "0x1.c691721be7d80p+15"),)),
]


@pytest.mark.parametrize("shape,bits", _PINNED_MULTI_CHUNK)
def test_multi_chunk_estimate_keeps_its_bits(td_contract, shape, bits):
    side, style, n_paths, n_steps, seed = shape
    est = mc_price(100.0, 0.0, td_contract(0.0, side=side, style=style),
                   n_paths=n_paths, n_steps=n_steps, seed=seed)
    assert (est.price.hex(), est.std_error.hex(), est.knockout_fraction.hex(),
            est.ess.hex()) in bits


# float.hex of (price, std_error, knockout_fraction, ess) on the two-piece
# curves with C = 0 at S 100, at path counts that pad the last block: 2,049
# pairs end one pair into their second block and 3,001 pairs 953 pairs in.
# The curve switch at 0.5 adds a step, so n_steps 7, 9, 17 and 33 walk 8,
# 10, 18 and 34 steps.  Where numpy's SIMD kernels set last bits, the
# second record is without AVX-512.
_PINNED_BLOCK_EDGES = [
    (("call", "down_and_out", 4098, 7, 31),
     (("0x1.17fc1bf66774dp+3", "0x1.b042c5c6040a2p-3",
       "0x1.37cb07e31a70dp-1", "0x1.d36e2139a7d74p+9"),
      ("0x1.17fc1bf66774dp+3", "0x1.b042c5c6040a2p-3",
       "0x1.37cb07e31a70dp-1", "0x1.d36e2139a7d77p+9"))),
    (("call", "down_and_out", 4098, 9, 31),
     (("0x1.1a3d8ab799257p+3", "0x1.b211cca31f994p-3",
       "0x1.36edfd54751aap-1", "0x1.d56315cfb81bcp+9"),
      ("0x1.1a3d8ab799257p+3", "0x1.b211cca31f994p-3",
       "0x1.36edfd54751aap-1", "0x1.d56315cfb81bbp+9"))),
    (("call", "down_and_out", 4098, 17, 31),
     (("0x1.207eb64b04d76p+3", "0x1.c1ec0d34cd171p-3",
       "0x1.38ca460a07ccep-1", "0x1.ce4c9fd091ba3p+9"),
      ("0x1.207eb64b04d77p+3", "0x1.c1ec0d34cd171p-3",
       "0x1.38ca460a07ccep-1", "0x1.ce4c9fd091ba3p+9"))),
    (("call", "down_and_out", 4098, 33, 31),
     (("0x1.231271a0c40eep+3", "0x1.cee1709353077p-3",
       "0x1.34eeb3530be66p-1", "0x1.c46cb49318f80p+9"),
      ("0x1.231271a0c40eep+3", "0x1.cee1709353079p-3",
       "0x1.34eeb3530be66p-1", "0x1.c46cb49318f80p+9"))),
    (("put", "down_and_in", 6002, 7, 37),
     (("0x1.f2a9d274300e5p+2", "0x1.97c0ae599e44dp-4",
       "0x1.3524c00d777b8p-1", "0x1.f79f0211c1a5cp+10"),)),
    (("put", "down_and_in", 6002, 9, 37),
     (("0x1.e8decabe84a07p+2", "0x1.93f2686234a3cp-4",
       "0x1.369305fd19fedp-1", "0x1.f4257f4ffa7e9p+10"),
      ("0x1.e8decabe84a07p+2", "0x1.93f2686234a3cp-4",
       "0x1.369305fd19fedp-1", "0x1.f4257f4ffa7ebp+10"))),
    (("put", "down_and_in", 6002, 17, 37),
     (("0x1.edc22445ec926p+2", "0x1.9c43aa33879cdp-4",
       "0x1.37542b0d5082ep-1", "0x1.f0a7e1082e200p+10"),
      ("0x1.edc22445ec926p+2", "0x1.9c43aa33879cdp-4",
       "0x1.37542b0d5082ep-1", "0x1.f0a7e1082e1fdp+10"))),
    (("put", "down_and_in", 6002, 33, 37),
     (("0x1.ef55d131fabefp+2", "0x1.9dcdc62a7d96bp-4",
       "0x1.367ecaa809192p-1", "0x1.f0798fb25bd0bp+10"),
      ("0x1.ef55d131fabefp+2", "0x1.9dcdc62a7d96bp-4",
       "0x1.367ecaa809192p-1", "0x1.f0798fb25bd0dp+10"))),
]


@pytest.mark.parametrize("shape,records", _PINNED_BLOCK_EDGES)
def test_estimate_at_slab_edges_keeps_its_bits(td_contract, shape, records):
    side, style, n_paths, n_steps, seed = shape
    est = mc_price(100.0, 0.0, td_contract(0.0, side=side, style=style),
                   n_paths=n_paths, n_steps=n_steps, seed=seed)
    assert (est.price.hex(), est.std_error.hex(), est.knockout_fraction.hex(),
            est.ess.hex()) in records


def test_clamped_exponent_leaves_the_weight_factor_unchanged():
    # below the clamp exp(e) < 2**-54, so 1 - exp(e) rounds to exactly 1.0
    expo = np.linspace(-745.2, _E_MIN, 200_001)
    assert np.all(1.0 - np.exp(expo) == 1.0)
    assert 1.0 - math.exp(_E_MIN) == 1.0


def test_estimate_reports_refined_step_count(td_contract):
    # three uniform steps plus the curve switch at 0.5 make four
    est = mc_price(100.0, 0.0, td_contract(0.0), n_paths=100, n_steps=3, seed=0)
    assert est.n_steps == 4
    assert est.n_paths == 100


def test_agreement_constant_curves(const_contract):
    closed = mb.down_and_out_call(100.0, 0.0, const_contract).price
    est = mc_price(100.0, 0.0, const_contract, n_paths=100_000, n_steps=64,
                   seed=7)
    assert abs(est.price - closed) <= 4.0 * est.std_error
    assert 0.0 < est.knockout_fraction < 1.0
    assert est.std_error > 0.0


def test_agreement_two_piece_curves(td_contract):
    con = td_contract(0.0)
    closed = mb.down_and_out_call(100.0, 0.0, con).price
    est = mc_price(100.0, 0.0, con, n_paths=100_000, n_steps=64, seed=11)
    assert abs(est.price - closed) <= 4.0 * est.std_error


def test_agreement_knockin(const_curves):
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_in", barrier=bar)
    closed = mb.down_and_in_call(100.0, 0.0, con).price
    est = mc_price(100.0, 0.0, con, n_paths=100_000, n_steps=64, seed=7)
    assert abs(est.price - closed) <= 4.0 * est.std_error


def test_agreement_put(const_curves):
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="put",
                             style="down_and_out", barrier=bar)
    closed = mb.down_and_out_put(100.0, 0.0, con).price
    est = mc_price(100.0, 0.0, con, n_paths=100_000, n_steps=64, seed=7)
    assert abs(est.price - closed) <= 4.0 * est.std_error


@pytest.mark.parametrize("style", ["down_and_out", "down_and_in"])
@pytest.mark.parametrize("side", ["call", "put"])
@pytest.mark.parametrize("curves", ["const_curves", "td_curves"])
@pytest.mark.parametrize("n_steps", [1, 7])
def test_agreement_at_low_step_counts(request, curves, side, style, n_steps):
    # the bridge weight makes the estimate exact in law at any step count,
    # so a wrong drift of x = ln(S/h(t)) would show at once at one step
    bar = mb.barrier_from_terminal(90.0, 0.7, request.getfixturevalue(curves),
                                   1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side=side, style=style,
                             barrier=bar)
    closed = mb.price_contract(100.0, 0.0, con).price
    est = mc_price(100.0, 0.0, con, n_paths=100_000, n_steps=n_steps,
                   seed=2718)
    assert abs(est.price - closed) <= 4.0 * est.std_error


def test_agreement_a_picosecond_before_expiry():
    # T - t = 1e-12 is 64 uniform steps, none dropped as a near-duplicate
    curves = mb.CurveSet.constant(0.05, 0.01, 0.2)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(90.0, 0.0, curves, 1.0))
    t = 1.0 - 1e-12
    closed = mb.down_and_out_call(100.0, t, con).price
    est = mc_price(100.0, t, con, n_paths=100_000, n_steps=64, seed=2718)
    assert est.n_steps == 64
    assert abs(est.price - closed) <= 4.0 * est.std_error


@pytest.mark.parametrize("C", [-1.25, 0.0, 3.0])
@pytest.mark.parametrize("side", ["call", "put"])
def test_spot_on_the_barrier_is_knocked_out_at_the_first_step(td_contract,
                                                               side, C):
    # x0 = 0 makes every path's first crossing factor exactly 0: the
    # knockout is worth exactly 0 and the knock-in is the vanilla estimate
    out = td_contract(C, side=side)
    lev = out.barrier.level(0.0)
    est = mc_price(lev, 0.0, out, n_paths=20_000, n_steps=16, seed=13)
    assert (est.price, est.std_error, est.knockout_fraction) == (0.0, 0.0, 1.0)
    inn = td_contract(C, side=side, style="down_and_in")
    closed = mb.price_contract(lev, 0.0, inn).price
    est = mc_price(lev, 0.0, inn, n_paths=20_000, n_steps=16, seed=13)
    assert abs(est.price - closed) <= 4.0 * est.std_error


def test_remote_barrier_recovers_vanilla(const_curves):
    # barrier far below spot: no knockouts, estimator reduces to plain
    # discounted-payoff sampling
    bar = mb.barrier_from_terminal(1.0, 0.0, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out", barrier=bar)
    vanilla = mb.vanilla_call(100.0, 0.0, 100.0, 1.0, const_curves).price
    est = mc_price(100.0, 0.0, con, n_paths=50_000, n_steps=16, seed=5)
    assert est.knockout_fraction <= 1e-9
    assert abs(est.price - vanilla) <= 4.0 * est.std_error


def test_pair_mean_standard_error_is_honest(const_curves):
    # a remote barrier and a deep in-the-money call: the payoff is nearly
    # linear in S_T, so the two paths of a pair are strongly anti-correlated.
    # The spread of the estimates over seeds must match the reported SE; a
    # per-path SE would be about the plain one, several times the spread.
    bar = mb.barrier_from_terminal(1.0, 0.0, const_curves, 1.0)
    con = mb.BarrierContract(strike=50.0, expiry=1.0, side="call",
                             style="down_and_out", barrier=bar)
    n_paths = 1000
    est = [mc_price(100.0, 0.0, con, n_paths=n_paths, n_steps=4, seed=s)
           for s in range(1, 41)]
    spread = np.std([e.price for e in est], ddof=1)
    reported = np.mean([e.std_error for e in est])
    assert 0.7 <= spread / reported <= 1.4
    # plain sampling: the discounted S_T has sd S e^{-qT} sqrt(e^{sigma^2 T} - 1)
    plain = 100.0 * math.sqrt(math.expm1(0.2 ** 2)) / math.sqrt(n_paths)
    assert reported < plain / 3.0


def test_mid_horizon_start(td_contract):
    con = td_contract(1.0)
    closed = mb.down_and_out_call(95.0, 0.25, con).price
    est = mc_price(95.0, 0.25, con, n_paths=100_000, n_steps=64, seed=11)
    assert abs(est.price - closed) <= 4.0 * est.std_error


def test_input_validation(const_contract):
    for n_paths in (1, 2, 3, 5):
        with pytest.raises(DomainError, match=f"n_paths must be even and at "
                                              f"least 4, got {n_paths}$"):
            mc_price(100.0, 0.0, const_contract, n_paths=n_paths)
    with pytest.raises(DomainError):
        mc_price(100.0, 0.0, const_contract, n_steps=0)
    with pytest.raises(DomainError):
        mc_price(100.0, 0.0, const_contract, seed=-1)
    with pytest.raises(DomainError):
        mc_price(100.0, 0.0, const_contract, seed=2 ** 64)
    with pytest.raises(DomainError):
        mc_price(100.0, 1.0, const_contract)
    for bad in ({"n_paths": 100.0}, {"n_steps": 4.5}, {"n_steps": True},
                {"seed": True}, {"seed": 1.0}):
        name, value = next(iter(bad.items()))
        with pytest.raises(DomainError, match=f"{name} must be an integer, got {value!r}"):
            mc_price(100.0, 0.0, const_contract, **bad)


def test_chunking_does_not_change_the_estimate(const_contract, monkeypatch):
    import movebar.oracles.montecarlo as mc_mod
    # 12,000 pairs end 1,760 pairs into their sixth block
    base = mc_price(100.0, 0.0, const_contract, n_paths=24_000, n_steps=8,
                    seed=3)
    # _CHUNK counts pairs in whole blocks of _BLOCK
    for chunk in (3 * _BLOCK, _BLOCK):
        monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
        rechunked = mc_price(100.0, 0.0, const_contract, n_paths=24_000,
                             n_steps=8, seed=3)
        assert base == rechunked


def test_thread_count_does_not_change_the_estimate(const_contract, monkeypatch):
    import movebar.oracles.montecarlo as mc_mod
    base = mc_price(100.0, 0.0, const_contract, n_paths=24_000, n_steps=8,
                    seed=3)
    estimates = []
    chunks = (mc_mod._CHUNK, 3 * _BLOCK, _BLOCK)
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc_mod, "_pool_size", lambda: workers)
        for chunk in chunks:
            monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
            estimates.append(mc_price(100.0, 0.0, const_contract,
                                      n_paths=24_000, n_steps=8, seed=3))
    assert all(est == base for est in estimates)
    # three unlocked walks, switching threads as often as possible
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: 3)
    monkeypatch.setattr(mc_mod, "_CHUNK", _BLOCK)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = mc_price(100.0, 0.0, const_contract, n_paths=24_000,
                       n_steps=8, seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert est == base


def _record_widths(monkeypatch, mc_mod):
    """Record the width in blocks of every chunk walked."""
    widths = []
    walk = mc_mod._walk_chunk

    def recorded(seed, lo, x, *args):
        widths.append(x[0].size // _BLOCK)
        return walk(seed, lo, x, *args)

    monkeypatch.setattr(mc_mod, "_walk_chunk", recorded)
    return widths


def test_chunks_are_of_one_width(const_contract, monkeypatch):
    # 50,000 pairs fill 25 blocks: on two workers two chunks of 13, the
    # last padded by one block
    import movebar.oracles.montecarlo as mc_mod
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: 2)
    widths = _record_widths(monkeypatch, mc_mod)
    mc_price(100.0, 0.0, const_contract, n_paths=100_000, n_steps=4, seed=1)
    assert widths == [13] * 2


def test_chunk_count_follows_the_workers(const_contract, monkeypatch):
    # the triangle's 131,072 paths fill 32 blocks: four workers walk four
    # chunks of 8, and any number of workers gives the same bits
    import movebar.oracles.montecarlo as mc_mod
    widths = _record_widths(monkeypatch, mc_mod)
    estimates = {}
    for pool in (1, 2, 3, 4, 7):
        monkeypatch.setattr(mc_mod, "_pool_size", lambda: pool)
        widths.clear()
        estimates[pool] = mc_price(100.0, 0.0, const_contract,
                                   n_paths=131_072, n_steps=16, seed=1)
        if pool == 4:
            assert widths == [8] * 4
    assert all(est == estimates[1] for est in estimates.values())


def test_memory_does_not_grow_with_the_step_count(const_contract):
    # each worker holds one row of normals, not its chunk's whole walk
    peaks = []
    for n_steps in (64, 256, 1024):
        tracemalloc.start()
        try:
            mc_price(100.0, 0.0, const_contract, n_paths=131_072,
                     n_steps=n_steps, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) - min(peaks) <= 2 ** 20


@pytest.mark.parametrize("style", ["down_and_out", "down_and_in"])
def test_memory_per_path_is_the_weights_and_the_pair_means(const_contract,
                                                           style, monkeypatch):
    # w (8 B per path) and the pair means (4 B) stay, plus 8 B for the
    # knockout fraction's 1 - w; each worker's buffers (1.25 MB) do not grow
    # with n_paths, so at most two are counted on a machine of many cores
    import movebar.oracles.montecarlo as mc_mod
    pool = mc_mod._pool_size
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: min(pool(), 2))
    con = dataclasses.replace(const_contract, style=style)
    n_paths = 2_000_000
    tracemalloc.start()
    try:
        mc_price(100.0, 0.0, con, n_paths=n_paths, n_steps=4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n_paths


def test_memory_at_the_triangle_shape(const_contract, monkeypatch):
    # 131,072 x 256 on two workers is two chunks of 16 blocks: w (1 MB)
    # and the pair means (0.5 MB) stay, and the walk adds two workers'
    # 256 kB row of normals and two 512 kB x buffers each; they are freed
    # before the knockout fraction's 1 - w (1 MB)
    import movebar.oracles.montecarlo as mc_mod
    pool = mc_mod._pool_size
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: min(pool(), 2))
    # a first estimate imports numpy.random (0.75 MB) outside the trace
    mc_price(100.0, 0.0, const_contract, n_paths=4, n_steps=1, seed=1)
    tracemalloc.start()
    try:
        mc_price(100.0, 0.0, const_contract, n_paths=131_072, n_steps=256,
                 seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2 ** 20


def test_a_worker_failure_surfaces_after_every_thread_ends(const_contract,
                                                           monkeypatch):
    import movebar.oracles.montecarlo as mc_mod

    # 12,000 pairs in six chunks of one block: the calling thread prices
    # chunks 0, 2 and 4, and worker 1 fails on chunk 1
    caller = threading.current_thread()
    pair_means = mc_mod._pair_means

    def failing(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker failed")
        return pair_means(*args)

    monkeypatch.setattr(mc_mod, "_pair_means", failing)
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: 2)
    monkeypatch.setattr(mc_mod, "_CHUNK", _BLOCK)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        mc_price(100.0, 0.0, const_contract, n_paths=24_000, n_steps=8,
                 seed=3)
    assert threading.active_count() == before


@pytest.mark.parametrize("pool, started, own",
                         [(3, 2, [0, 3]), (1, 0, [0, 1, 2, 3])])
def test_the_caller_is_worker_zero(const_contract, monkeypatch, pool,
                                   started, own):
    # 50,000 pairs fill 25 blocks, four chunks of 7 with _CHUNK at 7 blocks:
    # the calling thread walks the first and, with three workers, the
    # fourth; each other worker is one new thread
    import movebar.oracles.montecarlo as mc_mod
    threads, walkers = [], {}
    walk = mc_mod._walk_chunk

    class Counted(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    def recorded(seed, lo, *args):
        walkers[lo] = threading.current_thread()
        return walk(seed, lo, *args)

    monkeypatch.setattr(mc_mod, "Thread", Counted)
    monkeypatch.setattr(mc_mod, "_walk_chunk", recorded)
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: pool)
    monkeypatch.setattr(mc_mod, "_CHUNK", 7 * _BLOCK)
    mc_price(100.0, 0.0, const_contract, n_paths=100_000, n_steps=4, seed=1)
    assert len(threads) == started
    caller = threading.current_thread()
    assert sorted(lo // (7 * _BLOCK) for lo, t in walkers.items()
                  if t is caller) == own


def test_effective_sample_size_flags_a_few_carrying_pairs(td_contract):
    # the knock-in call far above the barrier: one pair carries the price
    con = td_contract(0.0, style="down_and_in")
    est = mc_price(250.0, 0.0, con, n_paths=131_072, n_steps=256, seed=2003)
    assert est.ess < 2.0


def test_effective_sample_size_of_the_triangle_estimates():
    # the four simulation calls of the benchmark's triangle workload
    flat = mb.CurveSet.constant(0.05, 0.0, 0.2)
    two = mb.load_curves(FIX / "curves_two_piece.json")
    seeds = np.random.SeedSequence(0).generate_state(4, np.uint64)
    for (curves, C), seed in zip([(flat, -1.25), (two, -1.0), (two, 0.0),
                                  (two, 1.0)], seeds):
        bar = mb.barrier_from_terminal(90.0, C, curves, 1.0)
        con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                                 style="down_and_out", barrier=bar)
        est = mc_price(100.0, 0.0, con, n_paths=131_072, n_steps=256,
                       seed=int(seed))
        assert 20_000 < est.ess <= 65_536


def test_effective_sample_size_survives_payoffs_whose_squares_overflow(
        const_contract):
    # pair means near 1e154: their squares, summed, pass the float range
    est = mc_price(1e154, 0.0, const_contract, n_paths=1000, n_steps=4,
                   seed=1)
    assert 490.0 < est.ess <= 500.0


def test_effective_sample_size_is_zero_without_payoffs():
    # every pair mean of the put far above its strike is 0
    flat = mb.load_curves(FIX / "curves_flat.json")
    con = dataclasses.replace(mb.load_contract(FIX / "contract_levels_put.json",
                                               flat), style="down_and_out")
    est = mc_price(300.0, 0.0, con, n_paths=100_000, n_steps=64, seed=0)
    assert (est.price, est.std_error, est.ess) == (0.0, 0.0, 0.0)
