"""Simulation oracle: reproducibility, substreams, statistical agreement."""
import math
import sys
import threading
import types

import numpy as np
import pytest

import movebar as mb
from movebar import DomainError, mc_price
from movebar.oracles.montecarlo import _E_MIN, _chunk_normals


def test_bit_identical_for_same_seed(const_contract):
    a = mc_price(100.0, 0.0, const_contract, n_paths=5000, n_steps=16, seed=42)
    b = mc_price(100.0, 0.0, const_contract, n_paths=5000, n_steps=16, seed=42)
    assert a == b  # every field, exact float equality


def test_path_substreams_align_across_chunks():
    # pair p's normals depend only on (seed, p, n_steps), not on the batch
    joint = _chunk_normals(9, 0, np.empty((10, 7))).T
    tail = _chunk_normals(9, 3, np.empty((10, 4))).T
    assert np.array_equal(joint[3:], tail)


# float.hex of (price, std_error, knockout_fraction) on the two-piece curves
# with C = 0, recorded with antithetic pairs walking x = ln(S/h(t)).  3000
# paths leave the last chunk partial and 8194 a one-pair chunk.  The last three
# shapes have crossing exponents below -745 (exp underflows to 0), in the
# subnormal band [-745, -708] and exactly at 0 (an endpoint at or below the
# barrier).  Spot None is one part in 1e4 above h(0).
_PINNED = [
    ((100.0, "call", "down_and_out", 3000, 8, 3),
     ("0x1.0e066015f521ep+3", "0x1.e954e05eb229ep-3", "0x1.355285a837b86p-1")),
    ((100.0, "call", "down_and_out", 40_000, 256, 11),
     ("0x1.1c7ca6cec67b7p+3", "0x1.1ba722f2a3dd8p-4", "0x1.35deaa3fcc7dcp-1")),
    ((None, "call", "down_and_out", 8194, 256, 5),
     ("0x1.cd8f2d814cd2fp-8", "0x1.06dd976563a74p-10", "0x1.ffd65bb828794p-1")),
    ((250.0, "put", "down_and_in", 8194, 64, 17),
     ("0x1.80df2573a63b7p-10", "0x1.80df2573a63b7p-10", "0x1.ffe001ffe0020p-14")),
    ((None, "put", "down_and_in", 3000, 8, 3),
     ("0x1.c2c03a0575fa2p+3", "0x1.61f820508e496p-4", "0x1.ffd9d2a1890d8p-1")),
]


@pytest.mark.parametrize("shape,bits", _PINNED)
def test_estimate_keeps_its_bits(td_contract, shape, bits):
    spot, side, style, n_paths, n_steps, seed = shape
    con = td_contract(0.0, side=side, style=style)
    S = con.barrier.level(0.0) * (1.0 + 1e-4) if spot is None else spot
    est = mc_price(S, 0.0, con, n_paths=n_paths, n_steps=n_steps, seed=seed)
    assert (est.price.hex(), est.std_error.hex(),
            est.knockout_fraction.hex()) == bits


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
    base = mc_price(100.0, 0.0, const_contract, n_paths=3000, n_steps=8, seed=3)
    # _CHUNK counts pairs; 333 paths would split a pair
    for chunk in (700, 333):
        monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
        rechunked = mc_price(100.0, 0.0, const_contract, n_paths=3000,
                             n_steps=8, seed=3)
        assert base == rechunked


def test_thread_count_does_not_change_the_estimate(const_contract, monkeypatch):
    import movebar.oracles.montecarlo as mc_mod
    base = mc_price(100.0, 0.0, const_contract, n_paths=3000, n_steps=8, seed=3)
    estimates = []
    chunks = (mc_mod._CHUNK, 700, 333)
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc_mod, "_pool_size", lambda: workers)
        for chunk in chunks:
            monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
            estimates.append(mc_price(100.0, 0.0, const_contract, n_paths=3000,
                                      n_steps=8, seed=3))
    assert all(est == base for est in estimates)


def test_chunk_walks_take_turns(const_contract, monkeypatch):
    # a stand-in for the walk lock records each walk section; the sections
    # of different chunks must never overlap, and no worker may draw its
    # normals while it holds the lock
    import movebar.oracles.montecarlo as mc_mod
    events = []

    class RecordingLock:
        def __init__(self):
            self._lock = threading.Lock()
            self.owner = None

        def __enter__(self):
            self._lock.acquire()
            self.owner = threading.get_ident()
            events.append(("start", self.owner))

        def __exit__(self, *exc):
            events.append(("end", self.owner))
            self.owner = None
            self._lock.release()

    lock = RecordingLock()
    draw = mc_mod._chunk_normals

    def recording_draw(*args):
        me = threading.get_ident()
        events.append(("draw", me, lock.owner == me))
        return draw(*args)

    monkeypatch.setattr(mc_mod, "threading",
                        types.SimpleNamespace(Lock=lambda: lock))
    monkeypatch.setattr(mc_mod, "_chunk_normals", recording_draw)
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: 3)
    monkeypatch.setattr(mc_mod, "_CHUNK", 333)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        mc_price(100.0, 0.0, const_contract, n_paths=3000, n_steps=8, seed=3)
    finally:
        sys.setswitchinterval(interval)
    sections = [e for e in events if e[0] != "draw"]
    # 1500 pairs make five chunks of at most 333: five sections in turn
    assert [e[0] for e in sections] == ["start", "end"] * 5
    assert all(a[1] == b[1] for a, b in zip(sections[::2], sections[1::2]))
    draws = [e for e in events if e[0] == "draw"]
    assert len(draws) == 5 and not any(held for _, _, held in draws)
