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
from movebar.oracles.montecarlo import (_BLOCK, _E_MIN, _block_streams,
                                        _draw_slab)

FIX = Path(__file__).resolve().parents[1] / "fixtures"


def _normals(seed, lo, z, slab=None):
    """Fill z, a (steps, pairs) array, with the normals of pairs
    [lo, lo + pairs), drawn slab rows at a time (all at once if None) into
    block-major slabs of the whole blocks that hold them."""
    steps, m = z.shape
    slab = slab or steps
    streams = _block_streams(seed, lo, lo + m)
    first = lo // _BLOCK * _BLOCK
    for s0 in range(0, steps, slab):
        rows = min(slab, steps - s0)
        drawn = _draw_slab(streams, np.empty((len(streams), rows, _BLOCK)))
        z[s0:s0 + rows] = np.hstack(drawn)[:, lo - first:lo - first + m]
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
    # step i of pair 256 b + j is normal number 256 i + j of block b's
    # stream, drawn the same in slabs of any height; pairs 200-899 span
    # four blocks, the first and last in part
    whole = _normals(5, 200, np.empty((37, 700)))
    for slab in (1, 5, 16):
        assert np.array_equal(_normals(5, 200, np.empty((37, 700)), slab),
                              whole)
    for b in range(4):
        stream = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(5, spawn_key=(b,))))
        rows = stream.standard_normal((37, _BLOCK))
        lo, hi = max(200, _BLOCK * b), min(900, _BLOCK * (b + 1))
        assert np.array_equal(whole[:, lo - 200:hi - 200],
                              rows[:, lo - _BLOCK * b:hi - _BLOCK * b])


def test_first_steps_do_not_depend_on_the_step_count():
    long = _normals(5, 200, np.empty((37, 700)), 16)
    short = _normals(5, 200, np.empty((10, 700)), 16)
    assert np.array_equal(long[:10], short)


# float.hex of (price, std_error, knockout_fraction) on the two-piece curves
# with C = 0, recorded with antithetic pairs walking x = ln(S/h(t)) on the
# ziggurat normals of one SFC64 stream per block of 256 pairs: step i of pair
# 256 b + j is normal number 256 i + j of SeedSequence(seed, spawn_key=(b,)).
# 3000 paths leave the last block partial and 8194 a one-pair
# block.  The last three shapes have crossing exponents below -745 (exp
# underflows to 0), in the subnormal band [-745, -708] and exactly at 0 (an
# endpoint at or below the barrier).  Spot None is one part in 1e4 above
# h(0).
_PINNED = [
    ((100.0, "call", "down_and_out", 3000, 8, 3),
     ("0x1.2464e3baf9255p+3", "0x1.0082463c58fd9p-2", "0x1.34c1810bfe922p-1")),
    ((100.0, "call", "down_and_out", 40_000, 256, 11),
     ("0x1.1f67868724d38p+3", "0x1.1e82dbb4f41abp-4", "0x1.355ded6a1e62fp-1")),
    ((None, "call", "down_and_out", 8194, 256, 5),
     ("0x1.044b17c5eb967p-7", "0x1.2a5ce1d554661p-10", "0x1.ffd3306c51f84p-1")),
    ((250.0, "put", "down_and_in", 8194, 64, 17),
     ("0x0.0p+0", "0x0.0p+0", "0x1.ffe001ffe0020p-64")),
    ((None, "put", "down_and_in", 3000, 8, 3),
     ("0x1.c9db308dc7bd8p+3", "0x1.745e65f5f9c52p-4", "0x1.ffd493d65157cp-1")),
]


@pytest.mark.parametrize("shape,bits", _PINNED)
def test_estimate_keeps_its_bits(td_contract, shape, bits):
    spot, side, style, n_paths, n_steps, seed = shape
    con = td_contract(0.0, side=side, style=style)
    S = con.barrier.level(0.0) * (1.0 + 1e-4) if spot is None else spot
    est = mc_price(S, 0.0, con, n_paths=n_paths, n_steps=n_steps, seed=seed)
    assert (est.price.hex(), est.std_error.hex(),
            est.knockout_fraction.hex()) == bits


# float.hex of (price, std_error, knockout_fraction, ess) on the two-piece
# curves with C = 0 at S 100, recorded while the payoffs were formed over
# the whole (2, pairs) array after the walk.  50,001 pairs fill four chunks
# of 49 blocks and 125,001 pairs eight of 62, the last block of each padded.
# The ess of the second takes its last bit from numpy's SIMD kernels: the
# first value is with AVX-512, the second without.
_PINNED_MULTI_CHUNK = [
    (("put", "down_and_in", 100_002, 8, 23),
     ("0x1.ecb64d36a5cfdp+2", "0x1.9540c9d51fe64p-6", "0x1.36084593d7118p-1",
      ("0x1.01a6df396369cp+15",))),
    (("call", "down_and_out", 250_002, 5, 29),
     ("0x1.1cedf12842fc0p+3", "0x1.babf1c97c704bp-6", "0x1.369a1ddc92719p-1",
      ("0x1.c5ef451168802p+15", "0x1.c5ef451168803p+15"))),
]


@pytest.mark.parametrize("shape,bits", _PINNED_MULTI_CHUNK)
def test_multi_chunk_estimate_keeps_its_bits(td_contract, shape, bits):
    side, style, n_paths, n_steps, seed = shape
    est = mc_price(100.0, 0.0, td_contract(0.0, side=side, style=style),
                   n_paths=n_paths, n_steps=n_steps, seed=seed)
    assert (est.price.hex(), est.std_error.hex(),
            est.knockout_fraction.hex()) == bits[:3]
    assert est.ess.hex() in bits[3]


# float.hex of (price, std_error, knockout_fraction, ess) on the two-piece
# curves with C = 0 at S 100, recorded with 16-step slabs of normals.  The
# curve switch at 0.5 adds a step, so n_steps 7, 9, 17 and 33 walk 8, 10,
# 18 and 34 steps: a whole slab of 8, and short slabs past one, two and four
# whole slabs.  1501 and 2501 pairs leave the last block partial.  Where
# numpy's SIMD kernels set last bits, the second record is without AVX-512.
_PINNED_SLAB_EDGES = [
    (("call", "down_and_out", 3002, 7, 31),
     (("0x1.1259d221771d1p+3", "0x1.eb9d703f0662cp-3",
       "0x1.379b519c02e2bp-1", "0x1.58ea571524f50p+9"),)),
    (("call", "down_and_out", 3002, 9, 31),
     (("0x1.17c54f1b317dfp+3", "0x1.eed63ae052419p-3",
       "0x1.38260f5ced075p-1", "0x1.5dc728c3e0ef8p+9"),)),
    (("call", "down_and_out", 3002, 17, 31),
     (("0x1.2549cbd610557p+3", "0x1.08ad3b6b35af0p-2",
       "0x1.36c1a81145fe7p-1", "0x1.563a73421a284p+9"),
      ("0x1.2549cbd610558p+3", "0x1.08ad3b6b35af0p-2",
       "0x1.36c1a81145fe7p-1", "0x1.563a73421a285p+9"))),
    (("call", "down_and_out", 3002, 33, 31),
     (("0x1.1e6e88ab559a0p+3", "0x1.f8a1ced7fa47ap-3",
       "0x1.2f93ce5e12c54p-1", "0x1.5f3ee5859ed2bp+9"),
      ("0x1.1e6e88ab559a0p+3", "0x1.f8a1ced7fa47ap-3",
       "0x1.2f93ce5e12c54p-1", "0x1.5f3ee5859ed2ap+9"))),
    (("put", "down_and_in", 5002, 7, 37),
     (("0x1.de9f0b9781f2bp+2", "0x1.c462a9b5055f6p-4",
       "0x1.363feea3c4a5ep-1", "0x1.949f0e2c3d38bp+10"),
      ("0x1.de9f0b9781f2bp+2", "0x1.c462a9b5055f6p-4",
       "0x1.363feea3c4a5ep-1", "0x1.949f0e2c3d38cp+10"))),
    (("put", "down_and_in", 5002, 9, 37),
     (("0x1.eb3f497f1c975p+2", "0x1.c087bc6cde0b9p-4",
       "0x1.34c6915fcef2ep-1", "0x1.9e659fd891641p+10"),
      ("0x1.eb3f497f1c973p+2", "0x1.c087bc6cde0b9p-4",
       "0x1.34c6915fcef2ep-1", "0x1.9e659fd891641p+10"))),
    (("put", "down_and_in", 5002, 17, 37),
     (("0x1.e61e9147b4172p+2", "0x1.c8cdbb46577a3p-4",
       "0x1.3593bf7a71d4fp-1", "0x1.96482d274c2cep+10"),
      ("0x1.e61e9147b4170p+2", "0x1.c8cdbb46577a3p-4",
       "0x1.3593bf7a71d4fp-1", "0x1.96482d274c2cep+10"))),
    (("put", "down_and_in", 5002, 33, 37),
     (("0x1.f1c4ba8aab558p+2", "0x1.c90e75676e537p-4",
       "0x1.33be5babd88b8p-1", "0x1.9cd119c430cadp+10"),
      ("0x1.f1c4ba8aab558p+2", "0x1.c90e75676e537p-4",
       "0x1.33be5babd88b8p-1", "0x1.9cd119c430cb0p+10"))),
]


@pytest.mark.parametrize("shape,records", _PINNED_SLAB_EDGES)
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
    # 1,500 pairs end 220 pairs into their sixth block
    base = mc_price(100.0, 0.0, const_contract, n_paths=3000, n_steps=8, seed=3)
    # _CHUNK counts pairs in whole blocks of _BLOCK
    for chunk in (3 * _BLOCK, _BLOCK):
        monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
        rechunked = mc_price(100.0, 0.0, const_contract, n_paths=3000,
                             n_steps=8, seed=3)
        assert base == rechunked


def test_thread_count_does_not_change_the_estimate(const_contract, monkeypatch):
    import movebar.oracles.montecarlo as mc_mod
    base = mc_price(100.0, 0.0, const_contract, n_paths=3000, n_steps=8, seed=3)
    estimates = []
    chunks = (mc_mod._CHUNK, 3 * _BLOCK, _BLOCK)
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc_mod, "_pool_size", lambda: workers)
        for chunk in chunks:
            monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
            estimates.append(mc_price(100.0, 0.0, const_contract, n_paths=3000,
                                      n_steps=8, seed=3))
    assert all(est == base for est in estimates)
    # three unlocked walks, switching threads as often as possible
    monkeypatch.setattr(mc_mod, "_pool_size", lambda: 3)
    monkeypatch.setattr(mc_mod, "_CHUNK", _BLOCK)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = mc_price(100.0, 0.0, const_contract, n_paths=3000, n_steps=8,
                       seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert est == base


def test_chunks_are_of_one_width(const_contract, monkeypatch):
    # 50,000 pairs fill 196 blocks: four chunks of 49, none partial
    import movebar.oracles.montecarlo as mc_mod
    widths = []
    walk = mc_mod._walk_chunk

    def recorded(seed, lo, x, *args):
        widths.append(x[0].size // _BLOCK)
        return walk(seed, lo, x, *args)

    monkeypatch.setattr(mc_mod, "_walk_chunk", recorded)
    mc_price(100.0, 0.0, const_contract, n_paths=100_000, n_steps=4, seed=1)
    assert widths == [49] * 4


def test_memory_does_not_grow_with_the_step_count(const_contract):
    # each worker holds one slab of normals, not its chunk's whole walk
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
    # knockout fraction's 1 - w; each worker's buffers (1.5 MB) do not grow
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
    # 131,072 x 256 is four chunks of 64 blocks: w (1 MB), the pair means
    # (0.5 MB) and the knockout fraction's 1 - w (1 MB), plus two workers'
    # 1 MB slab and two 256 kB x buffers each
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
    assert peak <= 5.5 * 2 ** 20


def test_a_worker_failure_surfaces_after_every_thread_ends(const_contract,
                                                           monkeypatch):
    import movebar.oracles.montecarlo as mc_mod

    # six chunks of one block: the calling thread prices chunks 0, 2 and 4,
    # and worker 1 fails on chunk 1
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
        mc_price(100.0, 0.0, const_contract, n_paths=3000, n_steps=8, seed=3)
    assert threading.active_count() == before


@pytest.mark.parametrize("pool, started, own",
                         [(3, 2, [0, 3]), (1, 0, [0, 1, 2, 3])])
def test_the_caller_is_worker_zero(const_contract, monkeypatch, pool,
                                   started, own):
    # 50,000 pairs fill four chunks: the calling thread walks the first and,
    # with three workers, the fourth; each other worker is one new thread
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
    mc_price(100.0, 0.0, const_contract, n_paths=100_000, n_steps=4, seed=1)
    assert len(threads) == started
    caller = threading.current_thread()
    assert sorted(lo // (49 * _BLOCK) for lo, t in walkers.items()
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
