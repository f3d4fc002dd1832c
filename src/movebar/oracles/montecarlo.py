"""Simulation pricer with an exact between-step crossing correction.

Paths walk x = ln(S/h(t)), where the barrier sits still at x = 0 and r and q
cancel against its drift: a step adds -(C + 1/2) sigma^2 dt plus sigma
sqrt(dt) times a normal, with sigma read at the step midpoint (exact on the
breakpoint-aligned step grid), and the payoff reads S_T = h_T exp(x_T).
Each step multiplies a survival weight by 1 - exp(-2 x_a x_b / variance),
the probability that the bridge between its endpoints x_a and x_b stayed
above the barrier, so the estimator has no discretisation bias for this
barrier class.  The exponent is clamped to [_E_MIN, 0]: below _E_MIN that
factor is exactly 1.0 already, and numpy's exp is many times slower on the
large negative exponents of paths far from the barrier.

Paths come in antithetic pairs, one walking the normals +z and the other -z,
so a pair costs one set of normals.  The normals come from numpy's ziggurat
sampler on one seeded stream per block of _BLOCK pairs: block b reads
SFC64(SeedSequence(seed, spawn_key=(b,))), drawn row by row, so step i of
pair _BLOCK*b + j is that stream's normal number _BLOCK*i + j.  A pair's
normals thus depend only on (seed, pair), and its first k steps are the same
for every n_steps >= k.

The blocks are padded to chunks of one width, the fewest chunks of at most
_CHUNK pairs, which run on a thread pool with one thread per available
core.  They write their paths' terminal x and survival weights into
(2, blocks, _BLOCK) arrays shared by all chunks; the padding is dropped
before the reduction.  A worker draws _SLAB steps of its chunk's normals
into a block-major (blocks, steps, _BLOCK) slab, each block's stream
filling its own part in place, scales them by sigma sqrt(dt) in one
multiply, walks them and draws the next slab, so its memory does not grow
with n_steps.  No lock is taken: the draws are long calls that release the
interpreter lock, and a walk step is 9 numpy calls over a whole chunk row
of up to 32,768 paths, so two walks trade the interpreter lock far less
often than on short rows.
The estimate is reduced once at the end, its standard error from the pair
means, so it is bit-identical for a given (seed, n_paths, n_steps) whatever
the thread count or chunk size.  Each worker's buffers (at most about 2.5 MB:
the 2 MB slab, the other x and the crossing exponent) are allocated by the
calling thread and reused for every chunk: buffers allocated and freed on
the worker threads stay cached in the allocator's per-thread arenas, and
the peak memory then depends on which thread ran which chunk.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError, check_integers
from .heatkernel import to_heat_coords
from .pde import _time_grid

_BLOCK = 256  # pairs per seeded stream; fixes the estimate's bits
_CHUNK = 16384  # most pairs per task, whole blocks: 32,768 paths per numpy call
_SLAB = 16  # steps of normals drawn ahead of the walk: 2 MB per chunk
# floor of the crossing exponent: exp(e) < 2**-54 for e <= -37.5, so
# 1 - exp(e) is exactly 1.0 there and the clamp changes no weight
_E_MIN = -40.0


@dataclass(frozen=True)
class McEstimate:
    """Simulation estimate with its sampling error and knockout diagnostics.

    ess is the effective sample size of the pair means m_k,
    (sum m_k)^2 / sum m_k^2, and 0.0 when every pair mean is 0: near 1 when
    a few pairs carry the whole price."""

    price: float
    std_error: float
    n_paths: int
    n_steps: int
    knockout_fraction: float
    ess: float


def _block_streams(seed: int, lo: int, hi: int) -> list:
    """The normal streams of the blocks that hold pairs [lo, hi)."""
    return [np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(seed, spawn_key=(b,))))
            for b in range(lo // _BLOCK, -(-hi // _BLOCK))]


def _draw_slab(streams, z):
    """Fill z, a (blocks, rows, _BLOCK) array, with the streams' next rows of
    normals, block k's in z[k], and return it."""
    for stream, piece in zip(streams, z):
        stream.standard_normal(out=piece)
    return z


def _pool_size() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _walk_chunk(seed, lo, x, w, drift, sd, coef, buf):
    """Walk the antithetic pairs of the chunk whose first pair is lo, in
    x = ln(S/h(t)).

    ``x`` and ``w`` are (2, blocks, _BLOCK) arrays of start x and survival
    weight 1, the paths walking +z in row 0 and -z in row 1, and are left at
    their terminal values.  ``coef`` is -2 / variance per step.  ``buf``
    holds the worker's buffers in the chunk's shapes: a (blocks, _SLAB,
    _BLOCK) slab of normals, the other x and the crossing exponent.  Runs on
    worker threads, so it calls only numpy."""
    slab, x_b, e = buf
    x_a = x
    streams = _block_streams(seed, lo, lo + x.shape[1] * _BLOCK)
    for s0 in range(0, len(coef), _SLAB):
        # the last slab may be short: slices clamp to the steps left
        z = _draw_slab(streams, slab[:, :len(coef) - s0])
        np.multiply(z, sd[s0:s0 + _SLAB, None], out=z)
        for i, dz in enumerate(z.swapaxes(0, 1), s0):
            np.add(x_a, drift[i], out=x_b)
            np.add(x_b[0], dz, out=x_b[0])
            np.subtract(x_b[1], dz, out=x_b[1])
            # exponent >= 0 iff an endpoint is at/below the barrier: p = 1
            np.multiply(x_a, x_b, out=e)
            np.multiply(e, coef[i], out=e)
            np.clip(e, _E_MIN, 0.0, out=e)
            np.exp(e, out=e)
            np.subtract(1.0, e, out=e)
            np.multiply(w, e, out=w)
            x_a, x_b = x_b, x_a
    if x_a is not x:
        x[...] = x_a


def mc_price(S: float, t: float, contract: BarrierContract,
             n_paths: int = 100_000, n_steps: int = 64,
             seed: int = 0) -> McEstimate:
    """Survival-weighted Monte Carlo price of the contract.

    Knockout styles weight the payoff by the path's survival probability;
    knock-in styles by its complement.  Paths walk in antithetic pairs: n_paths
    must be even and at least 4, and std_error is that of the pair means.
    (S, t) must pass to_heat_coords' rule; at S = h(t) every path is knocked
    out at its first step.  Raises AccuracyError if the price or std_error
    is not finite.
    """
    check_integers(n_paths=n_paths, n_steps=n_steps, seed=seed)
    if n_paths < 4 or n_paths % 2:
        raise DomainError(f"n_paths must be even and at least 4, got {n_paths}")
    if n_steps < 1:
        raise DomainError(f"need n_steps >= 1, got {n_steps}")
    if not 0 <= int(seed) < 2 ** 64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    co = to_heat_coords(S, t, contract)

    times = _time_grid(t, contract.expiry, n_steps, contract)
    steps = len(times) - 1
    sig = np.array([contract.curves.sigma.value_at(0.5 * (a + b))
                    for a, b in zip(times[:-1], times[1:])])
    var = sig * sig * np.diff(times)
    drift = -co.a_T * var
    sd = np.sqrt(var)
    disc = math.exp(-co.rbar)

    pairs = n_paths // 2
    # pair _BLOCK * b + j is column j of block b, row 0 walking +z and row 1
    # -z; the blocks are padded to chunks of one width, at most _CHUNK
    # pairs, and the padding is dropped before the reduction
    blocks = -(-pairs // _BLOCK)
    chunks = -(-blocks // (_CHUNK // _BLOCK))
    width = -(-blocks // chunks)
    x = np.full((2, chunks * width, _BLOCK), co.x)
    w = np.ones(x.shape)
    starts = range(0, chunks * width, width)
    workers = min(_pool_size(), chunks)
    bufs = [(np.empty((width, _SLAB, _BLOCK)), np.empty((2, width, _BLOCK)),
             np.empty((2, width, _BLOCK))) for _ in range(workers)]
    coef = -2.0 / var

    def walk(k):
        # worker k walks every workers-th chunk with its own buffers
        for b in starts[k::workers]:
            _walk_chunk(int(seed), b * _BLOCK, x[:, b:b + width],
                        w[:, b:b + width], drift, sd, coef, bufs[k])

    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(walk, k) for k in range(workers)]:
            future.result()
    del bufs
    x, w = x.reshape(2, -1)[:, :pairs], w.reshape(2, -1)[:, :pairs]
    # a far spot can overflow the payoffs or their spread; that is reported
    # below as an AccuracyError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        s_T, K = contract.barrier.h_T * np.exp(x), contract.strike
        pay = np.maximum(s_T - K if contract.side == "call" else K - s_T, 0.0)
        weight = (1.0 - w) if contract.style == "down_and_in" else w
        pair_means = 0.5 * (disc * pay * weight).sum(axis=0)
        price = float(np.mean(pair_means))
        std_error = float(np.std(pair_means, ddof=1) / math.sqrt(pairs))
    for name, value in (("price", price), ("std_error", std_error)):
        if not math.isfinite(value):
            raise AccuracyError(f"simulation {name} is {value}: the payoffs "
                                f"leave the float range")
    # scaled by the largest pair mean, so the squares cannot overflow
    peak = float(np.max(np.abs(pair_means)))
    scaled = pair_means / (peak or 1.0)
    ess = float(np.sum(scaled) ** 2 / np.sum(scaled * scaled)) if peak else 0.0
    return McEstimate(price=price, std_error=std_error, n_paths=n_paths,
                      n_steps=steps, knockout_fraction=float(np.mean(1.0 - w)),
                      ess=ess)
