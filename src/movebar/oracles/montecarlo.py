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

The blocks are padded to chunks of one width: as many chunks as workers,
or the fewest of at most _CHUNK pairs if that is more.  They run on one
worker per available core: the calling thread is worker 0 and plain
threads run the others.  A worker walks a chunk's x in its own buffers and
writes only the chunk's survival weights and pair means into arrays shared
by all chunks: w, (2, blocks, _BLOCK), and the pair means, (blocks,
_BLOCK), 12 B per path.  For each step a worker draws one row of normals,
each block's stream filling its own part of a contiguous (blocks, _BLOCK)
row, scales it by sigma sqrt(dt) and walks it, so its memory does not grow
with n_steps.
Once the chunk is walked, the worker turns its terminal x in place into
discounted, weighted payoffs and sums each pair's two, so no whole-array
payoff is ever formed.  No lock is taken: each draw is 2,048 normals
drawn without the interpreter lock, and a walk step is 9 numpy calls over
a whole chunk row of up to 65,536 paths, so two walks trade the
interpreter lock far less often than on short rows.
The pair means and the knockout fraction are reduced once at the end, with
the padding dropped, and the standard error comes from the pair means, so
the estimate is bit-identical for a given (seed, n_paths, n_steps) whatever
the thread count or chunk size.  Each worker's buffers (at most about
1.25 MB: two 512 kB x and a 256 kB row of normals) are allocated by the
calling thread and reused for every chunk: buffers allocated and freed on
the worker threads stay cached in the allocator's per-thread arenas, and
the peak memory then depends on which thread ran which chunk.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from threading import Thread

import numpy as np

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError, check_integers
from ..vanilla import _discount
from .heatkernel import to_heat_coords
from .pde import _time_grid

_BLOCK = 2048  # pairs per seeded stream; fixes the estimate's bits
_CHUNK = 32768  # most pairs per task, whole blocks: 65,536 paths per numpy call
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


def _pool_size() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _walk_chunk(seed, lo, x, w, drift, sd, coef, buf):
    """Walk the antithetic pairs of the chunk whose first pair is lo, in
    x = ln(S/h(t)), and return (terminal x, the other x buffer).

    ``x`` and ``w`` are (2, blocks, _BLOCK) arrays of start x and survival
    weight 1, the paths walking +z in row 0 and -z in row 1; w is left at
    the terminal weights.  ``coef`` is -2 / variance per step.  ``buf``
    holds the worker's other buffers in the chunk's shapes: a (blocks,
    _BLOCK) row of normals and the other x.  Each step draws one row, block
    k's stream filling row k, writes the new x into the other x and forms
    the crossing exponent in place of the old one.  Runs on worker threads,
    so it calls only numpy."""
    z, x_b = buf
    x_a = x
    streams = _block_streams(seed, lo, lo + x.shape[1] * _BLOCK)
    for i in range(len(coef)):
        for stream, row in zip(streams, z):
            stream.standard_normal(out=row)
        np.multiply(z, sd[i], out=z)
        np.add(x_a, drift[i], out=x_b)
        np.add(x_b[0], z, out=x_b[0])
        np.subtract(x_b[1], z, out=x_b[1])
        # exponent >= 0 iff an endpoint is at/below the barrier: p = 1
        e = np.multiply(x_a, x_b, out=x_a)
        np.multiply(e, coef[i], out=e)
        np.clip(e, _E_MIN, 0.0, out=e)
        np.exp(e, out=e)
        np.subtract(1.0, e, out=e)
        np.multiply(w, e, out=w)
        x_a, x_b = x_b, x_a
    return x_a, x_b


def _pair_means(x, w, out, contract, disc, spare):
    """Turn x, the terminal x of a chunk's pairs, in place into their
    discounted, weighted payoffs and write the pair means to ``out``.

    ``w`` holds the pairs' survival weights and ``spare`` is a buffer of
    x's shape, the walk's other x; both as in _walk_chunk.  Runs on worker
    threads."""
    # a far spot can overflow the payoffs; mc_price reports that as an
    # AccuracyError, not as a warning (errstate is per thread)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(x, out=x)
        np.multiply(contract.barrier.h_T, x, out=x)
        if contract.side == "call":
            np.subtract(x, contract.strike, out=x)
        else:
            np.subtract(contract.strike, x, out=x)
        np.maximum(x, 0.0, out=x)
        np.multiply(disc, x, out=x)
        if contract.style == "down_and_in":
            w = np.subtract(1.0, w, out=spare)
        np.multiply(x, w, out=x)
        np.add(x[0], x[1], out=out)
        np.multiply(0.5, out, out=out)


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
    disc = _discount("rbar", co.rbar)
    with np.errstate(divide="ignore", over="ignore"):
        coef = -2.0 / var
    if not np.isfinite(coef).all():
        raise AccuracyError(f"step variance {var.min():.3g} is too small: "
                            f"-2/variance leaves the float range")

    pairs = n_paths // 2
    # pair _BLOCK * b + j is column j of block b, row 0 walking +z and row 1
    # -z; the blocks are padded to chunks of one width, one per worker or
    # at most _CHUNK pairs each, and the padding is dropped before the final
    # reduction
    blocks = -(-pairs // _BLOCK)
    pool = _pool_size()
    width = -(-blocks // max(pool, -(-blocks // (_CHUNK // _BLOCK))))
    chunks = -(-blocks // width)
    w = np.ones((2, chunks * width, _BLOCK))
    means = np.empty((chunks * width, _BLOCK))
    starts = range(0, chunks * width, width)
    workers = min(pool, chunks)
    bufs = [(np.empty((2, width, _BLOCK)), np.empty((width, _BLOCK)),
             np.empty((2, width, _BLOCK)))
            for _ in range(workers)]
    errors = []

    def price_chunks(k):
        # worker k walks and prices every workers-th chunk with its own
        # buffers; the walk may leave the terminal x in either x buffer
        x, *buf = bufs[k]
        try:
            for b in starts[k::workers]:
                chunk_w = w[:, b:b + width]
                x.fill(co.x)
                x_T, spare = _walk_chunk(int(seed), b * _BLOCK, x, chunk_w,
                                         drift, sd, coef, buf)
                _pair_means(x_T, chunk_w, means[b:b + width], contract, disc,
                            spare)
        except BaseException as exc:  # raised once every worker has ended
            errors.append(exc)

    # the calling thread is worker 0
    threads = [Thread(target=price_chunks, args=(k,))
               for k in range(1, workers)]
    for thread in threads:
        thread.start()
    price_chunks(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    del bufs
    # the padding is dropped here; w is freed before the pair means are
    # reduced, so 1 - w and their temporaries are never held together
    knockout_fraction = float(np.mean(1.0 - w.reshape(2, -1)[:, :pairs]))
    del w
    pair_means = means.reshape(-1)[:pairs]
    # a far spot can overflow the spread of the pair means; that is reported
    # below as an AccuracyError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
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
                      n_steps=steps, knockout_fraction=knockout_fraction,
                      ess=ess)
