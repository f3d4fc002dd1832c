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
so a pair costs one set of normals.  Randomness comes from counter-mode
Philox keyed by the seed: pair k consumes the counter blocks starting at
k * ceil(n_steps/4), so chunks of pairs are independent.  The chunks run on
a thread pool with one thread per available core and write their paths'
terminal x and survival weights into arrays shared by all chunks.  Drawing
a chunk's normals is a few long Philox and ndtri calls that release the
interpreter lock, so the draws run in parallel.  The walk is 11 short numpy
calls per step (a few microseconds each on 8192 paths), each of which drops
and retakes the interpreter lock, so two walks at once trade it on every
call and run slower than one; the walks therefore take turns under one
lock per mc_price call, while the other workers draw their next normals.
Were the walk ever a few long calls, the lock could go.  The estimate is
reduced from them once at the end, its standard error from the pair means,
so it is
bit-identical for a given (seed, n_paths, n_steps) whatever the thread count
or chunk size.  Each worker holds the normals of one chunk, 8 bytes per
pair-step, plus one tile of raw words (about 9 MB for 4096 pairs x 256
steps), in one block allocated by the calling thread and reused for every
chunk: buffers allocated and freed on the worker threads stay cached in the
allocator's per-thread arenas, and the peak memory then depends on which
thread ran which chunk.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError, check_integers
from .heatkernel import to_heat_coords
from .pde import _time_grid

_CHUNK = 4096  # pairs, so 8192 paths
# pairs per draw of raw Philox words; 256 x 256 steps is 512 KB
_TILE = 256
_U64_SCALE = 2.0 ** -53
# floor of the crossing exponent: exp(e) < 2**-54 for e <= -37.5, so
# 1 - exp(e) is exactly 1.0 there and the clamp changes no weight
_E_MIN = -40.0


@dataclass(frozen=True)
class McEstimate:
    """Simulation estimate with its sampling error and knockout diagnostics."""

    price: float
    std_error: float
    n_paths: int
    n_steps: int
    knockout_fraction: float


def _chunk_normals(seed: int, pair_lo: int, z: np.ndarray) -> np.ndarray:
    """Fill z, a C-contiguous (steps, pairs) array, with the standard normals
    of pairs [pair_lo, pair_lo + pairs) and return it.

    Each pair owns ceil(steps/4) whole 4x64-bit counter blocks; uniforms
    take the top 53 bits, centred, and go through the inverse normal CDF.
    The raw words are drawn and transposed one tile of _TILE pairs at a
    time, so the transpose stays in cache.  Row i holds step i of every
    pair, so a walk over steps reads contiguous rows.
    """
    n_steps, n_pairs = z.shape
    words = (n_steps + 3) // 4 * 4
    bg = np.random.Philox(key=seed)
    bg.advance(pair_lo * words // 4)
    for p0 in range(0, n_pairs, _TILE):
        p1 = min(p0 + _TILE, n_pairs)
        raw = bg.random_raw((p1 - p0) * words).reshape(p1 - p0, words)
        raw >>= np.uint64(11)
        np.add(raw[:, :n_steps].T, 0.5, out=z[:, p0:p1])
    np.multiply(z, _U64_SCALE, out=z)
    ndtri(z, out=z)
    return z


def _pool_size() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _walk_chunk(seed, lo, x, w, drift, sd, var, buf, lock):
    """Walk the antithetic pairs [lo, lo + m) in x = ln(S/h(t)).

    ``x`` and ``w`` are (2, m) blocks of start x and survival weight 1, the
    paths walking +z in row 0 and -z in row 1, and are left at their terminal
    values.  The normals go into the head of ``buf``, a 1-D float array of at
    least m * len(var), viewed as (steps, pairs).  Runs on worker threads, so
    it calls only numpy and scipy; the normals are drawn outside ``lock`` and
    the step loop runs under it."""
    steps, m = len(var), x.shape[1]
    z = _chunk_normals(seed, lo, buf[:steps * m].reshape(steps, m))
    start = np.empty(x.shape)  # -2 x at the step's start
    expo = np.empty(x.shape)
    with lock:
        for i in range(steps):
            # same roundings as x_next = x + drift + sd*(+-z) and
            # expo = -2*x*x_next/var written as single expressions
            np.multiply(-2.0, x, out=start)
            np.multiply(sd[i], z[i], out=expo[0])
            np.negative(expo[0], out=expo[1])
            np.add(x, drift[i], out=x)
            np.add(x, expo, out=x)
            # exponent >= 0 iff an endpoint is at/below the barrier: p = 1
            np.multiply(start, x, out=expo)
            np.divide(expo, var[i], out=expo)
            np.clip(expo, _E_MIN, 0.0, out=expo)
            np.exp(expo, out=expo)
            np.subtract(1.0, expo, out=expo)
            np.multiply(w, expo, out=w)


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
    x = np.full((2, pairs), co.x)  # column k is pair k: row 0 walks +z, row 1 -z
    w = np.ones((2, pairs))
    los = range(0, pairs, _CHUNK)
    workers = min(_pool_size(), len(los))
    normals = np.empty((workers, min(_CHUNK, pairs) * steps))
    lock = threading.Lock()  # one walk at a time; see the module docstring

    def walk(k):
        # worker k walks every workers-th chunk with its own normals buffer
        for lo in los[k::workers]:
            _walk_chunk(int(seed), lo, x[:, lo:lo + _CHUNK],
                        w[:, lo:lo + _CHUNK], drift, sd, var, normals[k], lock)

    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(walk, k) for k in range(workers)]:
            future.result()
    del normals
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
    return McEstimate(price=price, std_error=std_error, n_paths=n_paths,
                      n_steps=steps, knockout_fraction=float(np.mean(1.0 - w)))
