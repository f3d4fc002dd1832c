"""Simulation pricer with an exact between-step crossing correction.

Log-spot increments use the exact per-step moments of the piecewise-constant
curves (the step grid is refined to hit every breakpoint), and each step
multiplies a survival weight by the probability that the bridge between the
step's endpoints stayed above the barrier.  In the barrier-fixed coordinate
the barrier is flat and the bridge crossing probability is the classical
exp(-2 x0 x1 / variance), so the weighted estimator has no discretisation
bias for this barrier class.  The exponent is clamped to [_E_MIN, 0]: below
_E_MIN the factor 1 - exp(.) is exactly 1.0 already, and numpy's exp is many
times slower on the large negative exponents of paths far from the barrier.

Randomness comes from counter-mode Philox keyed by the seed: path p consumes
the counter blocks starting at p * ceil(n_steps/4), so chunks of paths are
independent.  They run on a thread pool with one thread per available core
(numpy, ndtri and Philox release the interpreter lock).  Each chunk writes
its paths' terminal log-spots and survival weights into arrays shared by all
chunks, and the estimate is reduced from them once at the end.  Estimates are
therefore bit-identical for a given (seed, n_paths, n_steps) whatever the
thread count or chunk size.  Working memory is bounded by the chunk size:
each worker holds the normals of one chunk, 8 bytes per path-step, plus one
tile of raw words (about 17 MB for 8192 paths x 256 steps), and the
reduction a few floats per path.  The workers' normals buffers are one block
allocated by the calling thread and reused for every chunk: buffers
allocated and freed on the worker threads stay cached in the allocator's
per-thread arenas, and the peak memory then depends on which thread ran
which chunk.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError
from .pde import _time_grid

_CHUNK = 8192
# paths per draw of raw Philox words; 256 x 256 steps is 512 KB
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


def _chunk_normals(seed: int, path_lo: int, z: np.ndarray) -> np.ndarray:
    """Fill z, a C-contiguous (steps, paths) array, with the standard normals
    of paths [path_lo, path_lo + paths) and return it.

    Each path owns ceil(steps/4) whole 4x64-bit counter blocks; uniforms
    take the top 53 bits, centred, and go through the inverse normal CDF.
    The raw words are drawn and transposed one tile of _TILE paths at a
    time, so the transpose stays in cache.  Row i holds step i of every
    path, so a walk over steps reads contiguous rows.
    """
    n_steps, n_paths = z.shape
    words = (n_steps + 3) // 4 * 4
    bg = np.random.Philox(key=seed)
    if path_lo:
        bg.advance(path_lo * words // 4)
    for p0 in range(0, n_paths, _TILE):
        p1 = min(p0 + _TILE, n_paths)
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


def _walk_chunk(seed, lo, x, w, x0, drift, sd, var, log_level, buf):
    """Walk paths [lo, lo + len(x)) from log-spot x0.

    Leaves each path's terminal log-spot in ``x`` and its survival weight in
    ``w``.  The paths' normals go into the head of ``buf``, a 1-D float
    array of at least len(x) * len(var), viewed as (steps, paths).  Runs on
    worker threads, so it calls only numpy and scipy.
    """
    steps = len(var)
    z = _chunk_normals(seed, lo, buf[:steps * len(x)].reshape(steps, len(x)))
    x.fill(x0)
    w.fill(1.0)
    rel0 = x - log_level[0]
    rel1 = np.empty_like(x)
    expo = np.empty_like(x)
    for i in range(steps):
        # same roundings as x_next = x + drift + sd*z and
        # expo = -2*rel0*rel1/var written as single expressions
        np.multiply(sd[i], z[i], out=expo)
        np.add(x, drift[i], out=x)
        np.add(x, expo, out=x)
        np.subtract(x, log_level[i + 1], out=rel1)
        # exponent >= 0 iff an endpoint is at/below the barrier: p = 1
        np.multiply(-2.0, rel0, out=expo)
        np.multiply(expo, rel1, out=expo)
        np.divide(expo, var[i], out=expo)
        np.clip(expo, _E_MIN, 0.0, out=expo)
        np.exp(expo, out=expo)
        np.subtract(1.0, expo, out=expo)
        np.multiply(w, expo, out=w)
        rel0, rel1 = rel1, rel0


def mc_price(S: float, t: float, contract: BarrierContract,
             n_paths: int = 100_000, n_steps: int = 64,
             seed: int = 0) -> McEstimate:
    """Survival-weighted Monte Carlo price of the contract.

    Knockout styles weight the payoff by the path's survival probability;
    knock-in styles by its complement.  std_error is the usual sample
    standard error of the per-path discounted values.  Raises AccuracyError
    if the price or std_error is not finite.
    """
    for name, value in (("n_paths", n_paths), ("n_steps", n_steps),
                        ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if n_paths < 2 or n_steps < 1:
        raise DomainError(f"need n_paths >= 2 and n_steps >= 1, "
                          f"got {n_paths}, {n_steps}")
    if not 0 <= int(seed) < 2 ** 64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if t >= contract.expiry:
        raise DomainError(f"simulation requires t < T, got t={t}, T={contract.expiry}")
    lev, _, (rbar, _, _) = contract.locate(S, t)
    if S <= lev:
        raise DomainError(f"S={S} at or below barrier level {lev}")

    cs = contract.curves
    T = contract.expiry
    times = _time_grid(t, T, n_steps, contract)
    steps = len(times) - 1
    drift = np.empty(steps)
    var = np.empty(steps)
    for i, (a, b) in enumerate(zip(times[:-1], times[1:])):
        r, q, var[i] = cs.bars(a, b)
        drift[i] = r - q - 0.5 * var[i]
    sd = np.sqrt(var)
    log_level = np.array([math.log(contract.barrier.level(u)) for u in times])
    disc = math.exp(-rbar)
    K = contract.strike
    is_call = contract.side == "call"
    knock_in = contract.style == "down_and_in"

    x0 = math.log(S)
    x = np.empty(n_paths)
    w = np.empty(n_paths)
    los = range(0, n_paths, _CHUNK)
    workers = min(_pool_size(), len(los))
    normals = np.empty((workers, min(_CHUNK, n_paths) * steps))

    def walk(k):
        # worker k walks every workers-th chunk with its own normals buffer
        for lo in los[k::workers]:
            _walk_chunk(int(seed), lo, x[lo:lo + _CHUNK], w[lo:lo + _CHUNK],
                        x0, drift, sd, var, log_level, normals[k])

    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(walk, k) for k in range(workers)]:
            future.result()
    del normals
    # a far spot can overflow the payoffs or their spread; that is reported
    # below as an AccuracyError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        s_T = np.exp(x)
        pay = np.maximum(s_T - K, 0.0) if is_call else np.maximum(K - s_T, 0.0)
        weight = (1.0 - w) if knock_in else w
        values = disc * pay * weight
        price = float(np.mean(values))
        std_error = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    for name, value in (("price", price), ("std_error", std_error)):
        if not math.isfinite(value):
            raise AccuracyError(f"simulation {name} is {value}: the payoffs "
                                f"leave the float range")
    return McEstimate(price=price, std_error=std_error, n_paths=n_paths,
                      n_steps=steps, knockout_fraction=float(np.mean(1.0 - w)))
