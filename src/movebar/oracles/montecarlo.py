"""Simulation pricer with an exact between-step crossing correction.

Log-spot increments use the exact per-step moments of the piecewise-constant
curves (the step grid is refined to hit every breakpoint), and each step
multiplies a survival weight by the probability that the bridge between the
step's endpoints stayed above the barrier.  In the barrier-fixed coordinate
the barrier is flat and the bridge crossing probability is the classical
exp(-2 x0 x1 / variance), so the weighted estimator has no discretisation
bias for this barrier class.

Randomness comes from counter-mode Philox keyed by the seed: path p consumes
the counter blocks starting at p * ceil(n_steps/4), so chunks of paths are
independent.  They run on a thread pool with one thread per available core
(numpy, ndtri and Philox release the interpreter lock).  Each chunk writes
its paths' terminal log-spots and survival weights into arrays shared by all
chunks, and the estimate is reduced from them once at the end.  Estimates are
therefore bit-identical for a given (seed, n_paths, n_steps) whatever the
thread count or chunk size.  Working memory is bounded by the chunk size:
each running chunk holds about 16 bytes per path-step (32 MB for 8192 paths
x 256 steps), and the reduction a few floats per path.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..contract import BarrierContract
from ..errors import DomainError
from .pde import _time_grid

_CHUNK = 8192
_U64_SCALE = 2.0 ** -53


@dataclass(frozen=True)
class McEstimate:
    """Simulation estimate with its sampling error and knockout diagnostics."""

    price: float
    std_error: float
    n_paths: int
    n_steps: int
    knockout_fraction: float


def _chunk_normals(seed: int, path_lo: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard normals for paths [path_lo, path_lo + n_paths), shape (paths, steps).

    Each path owns ceil(n_steps/4) whole 4x64-bit counter blocks; uniforms
    take the top 53 bits, centred, and go through the inverse normal CDF.
    The result is the transpose of a C-contiguous (steps, paths) array, so
    a walk over steps reads contiguous rows of ``.T``.
    """
    blocks_per_path = (n_steps + 3) // 4
    bg = np.random.Philox(key=seed)
    if path_lo:
        bg.advance(path_lo * blocks_per_path)
    raw = bg.random_raw(n_paths * blocks_per_path * 4)
    raw = raw.reshape(n_paths, blocks_per_path * 4)[:, :n_steps]
    raw >>= np.uint64(11)
    z = np.empty((n_steps, n_paths))
    np.add(raw.T, 0.5, out=z)
    del raw
    np.multiply(z, _U64_SCALE, out=z)
    ndtri(z, out=z)
    return z.T


def _pool_size() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _walk_chunk(seed, lo, x, w, x0, drift, sd, var, log_level):
    """Walk paths [lo, lo + len(x)) from log-spot x0.

    Leaves each path's terminal log-spot in ``x`` and its survival weight in
    ``w``.  Runs on worker threads, so it calls only numpy and scipy.
    """
    z = _chunk_normals(seed, lo, len(x), len(var)).T
    x.fill(x0)
    w.fill(1.0)
    rel0 = x - log_level[0]
    rel1 = np.empty_like(x)
    expo = np.empty_like(x)
    for i in range(len(var)):
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
        np.minimum(expo, 0.0, out=expo)
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
    standard error of the per-path discounted values.
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
        raise DomainError("simulation requires t < T")
    lev, _ = contract.locate(S, t)
    if S <= lev:
        raise DomainError(f"S={S} at or below barrier level {lev}")

    cs = contract.curves
    T = contract.expiry
    times = _time_grid(t, T, n_steps, contract)
    steps = len(times) - 1
    drift = np.empty(steps)
    var = np.empty(steps)
    for i, (a, b) in enumerate(zip(times[:-1], times[1:])):
        var[i] = cs.integral_sigma2(a, b)
        drift[i] = cs.integral_r(a, b) - cs.integral_q(a, b) - 0.5 * var[i]
    sd = np.sqrt(var)
    log_level = np.array([math.log(contract.barrier.level(u)) for u in times])
    disc = math.exp(-cs.integral_r(t, T))
    K = contract.strike
    is_call = contract.side == "call"
    knock_in = contract.style == "down_and_in"

    x0 = math.log(S)
    x = np.empty(n_paths)
    w = np.empty(n_paths)
    los = range(0, n_paths, _CHUNK)
    with ThreadPoolExecutor(min(_pool_size(), len(los))) as pool:
        futures = [pool.submit(_walk_chunk, int(seed), lo, x[lo:lo + _CHUNK],
                               w[lo:lo + _CHUNK], x0, drift, sd, var, log_level)
                   for lo in los]
        for future in futures:
            future.result()
    s_T = np.exp(x)
    pay = np.maximum(s_T - K, 0.0) if is_call else np.maximum(K - s_T, 0.0)
    weight = (1.0 - w) if knock_in else w
    values = disc * pay * weight
    lost = 1.0 - w

    price = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    return McEstimate(price=price, std_error=std_error, n_paths=n_paths,
                      n_steps=steps, knockout_fraction=float(np.mean(lost)))
