"""Simulation pricer with an exact between-step crossing correction.

Log-spot increments use the exact per-step moments of the piecewise-constant
curves (the step grid is refined to hit every breakpoint), and each step
multiplies a survival weight by the probability that the bridge between the
step's endpoints stayed above the barrier.  In the barrier-fixed coordinate
the barrier is flat and the bridge crossing probability is the classical
exp(-2 x0 x1 / variance), so the weighted estimator has no discretisation
bias for this barrier class.

Randomness comes from counter-mode Philox keyed by the seed: path p consumes
the counter blocks starting at p * ceil(n_steps/4), so estimates are
bit-identical for a given (seed, n_paths, n_steps) no matter how the work is
chunked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..contract import BarrierContract
from ..errors import DomainError
from .pde import _time_grid

_CHUNK = 32768
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
    """
    blocks_per_path = (n_steps + 3) // 4
    bg = np.random.Philox(key=seed)
    if path_lo:
        bg.advance(path_lo * blocks_per_path)
    raw = bg.random_raw(n_paths * blocks_per_path * 4)
    raw = raw.reshape(n_paths, blocks_per_path * 4)[:, :n_steps]
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _U64_SCALE
    return ndtri(u)


def mc_price(S: float, t: float, contract: BarrierContract,
             n_paths: int = 100_000, n_steps: int = 64,
             seed: int = 0) -> McEstimate:
    """Survival-weighted Monte Carlo price of the contract.

    Knockout styles weight the payoff by the path's survival probability;
    knock-in styles by its complement.  std_error is the usual sample
    standard error of the per-path discounted values.
    """
    if n_paths < 2 or n_steps < 1:
        raise DomainError(f"need n_paths >= 2 and n_steps >= 1, "
                          f"got {n_paths}, {n_steps}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2 ** 64):
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if t >= contract.expiry:
        raise DomainError("simulation requires t < T")
    barrier = contract.barrier
    lev = barrier.level(t)
    if not math.isfinite(S):
        raise DomainError(f"spot must be finite, got {S}")
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
    log_level = np.array([math.log(barrier.level(u)) for u in times])
    disc = math.exp(-cs.integral_r(t, T))
    K = contract.strike
    is_call = contract.side == "call"
    knock_in = contract.style == "down_and_in"

    values = np.empty(n_paths)
    lost = np.empty(n_paths)
    x0 = math.log(S)
    for lo in range(0, n_paths, _CHUNK):
        hi = min(lo + _CHUNK, n_paths)
        z = _chunk_normals(int(seed), lo, hi - lo, steps)
        x = np.full(hi - lo, x0)
        w = np.ones(hi - lo)
        for i in range(steps):
            x_next = x + drift[i] + sd[i] * z[:, i]
            rel0 = x - log_level[i]
            rel1 = x_next - log_level[i + 1]
            # exponent >= 0 iff an endpoint is at/below the barrier: p = 1
            expo = np.minimum(-2.0 * rel0 * rel1 / var[i], 0.0)
            w *= 1.0 - np.exp(expo)
            x = x_next
        s_T = np.exp(x)
        pay = np.maximum(s_T - K, 0.0) if is_call else np.maximum(K - s_T, 0.0)
        weight = (1.0 - w) if knock_in else w
        values[lo:hi] = disc * pay * weight
        lost[lo:hi] = 1.0 - w

    price = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    return McEstimate(price=price, std_error=std_error, n_paths=n_paths,
                      n_steps=steps, knockout_fraction=float(np.mean(lost)))
