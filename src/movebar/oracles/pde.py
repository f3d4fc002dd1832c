"""Lattice pricer: Crank-Nicolson on the barrier-fixed log coordinate.

The knockout problem is solved in x = ln(S/h(t)), where the barrier sits
still at x = 0 and the convection picks up the barrier's growth rate.  The
coefficients are frozen per time step at the step midpoint, which is exact
for piecewise-constant curves once the step grid is aligned to the curve
breakpoints.  The first steps out of the (kinked) payoff are fully implicit
so the scheme keeps clean second-order behaviour.  The price at the spot is
read off the final grid by the cubic through the four nodes around it
(4-point Lagrange, stencil clamped to the grid); its O(dx^4) error sits well
below the scheme's O(dx^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError

# width of the truncated domain in units of total volatility
_DOMAIN_SDS = 8.0
# number of maturity-adjacent steps replaced by implicit half-steps
_SMOOTHING_STEPS = 2


@dataclass(frozen=True)
class PdeGrid:
    """Uniform space grid on [0, x_max] and n_time steps."""

    x_max: float
    n_space: int
    n_time: int

    def __post_init__(self):
        for name in ("n_space", "n_time"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n_space < 4 or self.n_time < 4:
            raise DomainError("need n_space >= 4 and n_time >= 4")
        if not (self.x_max > 0.0 and math.isfinite(self.x_max)):
            raise DomainError(f"x_max must be positive, got {self.x_max}")

    @classmethod
    def for_contract(cls, S: float, t: float, contract: BarrierContract,
                     n_space: int = 400, n_time: int = 400) -> "PdeGrid":
        """Domain wide enough for spot, strike kink and 8 sd of diffusion.

        The payoff kink ln(K/h_T) is snapped onto a grid node (the node
        count is kept, x_max moves slightly) so the terminal data is exactly
        representable; a kink that rounds to node 0 stays off the grid, as
        its snap would collapse the domain.
        """
        lev, x_spot, (_, _, sigma2bar) = contract.locate(S, t)
        if S < lev:
            raise DomainError(f"S={S} below barrier level {lev}")
        kink = math.log(contract.strike) - math.log(contract.barrier.h_T)
        x_max = max(x_spot, kink, 0.0) + _DOMAIN_SDS * math.sqrt(sigma2bar)
        j = round(kink * n_space / x_max)
        if j >= 1:
            x_max = kink * n_space / j
        return cls(x_max=x_max, n_space=n_space, n_time=n_time)


def _time_grid(t: float, T: float, n_time: int, contract: BarrierContract):
    """Uniform step grid refined to hit every curve breakpoint exactly; the
    lattice and the simulation both step on it."""
    base = [t + (T - t) * i / n_time for i in range(n_time + 1)]
    cs = contract.curves
    extra = {b for curve in (cs.r, cs.q, cs.sigma) for b in curve.breakpoints
             if t < b < T}
    grid = sorted(set(base) | extra)
    # drop near-duplicates (a breakpoint landing on a uniform node)
    out = [grid[0]]
    tiny = 1e-12 * max(T - t, 1.0)
    for g in grid[1:]:
        if g - out[-1] > tiny:
            out.append(g)
    out[-1] = T
    return out


def pde_price(S: float, t: float, contract: BarrierContract,
              grid: PdeGrid | None = None, tol: float | None = None) -> float:
    """Crank-Nicolson price of the knockout problem for the contract's side.

    Knock-in styles have no absorbing-boundary PDE of their own; price them
    as vanilla minus knockout.  If tol is given the solve is repeated on a
    half-resolution grid and a Richardson error estimate above tol raises
    AccuracyError; a tol that is not a positive finite number raises
    DomainError.
    """
    if tol is not None and not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if contract.style != "down_and_out":
        raise DomainError("lattice oracle prices down_and_out styles; "
                          "knock-in follows from in + out = vanilla")
    if t >= contract.expiry:
        raise DomainError(f"lattice pricer requires t < T, got t={t}, T={contract.expiry}")
    if grid is None:
        grid = PdeGrid.for_contract(S, t, contract)
    value = _solve(S, t, contract, grid)
    if tol is not None:
        coarse = PdeGrid(x_max=grid.x_max, n_space=max(4, grid.n_space // 2),
                         n_time=max(4, grid.n_time // 2))
        estimate = abs(value - _solve(S, t, contract, coarse)) / 3.0
        if estimate > tol:
            raise AccuracyError(
                f"grid too coarse: Richardson estimate {estimate:.3e} "
                f"exceeds tolerance {tol:.3e}")
    return value


def _solve(S: float, t: float, contract: BarrierContract, grid: PdeGrid) -> float:
    barrier = contract.barrier
    cs = contract.curves
    T = contract.expiry
    K = contract.strike
    lev_t, x_eval, _ = contract.locate(S, t)
    if S < lev_t:
        raise DomainError(f"S={S} below barrier level {lev_t}")
    if x_eval > grid.x_max:
        raise DomainError(f"x={x_eval:.4f} outside grid [0, {grid.x_max:.4f}]")
    try:  # the terminal spots and the call boundary reach h_T*exp(x_max)
        exp_top = math.exp(grid.x_max)
    except OverflowError:
        exp_top = math.inf
    if barrier.h_T * exp_top == math.inf:
        raise DomainError(f"h_T*exp(x_max) overflows at x_max={grid.x_max:.6g}, "
                          f"S={S}: spot too far above the barrier")

    n = grid.n_space
    dx = grid.x_max / n
    x = np.linspace(0.0, grid.x_max, n + 1)
    is_call = contract.side == "call"

    spots_T = barrier.h_T * np.exp(x)
    v = np.maximum(spots_T - K, 0.0) if is_call else np.maximum(K - spots_T, 0.0)
    v[0] = 0.0

    def boundary(time: float) -> float:
        if not is_call:
            return 0.0
        level, (rbar, qbar, _) = barrier.level_and_bars(time)
        return (math.exp(-qbar) * exp_top * level
                - K * math.exp(-rbar))

    times = _time_grid(t, T, grid.n_time, contract)

    def substeps():
        """(t_lo, t_hi, theta) triples, maturity first."""
        smoothed = 0
        for t_hi, t_lo in zip(reversed(times), reversed(times[:-1])):
            if smoothed < _SMOOTHING_STEPS:
                mid = 0.5 * (t_lo + t_hi)
                yield mid, t_hi, 1.0
                yield t_lo, mid, 1.0
                smoothed += 1
            else:
                yield t_lo, t_hi, 0.5  # Crank-Nicolson

    # the band matrix of the implicit part, refilled every step; v[0] stays 0
    ab = np.empty((3, n - 1))
    for t_lo, t_hi, theta in substeps():
        dt = t_hi - t_lo
        mid = 0.5 * (t_lo + t_hi)
        sig = cs.sigma.value_at(mid)
        sig2 = sig * sig
        r = cs.r.value_at(mid)
        conv = r - cs.q.value_at(mid) - 0.5 * sig2 - barrier.growth_rate(mid)
        alpha = 0.5 * sig2 / (dx * dx) - 0.5 * conv / dx
        beta = -sig2 / (dx * dx) - r
        gamma = 0.5 * sig2 / (dx * dx) + 0.5 * conv / dx

        rhs = v[1:-1] + (1.0 - theta) * dt * (
            alpha * v[:-2] + beta * v[1:-1] + gamma * v[2:])
        bc_lo = boundary(t_lo)
        rhs[-1] += theta * dt * gamma * bc_lo

        ab[0] = -theta * dt * gamma
        ab[1] = 1.0 - theta * dt * beta
        ab[2] = -theta * dt * alpha
        v[1:-1] = solve_banded((1, 1), ab, rhs)
        v[-1] = bc_lo

    return _cubic_at(v, x_eval / dx)


def _cubic_at(v: np.ndarray, pos: float) -> float:
    """Cubic through the four nodes of v around grid position pos (in units
    of dx from node 0), the stencil clamped to [0, len(v) - 1]; exact at a
    node."""
    j = min(max(int(pos) - 1, 0), len(v) - 4)
    s = pos - j
    weights = (-(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0,
               s * (s - 2.0) * (s - 3.0) / 2.0,
               -s * (s - 1.0) * (s - 3.0) / 2.0,
               s * (s - 1.0) * (s - 2.0) / 6.0)
    return float(sum(w * v[j + k] for k, w in enumerate(weights)))
