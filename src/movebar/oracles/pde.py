"""Lattice pricer: Crank-Nicolson on the barrier-fixed log coordinate.

The knockout problem is solved in x = ln(S/h(t)), where the barrier sits
still at x = 0 and r and q cancel against its drift r - q + C sigma^2: the
convection is -(C + 1/2) sigma^2, and the lattice reads only the r and sigma
curves.  The coefficients are frozen per step at the step midpoint, which is
exact for piecewise-constant curves on the breakpoint-aligned step grid.
Calls and puts solve one problem: by put-call parity a knockout call is the
forward F = S e^{-qbar} - K e^{-rbar}, an exact solution of the same PDE,
plus a put-like remainder u, which pays max(K - S_T, 0) and is 0 at x_max,
and which on the barrier takes the value -F that makes the call 0 there.
The integrals of r and sigma^2 that F needs are summed the same way as the
coefficients, step by step, so a call far above the barrier is its forward
to rounding.  The first steps out of the (kinked) payoff are fully implicit
so the scheme keeps clean second-order behaviour.  Each step's
tridiagonal solve is blocked, by the partition method (see _Stepper): once
per step length it tables LAPACK's inverses of the blocks and of a small
reduced system, and a step is then a few matrix products in plain numpy, the
explicit half-step folded into the first.  The price at the spot is read off
the final grid by the cubic through the four nodes around it (4-point
Lagrange, stencil clamped to the grid); its O(dx^4) error sits well below the
scheme's O(dx^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError, check_integers, check_tolerance
from .heatkernel import to_heat_coords

# width of the truncated domain in units of total volatility
_DOMAIN_SDS = 8.0
# number of maturity-adjacent steps replaced by implicit half-steps
_SMOOTHING_STEPS = 2
# the most nodes a refusal suggests; past it the input is what cannot be held
_MAX_NODES = 10 ** 7


@dataclass(frozen=True)
class PdeGrid:
    """Uniform space grid on [0, x_max] and n_time steps."""

    x_max: float
    n_space: int
    n_time: int

    def __post_init__(self):
        check_integers(n_space=self.n_space, n_time=self.n_time)
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
        its snap would collapse the domain.  (S, t) must pass
        to_heat_coords' rule.
        """
        check_integers(n_space=n_space, n_time=n_time)
        co = to_heat_coords(S, t, contract)
        kink = math.log(contract.strike) - math.log(contract.barrier.h_T)
        x_max = max(co.x, kink, 0.0) + _DOMAIN_SDS * math.sqrt(co.tau)
        j = round(kink * n_space / x_max)
        if j >= 1 and kink * n_space / j < co.x:
            j -= 1  # rounding up would drop the spot off the grid
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
    # drop near-duplicates (a breakpoint landing on a uniform node): a time
    # closer to the last node kept than 1e-12 of the horizon or 8 ulps of T,
    # the nodes' own rounding; a short horizon keeps its uniform nodes
    out = [grid[0]]
    tiny = max(1e-12 * (T - t), 8.0 * math.ulp(T))
    for g in grid[1:]:
        if g - out[-1] > tiny:
            out.append(g)
    if len(out) == 1:  # the whole horizon within the rounding: one step
        out.append(T)
    out[-1] = T
    return out


def pde_price(S: float, t: float, contract: BarrierContract,
              grid: PdeGrid | None = None, tol: float | None = None) -> float:
    """Crank-Nicolson price of the knockout problem for the contract's side.

    Knock-in styles have no absorbing-boundary PDE of their own; price them
    as vanilla minus knockout.  (S, t) must pass to_heat_coords' rule.  A
    grid whose cell Peclet number |C + 1/2| dx exceeds 1 raises
    AccuracyError, and so does a grid whose spacing dx exceeds sqrt(tau),
    the standard deviation of the whole diffusion, when the payoff kink or
    the barrier lies within 8 sqrt(tau) of the spot; a put struck at or
    below h_T (worth exactly 0) is exempt from both.
    If tol is given the solve is repeated on a half-resolution grid and a
    Richardson error estimate above tol raises AccuracyError; a tol that is
    not a positive finite number raises DomainError.  The half-resolution
    grid has twice the spacing, so it can meet either refusal where the full
    grid passes.
    """
    if tol is not None:
        check_tolerance("tol", tol)
    if contract.style != "down_and_out":
        raise DomainError("lattice oracle prices down_and_out styles; "
                          "knock-in follows from in + out = vanilla")
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
    cs = contract.curves
    h_T, C, K = contract.barrier.h_T, contract.barrier.C, contract.strike
    co = to_heat_coords(S, t, contract)
    if co.x > grid.x_max:
        raise DomainError(f"x={co.x:.4f} outside grid [0, {grid.x_max:.4f}]")

    n = grid.n_space
    dx = grid.x_max / n
    is_call = contract.side == "call"

    # the widest spacing the lattice resolves: central convection oscillates
    # beyond cell Peclet number |C + 1/2| dx = 1, and where the payoff kink
    # or the barrier lies within the diffusion's reach of the spot, nodes
    # wider apart than sqrt(tau), its standard deviation, miss the value's
    # bend there.  A put struck at or below h_T pays nothing above the
    # barrier and solves to exactly 0 all the same
    if is_call or K > h_T:
        sd = math.sqrt(co.tau)
        kink = math.log(K) - math.log(h_T)
        limits = [(1.0 / abs(C + 0.5) if C != -0.5 else math.inf,
                   f"1 / |C + 1/2|, where the cell Peclet number reaches 1 "
                   f"at C={C}", f"C={C} is beyond")]
        if min(co.x, abs(co.x - kink)) < _DOMAIN_SDS * sd:
            limits.append((sd, "sqrt(tau), the diffusion's standard "
                           "deviation, the kink or the barrier lying within "
                           f"{_DOMAIN_SDS:g} sqrt(tau) of the spot",
                           f"the horizon T - t = {contract.expiry - t:.3g} "
                           f"is below"))
        spacing, name, beyond = min(limits)
        if dx > spacing:
            need = grid.x_max / spacing
            raise AccuracyError(
                f"grid spacing dx = {dx:.3g} on n_space={n} exceeds "
                f"{spacing:.3g} = {name}: the lattice cannot resolve it; " + (
                    f"n_space={math.ceil(need)} brings dx there"
                    if need <= _MAX_NODES else f"{beyond} what a lattice of "
                    f"up to {_MAX_NODES:,} nodes resolves"))

    times = _time_grid(t, contract.expiry, grid.n_time, contract)

    def substeps():
        """(t_lo, t_hi, theta) triples, maturity first."""
        for k, (t_lo, t_hi) in enumerate(zip(times[-2::-1], times[:0:-1])):
            if k < _SMOOTHING_STEPS:
                mid = 0.5 * (t_lo + t_hi)
                yield mid, t_hi, 1.0
                yield t_lo, mid, 1.0
            else:
                yield t_lo, t_hi, 0.5  # Crank-Nicolson

    # v is u = V - F, F = 0 for a put: the put payoff, 0 at x_max, and on
    # the barrier the wall value, 0 for a put and -F for a call
    stepper = _Stepper(n - 1)
    v = stepper.work[:n + 1]
    wall = 0.0
    rbar = sigma2bar = 0.0  # the integrals over [t_lo, T]
    # the solve's tables, one per distinct system; the uniform steps differ
    # in their last bits, so a step is keyed by its length in uniform steps
    h = (contract.expiry - t) / grid.n_time
    if h == 0.0:
        raise AccuracyError(f"step (T - t)/n_time underflows to 0 at T - t = "
                            f"{contract.expiry - t:.3g}, n_time={grid.n_time}")
    factors = {}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # the payoff on the rows, whose top spots may pass the float
            # range; node n stays 0, and node 0 enters the first step, fully
            # implicit, only at its new value
            v[1:-1] = np.maximum(
                K - h_T * np.exp(np.linspace(0.0, grid.x_max, n + 1)[1:-1]), 0.0)
            for t_lo, t_hi, theta in substeps():
                dt = t_hi - t_lo
                mid = 0.5 * (t_lo + t_hi)
                sig = cs.sigma.value_at(mid)
                sig2 = sig * sig
                r = cs.r.value_at(mid)
                if is_call:  # -F on the barrier: K e^{-rbar} - h(t) e^{-qbar},
                    # where h(t) e^{-qbar} = h_T e^{-rbar - C sigma2bar}
                    rbar += r * dt
                    sigma2bar += sig2 * dt
                    wall = (K * math.exp(-rbar)
                            - math.exp(math.log(h_T) - rbar - C * sigma2bar))

                key = (sig, r, round(dt / h, 9), theta)
                tables = factors.get(key)
                if tables is None:
                    conv = -(C + 0.5) * sig2
                    alpha = 0.5 * sig2 / (dx * dx) - 0.5 * conv / dx
                    beta = -sig2 / (dx * dx) - r
                    gamma = 0.5 * sig2 / (dx * dx) + 0.5 * conv / dx
                    ex_dt = (1.0 - theta) * dt
                    tables = factors[key] = stepper.tables(
                        -theta * dt * alpha, 1.0 - theta * dt * beta,
                        -theta * dt * gamma,
                        (ex_dt * alpha, 1.0 + ex_dt * beta, ex_dt * gamma))
                stepper.step(tables, wall)
                if not np.isfinite(v[1:-1]).all():
                    raise AccuracyError(f"lattice values leave the float "
                                        f"range at t={t_lo:.6g}")
    except OverflowError as exc:  # math.exp of the call's barrier value
        raise DomainError(f"call boundary at t={t_lo:.6g} is outside the float "
                          f"range: rbar={rbar:.4g}, sigma2bar={sigma2bar:.4g} "
                          f"to expiry") from exc

    # F from the same sums, so F = -wall and V = 0 on the barrier; a put's
    # 0.0 keeps its bits, as _cubic_at never returns -0.0
    try:
        forward = ((math.exp(co.x + math.log(h_T) - rbar - C * sigma2bar)
                    - K * math.exp(-rbar)) if is_call else 0.0)
    except OverflowError:
        raise DomainError(f"the forward S e^(-qbar) - K e^(-rbar) at S={S} is "
                          f"outside the float range") from None
    return forward + _cubic_at(v, co.x / dx)


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


def _inverse(a: np.ndarray) -> np.ndarray:
    """LAPACK's inverse of a; AccuracyError if it is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise AccuracyError("the lattice's tridiagonal system is "
                            "singular") from None


class _Stepper:
    """Lattice steps on `rows` interior nodes by the partition method.

    A step solves the tridiagonal system (lower, diag, upper) for the
    right-hand side E v, E the explicit operator with the stencil
    `explicit`, plus -lower times node 0's new value on the first row; the
    node after the last row is 0 at the new time.  work holds v on the
    rows + 2 nodes, then zeros up to whole blocks; block k's rows read the
    window work[k * block : k * block + block + 3].

    The rows are cut into blocks (H. H. Wang, ACM TOMS 7(2), 1981).  Every
    block but the last has the same matrix, so one system needs two block
    inverses.  A step solves every block on its own, E folded in, in one
    matrix product; solves the small reduced system for the values at the
    block ends, node 0's new value one more input to it; and adds the spikes
    that the rows before and after each block send into it.  The last block
    is padded with rows that come out 0.
    """

    def __init__(self, rows: int):
        # sqrt(2 rows) rows per block balances a step's local solves, about
        # `block` multiply-adds per row, against its dense reduced system,
        # (2 rows / block)^2, and keeps one system's tables O(rows) in size
        m = self.block = min(rows, round(math.sqrt(2 * rows)))
        nb = -(-rows // m)
        self.rows = rows
        self.work = np.zeros(nb * m + 3)
        # the window's last column meets only zero coefficients; it stays,
        # as a product over m + 2 columns sums in another order and moves
        # the prices' last bits
        self._windows = sliding_window_view(self.work, m + 3)[:nb * m:m]
        self._interior = self.work[1:nb * m + 1].reshape(nb, m)
        self._window = np.empty((nb, m + 3))  # contiguous, for one gemm
        self._local = np.empty((nb, m + 1))
        self._carried = np.empty((nb, m))
        # the reduced system's inputs: every block's local ends, then node 0
        self._ends = np.empty(2 * nb + 1)

    def tables(self, lower, diag, upper, explicit):
        """What step() needs of one system: the local solves of a block and
        of the last block, the map from the local ends and node 0 to every
        block's carries in, and the spikes.  AccuracyError on a singular
        block or reduced system."""
        rows, m = self.rows, self.block
        nb = len(self._interior)
        p = rows - (nb - 1) * m  # rows in the last block
        a = (np.diag(np.full(m, diag)) + np.diag(np.full(m - 1, lower), -1)
             + np.diag(np.full(m - 1, upper), 1))
        # [0] every block but the last; [1] the last, whose p rows are the
        # leading block of [0] and whose padding stays 0
        inv = np.zeros((2, m, m))
        inv[0] = _inverse(a)
        inv[1, :p, :p] = _inverse(a[:p, :p])
        e = np.zeros((2, m, m + 3))
        i = np.arange(m)
        for d, x in enumerate(explicit):
            e[:, i, i + d] = x
        # the local solve, its last row again on top: local ends first
        local = np.empty((2, m + 1, m + 3))
        np.matmul(inv, e, out=local[:, 1:])
        local[:, 0] = local[:, -1]
        # what y before a block and y after it add to each of its rows
        spikes = np.stack([-lower * inv[0, :, 0], -upper * inv[0, :, -1]])
        spike_last = -lower * inv[1, :, 0]

        # z_k = (y at block k's last row, y at its first) is its local ends
        # plus the spikes' tips times z_{k-1}[0] and z_{k+1}[1]
        k = np.arange(1, nb)
        reduced = np.eye(2 * nb).reshape(nb, 2, nb, 2)
        reduced[k, :, k - 1, 0] = -spikes[0, [-1, 0]]
        reduced[k - 1, :, k, 1] = -spikes[1, [-1, 0]]
        if nb > 1:
            reduced[-1, :, -2, 0] = -spike_last[[-1, 0]]
        # block k's carries in: y before it and y after it.  Node 0 is block
        # 0's y before, and reaches the others as a local end of block 0
        # would, through its spike's tips
        z = _inverse(reduced.reshape(2 * nb, 2 * nb)).reshape(nb, 2, 2 * nb)
        carry = np.zeros((nb, 2, 2 * nb + 1))
        carry[1:, 0, :-1] = z[:-1, 0]
        carry[:-1, 1, :-1] = z[1:, 1]
        carry[..., -1] = carry[..., :2] @ spikes[0, [-1, 0]]
        carry[0, 0, -1] = 1.0
        return (local[0].T, local[1].T, carry.reshape(2 * nb, 2 * nb + 1),
                spikes, spike_last)

    def step(self, tables, wall: float):
        """Advance work one step, wall node 0's new value."""
        local, local_last, carry, spikes, spike_last = tables
        window, x, carried = self._window, self._local, self._carried
        np.copyto(window, self._windows)
        np.matmul(window, local, out=x)
        np.matmul(window[-1], local_last, out=x[-1])
        np.copyto(self._ends[:-1].reshape(-1, 2), x[:, :2])
        self._ends[-1] = wall
        carries = (carry @ self._ends).reshape(-1, 2)
        np.matmul(carries, spikes, out=carried)
        np.multiply(spike_last, carries[-1, 0], out=carried[-1])
        np.add(x[:, 1:], carried, out=self._interior)
        self.work[0] = wall
