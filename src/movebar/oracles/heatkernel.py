"""Quadrature pricer built on the half-line heat-kernel representation.

After the log/gauge/time-rescale transformation the knockout problem is the
heat equation on x > 0 with an absorbing boundary, so the price is an
integral of the payoff against the difference of a direct and a reflected
Gaussian kernel.  Integrating that numerically gives a pricer whose only
shared ingredient with the closed forms is the curve integrals.

The integral is taken by a vectorised adaptive Gauss-Legendre rule (the
bisection strategy of QUADPACK's QAG, Piessens et al. 1983): each panel
carries its one-panel sum and the sums over its two halves, the difference
being its error estimate, and the panel with the largest estimate is halved
until the total estimate meets the tolerance or the panel count reaches
_MAX_PANELS.  The integrand is evaluated as one numpy expression over the
nodes of every panel being refined, so only numpy is needed here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError

# kernel mass beyond peak + _TAIL_SDS standard deviations is below 1e-300
_TAIL_SDS = 42.0
# Gauss-Legendre nodes and weights on [-1, 1], the Gauss half of QUADPACK's
# 21-point Gauss-Kronrod pair
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(10)
# refinement stops at this many panels, converged or not
_MAX_PANELS = 300
# relative accuracy asked for on top of the absolute tolerance
_EPS_REL = 1e-13


@dataclass(frozen=True)
class HeatCoords:
    """Transformed coordinates: position x, diffusion time tau, gauge a, b."""

    x: float
    tau: float
    a_T: float
    b_t: float


def to_heat_coords(S: float, t: float, contract: BarrierContract) -> HeatCoords:
    """Map (S, t) to the heat-equation frame of the contract's barrier.

    x = ln(S/h(t)) >= 0, tau = integrated variance to expiry, and the gauge
    exponents a_T = C + 1/2 and b_t = -(rbar + a_T^2 tau / 2) that restore
    the price as V = e^{a_T x + b_t} U(x, tau).
    """
    lev, x, (rbar, _, tau) = contract.locate(S, t)
    if S < lev:
        raise DomainError(f"S={S} below barrier level {lev}")
    a_T = contract.barrier.C + 0.5
    b_t = -(rbar + 0.5 * a_T * a_T * tau)
    return HeatCoords(x=x, tau=tau, a_T=a_T, b_t=b_t)


def _payoff_bounds(side: str, kink: float, x: float, tau: float, a_T: float,
                   knockout: bool):
    """Integration window and interior split points for one payoff."""
    sd = math.sqrt(tau)
    if side == "call":
        lo = max(0.0, kink) if knockout else kink
        hi = max(x + (1.0 - a_T) * tau, lo, x) + _TAIL_SDS * sd
    else:
        if knockout and kink <= 0.0:
            return None  # payoff support entirely below the barrier
        hi = kink
        # below both kernel centres, x and x - a_T*tau, as hi is for calls
        lo = min(x, x - a_T * tau) - _TAIL_SDS * sd
        lo = max(0.0, lo) if knockout else lo
        if lo >= hi:
            return None
    pts = [p for p in (x,) if lo < p < hi]
    return lo, hi, pts


def heat_kernel_price(S: float, t: float, contract: BarrierContract,
                      tol: float = 1e-10) -> float:
    """Price the contract by adaptive quadrature in the heat frame.

    Knockout styles integrate the two-term kernel, direct minus reflected,
    on the half-line; knock-in styles are priced as the direct kernel's
    integral over the whole line (the no-barrier price) minus the knockout
    one.

    Raises AccuracyError if the quadrature error estimate exceeds tol, and
    DomainError if tol is not a positive finite number.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if t >= contract.expiry:
        raise DomainError(f"quadrature pricer requires t < T, "
                          f"got t={t}, T={contract.expiry}")
    coords = to_heat_coords(S, t, contract)
    if contract.style == "down_and_in":
        whole = _integral(coords, contract, tol / 2.0, knockout=False)
        return whole - _integral(coords, contract, tol / 2.0, knockout=True)
    return _integral(coords, contract, tol, knockout=True)


def _integral(coords: HeatCoords, contract: BarrierContract, tol: float,
              knockout: bool) -> float:
    """The payoff against the direct kernel, minus the reflected kernel
    when knockout, on the knockout (half-line) or the whole-line window."""
    x, tau, a_T, b_t = coords.x, coords.tau, coords.a_T, coords.b_t
    K, h_T = contract.strike, contract.barrier.h_T
    kink = math.log(K) - math.log(h_T)
    bounds = _payoff_bounds(contract.side, kink, x, tau, a_T, knockout)
    if bounds is None:
        return 0.0
    gauge = a_T * x + b_t
    try:
        prefactor = math.exp(gauge)
    except OverflowError:
        prefactor = math.inf
    # a prefactor of 0 would divide the tolerance by zero and make a deep
    # in-the-money call worth 0
    if not 0.0 < prefactor < math.inf:
        raise AccuracyError(f"gauge exponent a_T*x + b_t = {gauge:.6g} puts "
                            f"the prefactor exp(.) outside the float range")
    lo, hi, pts = bounds
    norm = 1.0 / math.sqrt(2.0 * math.pi * tau)
    two_tau = 2.0 * tau
    sign = 1.0 if contract.side == "call" else -1.0

    def integrand(xi: np.ndarray) -> np.ndarray:
        k = np.exp(-((x - xi) ** 2) / two_tau)
        if knockout:
            k -= np.exp(-((x + xi) ** 2) / two_tau)
        pay = sign * (np.exp(xi) * h_T - K)
        return norm * k * np.exp(-a_T * xi) * pay

    with np.errstate(over="ignore", invalid="ignore"):
        value, abserr = _adaptive_gauss(integrand, [lo, *pts, hi],
                                        epsabs=tol / prefactor)
    if not (math.isfinite(value) and math.isfinite(abserr)):
        raise AccuracyError(f"quadrature overflowed on [{lo:.4g}, {hi:.4g}]")
    if abserr * prefactor > tol:
        raise AccuracyError(
            f"quadrature achieved {abserr * prefactor:.3e}, requested {tol:.3e}")
    return prefactor * value


def _gauss(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums of f over the panels [a[i], b[i]]."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    return half * (f(nodes) @ _WEIGHTS)


def _adaptive_gauss(f, edges: list, epsabs: float) -> tuple:
    """Integral of f over [edges[0], edges[-1]] and its error estimate.

    Starts from the panels between consecutive edges and halves the panel
    with the largest estimate |G(a,b) - G(a,m) - G(m,b)| until the summed
    estimate is within max(epsabs, _EPS_REL * |value|) or there are
    _MAX_PANELS panels.  The value is the sum of the half-panel sums.
    """
    a = np.array(edges[:-1])
    b = np.array(edges[1:])
    m = 0.5 * (a + b)
    sums = _gauss(f, np.concatenate([a, a, m]), np.concatenate([b, m, b]))
    # one (lo, hi, left half sum, right half sum, error estimate) per panel
    panels = [(lo, hi, left, right, abs(whole - left - right))
              for lo, hi, whole, left, right
              in zip(a.tolist(), b.tolist(), *sums.reshape(3, -1).tolist())]
    while True:
        value = math.fsum(p[2] + p[3] for p in panels)
        abserr = math.fsum(p[4] for p in panels)
        # written so that a NaN estimate stops the loop; the caller rejects it
        if not abserr > max(epsabs, _EPS_REL * abs(value)) \
                or len(panels) >= _MAX_PANELS:
            return value, abserr
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        lo, hi, whole_l, whole_r, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        cuts = np.array([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi])
        q = _gauss(f, cuts[:-1], cuts[1:]).tolist()
        panels.append((lo, mid, q[0], q[1], abs(whole_l - q[0] - q[1])))
        panels.append((mid, hi, q[2], q[3], abs(whole_r - q[2] - q[3])))
