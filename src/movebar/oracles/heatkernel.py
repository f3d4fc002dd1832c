"""Quadrature pricer built on the half-line heat-kernel representation.

After the log/gauge/time-rescale transformation the knockout problem is the
heat equation on x > 0 with an absorbing boundary, so the price is an
integral of the payoff against the difference of a direct and a reflected
Gaussian kernel.  Integrating that numerically gives a pricer whose only
shared ingredient with the closed forms is the curve integrals.

The gauge folded into the direct kernel leaves one discounted Gaussian
exp(-rbar - (xi - x + a_T tau)^2 / 2 tau), in the float range at every
admissible C; the reflected kernel is it times exp(-2 x xi / tau), so a
knockout multiplies it by -expm1(-2 x xi / tau) on xi >= 0 and a knock-in,
its complement, by exp(-2 x max(xi, 0) / tau) on the whole line.  The
integration variable is z = (xi - x + a_T tau) / sqrt(tau), where the
Gaussian is exact.

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
from dataclasses import astuple, dataclass

import numpy as np

from ..contract import BarrierContract
from ..errors import AccuracyError, DomainError, check_tolerance

# kernel mass beyond peak + _TAIL_SDS standard deviations is below 1e-300
_TAIL_SDS = 42.0
# beyond _BULK_SDS it is below _EPS_REL: no tail panel hides an error there
_BULK_SDS = 8.0
# Gauss-Legendre nodes and weights on [-1, 1], the Gauss half of QUADPACK's
# 21-point Gauss-Kronrod pair: numpy's leggauss(10) written out, so that
# numpy.polynomial is not loaded.  The nodes are correctly rounded; the
# weights are within 7 ulp of the exact ones and keep leggauss' bits
_NODES = np.array([float.fromhex(h) for h in (
    "-0x1.f2a3e062af2d8p-1", "-0x1.bae995e9cb2f3p-1", "-0x1.5bdb9228de198p-1",
    "-0x1.bbcc009016adcp-2", "-0x1.30e507891e27ap-3", "0x1.30e507891e27ap-3",
    "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f3p-1",
    "0x1.f2a3e062af2d8p-1")])
_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.1115f8b62dc1fp-4", "0x1.32138c878efdep-3", "0x1.c0b059d00bc30p-3",
    "0x1.13baa7a559c01p-2", "0x1.2e9de7014d6eep-2", "0x1.2e9de7014d6eep-2",
    "0x1.13baa7a559c01p-2", "0x1.c0b059d00bc30p-3", "0x1.32138c878efdep-3",
    "0x1.1115f8b62dc1fp-4")])
# refinement stops at this many panels, converged or not
_MAX_PANELS = 300
# relative accuracy asked for on top of the absolute tolerance
_EPS_REL = 1e-13


@dataclass(frozen=True)
class HeatCoords:
    """What an oracle reads of the valuation point: x = ln(S/h(t)) >= 0, the
    diffusion time tau = sigma2bar, a_T = C + 1/2 (the walk's drift is
    -a_T sigma^2) and the discount rbar, over [t, T]."""

    x: float
    tau: float
    a_T: float
    rbar: float


def to_heat_coords(S: float, t: float, contract: BarrierContract) -> HeatCoords:
    """Map (S, t) to the barrier frame: the valuation rule of every oracle.

    Raises DomainError unless t < T and S >= h(t), on top of locate's rule
    (S positive and finite, t >= 0).  At S = h(t), x = 0 and a knockout is
    worth exactly 0.
    """
    if t >= contract.expiry:
        raise DomainError(f"the oracles require t < T, "
                          f"got t={t}, T={contract.expiry}")
    lev, x, (rbar, _, tau) = contract.locate(S, t)
    if S < lev:
        raise DomainError(f"S={S} below barrier level {lev}")
    return HeatCoords(x=x, tau=tau, a_T=contract.barrier.C + 0.5, rbar=rbar)


def _payoff_bounds(side: str, kink: float, x: float, tau: float, a_T: float,
                   knockout: bool):
    """Integration window and interior split points for one payoff.

    The payoff's support (xi >= 0 for knockouts) within _TAIL_SDS of the
    centres x - a_T*tau (strike term) and x + (1 - a_T)*tau (e^xi term),
    split at both, _BULK_SDS outside them, at xi = 0 and at tau/(2x) * 4^k,
    where the survival factor rises (at large C in a layer far narrower
    than one standard deviation).  Raises AccuracyError if the whole
    kernel's window is empty in floats, sqrt(tau) being below the float
    spacing of xi.
    """
    sd = math.sqrt(tau)
    low, high = x - a_T * tau, x + (1.0 - a_T) * tau
    lo, hi = low - _TAIL_SDS * sd, high + _TAIL_SDS * sd
    if not lo < hi:
        raise AccuracyError(f"kernel width sqrt(tau)={sd:.3g} is below the "
                            f"float spacing of xi at its centre {low:.6g}")
    if side == "call":
        lo = max(lo, kink)
    else:
        hi = min(hi, kink)
    pts = [low - _BULK_SDS * sd, low, high, high + _BULK_SDS * sd, 0.0]
    if knockout:
        lo = max(lo, 0.0)
    if x > 0.0:
        pts += [tau / (2.0 * x) * 4.0 ** k for k in range(8)]
    if not lo < hi:
        return None
    return lo, hi, sorted({p for p in pts if lo < p < hi})


def heat_kernel_price(S: float, t: float, contract: BarrierContract,
                      tol: float = 1e-10) -> float:
    """Price the contract by adaptive quadrature in the heat frame.

    Knockout styles integrate the two-term kernel, direct minus reflected,
    on the half-line; knock-in styles integrate its complement, the direct
    kernel below the barrier and the reflected one above it, on the whole
    line.  Either is one integral to the absolute tolerance tol.

    Raises AccuracyError if the quadrature error estimate exceeds tol, and
    DomainError if tol is not a positive finite number or (S, t) breaks
    to_heat_coords' rule.
    """
    check_tolerance("tol", tol)
    x, tau, a_T, rbar = astuple(to_heat_coords(S, t, contract))
    knockout = contract.style == "down_and_out"
    K, h_T = contract.strike, contract.barrier.h_T
    kink = math.log(K) - math.log(h_T)
    bounds = _payoff_bounds(contract.side, kink, x, tau, a_T, knockout)
    if bounds is None:
        return 0.0
    lo, hi, pts = bounds
    centre, sd = x - a_T * tau, math.sqrt(tau)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    sign = 1.0 if contract.side == "call" else -1.0

    def integrand(z: np.ndarray) -> np.ndarray:
        xi = centre + sd * z  # dxi = sd dz cancels sqrt(tau) in the norm
        k = np.exp(-rbar - 0.5 * z * z)
        if knockout:
            k *= -np.expm1(-2.0 * x * xi / tau)
        else:
            k *= np.exp(-2.0 * x * np.maximum(xi, 0.0) / tau)
        return norm * k * (sign * (np.exp(xi) * h_T - K))

    with np.errstate(over="ignore", invalid="ignore"):
        value, abserr = _adaptive_gauss(
            integrand, [(p - centre) / sd for p in (lo, *pts, hi)], epsabs=tol)
    if not (math.isfinite(value) and math.isfinite(abserr)):
        raise AccuracyError(f"quadrature overflowed on [{lo:.4g}, {hi:.4g}]")
    if abserr > tol:
        floor = _EPS_REL * abs(value)
        below = (f", below the relative floor {_EPS_REL:g} * |value| = "
                 f"{floor:.3g}" if tol < floor else "")
        raise AccuracyError(
            f"quadrature achieved {abserr:.3e}, requested {tol:.3e}{below}")
    return value


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
