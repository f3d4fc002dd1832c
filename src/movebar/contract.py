"""Barrier specification and contract terms.

The admissible barrier class is pinned to the curves: the level decays from
its terminal value ``h_T`` at the exponential rate r - q + C sigma^2, so a
single constant ``C`` selects one member.  Everything downstream (closed
forms, oracles) takes the barrier through this type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .curves import CurveSet, _read_json
from .errors import DomainError, LoadError

C_MAX = 1e6

Side = Literal["call", "put"]
Style = Literal["down_and_out", "down_and_in"]


@dataclass(frozen=True)
class MovingBarrier:
    """Barrier level h(t) = h_T * exp(-(rbar - qbar + C*sigma2bar)(t, T))."""

    h_T: float
    C: float
    curves: CurveSet
    T: float

    def __post_init__(self):
        if not (self.h_T > 0.0 and math.isfinite(self.h_T)):
            raise DomainError(f"terminal barrier must be positive, got {self.h_T}")
        if not math.isfinite(self.C) or abs(self.C) > C_MAX:
            raise DomainError(f"|C| must be finite and <= {C_MAX:g}, got {self.C}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise DomainError(f"expiry must be positive, got {self.T}")

    def level(self, t: float) -> float:
        """Barrier level at time t, exact for the piecewise-constant curves."""
        return self.level_and_bars(t)[0]

    def level_and_bars(self, t: float) -> tuple:
        """h(t) and the (rbar, qbar, sigma2bar) over [t, T] it is built from."""
        if not 0.0 <= t <= self.T:
            raise DomainError(f"t={t} outside [0, {self.T}]")
        bars = rbar, qbar, sigma2bar = self.curves.bars(t, self.T)
        drift = rbar - qbar + self.C * sigma2bar
        try:
            level = self.h_T * math.exp(-drift)
        except OverflowError:
            level = math.inf
        if not 0.0 < level < math.inf:
            raise DomainError(f"barrier level at t={t} is h_T*exp({-drift:.4g}), "
                              f"outside the float range; C={self.C} too large")
        return level, bars

    def growth_rate(self, t: float) -> float:
        """Local exponential slope h'(t)/h(t) = r - q + C sigma^2.

        Curve lookups are right-continuous, so at a breakpoint this returns
        the slope of the interval starting there.
        """
        if not 0.0 <= t <= self.T:
            raise DomainError(f"t={t} outside [0, {self.T}]")
        cs = self.curves
        sig = cs.sigma.value_at(t)
        return cs.r.value_at(t) - cs.q.value_at(t) + self.C * sig * sig


def barrier_from_terminal(h_T: float, C: float, curves: CurveSet,
                          T: float) -> MovingBarrier:
    """Pick the admissible barrier through (T, h_T) with decay constant C."""
    return MovingBarrier(h_T=h_T, C=C, curves=curves, T=T)


def c_from_levels(h_t0: float, t0: float, h_T: float, T: float,
                  curves: CurveSet) -> float:
    """Solve for the C whose barrier passes through (t0, h_t0) and (T, h_T)."""
    if not (h_t0 > 0.0 and h_T > 0.0):
        raise DomainError("barrier levels must be positive")
    if not t0 < T:
        raise DomainError(f"need t0 < T, got t0={t0}, T={T}")
    rbar, qbar, s2 = curves.bars(t0, T)
    c = -((rbar - qbar) + math.log(h_t0 / h_T)) / s2
    if abs(c) > C_MAX:
        raise DomainError(f"implied |C|={abs(c):.3g} exceeds {C_MAX:g}")
    return c


@dataclass(frozen=True)
class BarrierContract:
    """Strike, expiry, call/put side, knockout/knock-in style, barrier."""

    strike: float
    expiry: float
    side: Side
    style: Style
    barrier: MovingBarrier

    def __post_init__(self):
        if not (self.strike > 0.0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be positive, got {self.strike}")
        if self.side not in ("call", "put"):
            raise DomainError(f"side must be 'call' or 'put', got {self.side!r}")
        if self.style not in ("down_and_out", "down_and_in"):
            raise DomainError(
                f"style must be 'down_and_out' or 'down_and_in', got {self.style!r}")
        if self.expiry != self.barrier.T:
            raise DomainError(
                f"contract expiry {self.expiry} != barrier terminal time {self.barrier.T}")

    @property
    def curves(self) -> CurveSet:
        return self.barrier.curves

    @property
    def in_closed_form_regime(self) -> bool:
        """True when the strike is at or above the terminal barrier level."""
        return self.strike >= self.barrier.h_T

    def locate(self, S: float, t: float) -> tuple:
        """Barrier level h(t), x = ln(S/h(t)) and the curve integrals
        (rbar, qbar, sigma2bar) over [t, T] at the valuation point.

        The one valuation-point rule every pricer starts from: S must be
        positive and finite, and 0 <= t <= T (checked by the barrier).
        """
        if not (S > 0.0 and math.isfinite(S)):
            raise DomainError(f"spot must be positive and finite, got {S}")
        level, bars = self.barrier.level_and_bars(t)
        return level, math.log(S) - math.log(level), bars


def contract_from_dict(d: dict, curves: CurveSet) -> BarrierContract:
    """Build a contract from its JSON dict form; see README for the schema."""
    for key in ("strike", "expiry", "side", "style", "barrier"):
        if key not in d:
            raise LoadError(f"contract missing field {key!r}")
    bspec = d["barrier"]
    if not isinstance(bspec, dict):
        raise LoadError("contract field 'barrier' must be an object")
    T = float(d["expiry"])
    try:
        if "C" in bspec:
            barrier = barrier_from_terminal(float(bspec["h_T"]), float(bspec["C"]),
                                            curves, T)
        elif {"h_t0", "t0", "h_T"} <= set(bspec):
            c = c_from_levels(float(bspec["h_t0"]), float(bspec["t0"]),
                              float(bspec["h_T"]), T, curves)
            barrier = barrier_from_terminal(float(bspec["h_T"]), c, curves, T)
        else:
            raise LoadError(
                "barrier needs either {h_T, C} or {h_t0, t0, h_T}")
        return BarrierContract(strike=float(d["strike"]), expiry=T,
                               side=d["side"], style=d["style"], barrier=barrier)
    except KeyError as exc:
        raise LoadError(f"barrier missing field {exc}") from exc
    except DomainError as exc:
        raise LoadError(str(exc)) from exc


def load_contract(path: str, curves: CurveSet) -> BarrierContract:
    """Read a BarrierContract from a JSON file against the given curves."""
    return _read_json(path, lambda raw: contract_from_dict(raw, curves))


__all__ = [
    "MovingBarrier", "BarrierContract", "barrier_from_terminal",
    "c_from_levels", "contract_from_dict", "load_contract",
    "C_MAX", "Side", "Style",
]
