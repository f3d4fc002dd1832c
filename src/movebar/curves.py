"""Piecewise-constant term structures for rates, yields and volatility.

A curve is a right-continuous step function: ``values[i]`` applies on
``[breakpoints[i], breakpoints[i+1])`` and the last value extends flat to
infinity.  Integrals are exact rectangle sums, which is what the pricing
formulas consume (only integrated quantities enter them).
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

from .errors import DomainError, LoadError

SIGMA_MIN = 1e-8


@dataclass(frozen=True)
class TermStructure:
    """One piecewise-constant curve on ``[breakpoints[0], inf)``."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if not bps:
            raise DomainError("curve needs at least one interval")
        if len(bps) != len(vals):
            raise DomainError(
                f"{len(bps)} breakpoints vs {len(vals)} values")
        if bps[0] < 0.0:
            raise DomainError(f"negative start time {bps[0]}")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if any(not math.isfinite(v) for v in vals):
            raise DomainError("curve values must be finite")

    @classmethod
    def constant(cls, value: float) -> "TermStructure":
        return cls((0.0,), (float(value),))

    @property
    def start(self) -> float:
        return self.breakpoints[0]

    def value_at(self, t: float) -> float:
        """Right-continuous lookup; flat extrapolation beyond the last piece."""
        if math.isnan(t):
            raise DomainError(f"t={t} is not a number")
        if t < self.start:
            raise DomainError(f"t={t} precedes curve start {self.start}")
        i = bisect.bisect_right(self.breakpoints, t) - 1
        return self.values[i]

    def integral(self, t: float, T: float) -> float:
        """Exact integral of the step function over [t, T]."""
        return self._overlap_sum(t, T, squared=False)

    def integral_squared(self, t: float, T: float) -> float:
        """Exact integral of the squared step function over [t, T]."""
        return self._overlap_sum(t, T, squared=True)

    def _overlap_sum(self, t: float, T: float, squared: bool) -> float:
        """Sum of value (or value^2) times the overlap of each piece with [t, T]."""
        self._check_window(t, T)
        total = 0.0
        for i, v in enumerate(self.values):
            lo = self.breakpoints[i]
            hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else math.inf
            a = max(t, lo)
            b = min(T, hi)
            if b > a:
                total += (v * v if squared else v) * (b - a)
        return total

    def _check_window(self, t: float, T: float):
        if math.isnan(t) or math.isnan(T):
            raise DomainError(f"integration window [{t}, {T}] is not a number")
        if T < t:
            raise DomainError(f"integration window reversed: [{t}, {T}]")
        if t < self.start:
            raise DomainError(f"t={t} precedes curve start {self.start}")

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    @classmethod
    def from_dict(cls, d: dict) -> "TermStructure":
        try:
            return cls(tuple(d["breakpoints"]), tuple(d["values"]))
        except (KeyError, TypeError) as exc:
            raise LoadError(f"bad curve entry: {exc}") from exc


@dataclass(frozen=True)
class CurveSet:
    """Rate, yield and volatility curves sharing the horizon [0, inf).

    Prices depend on the curves only through ``bars(t, T)``, the integrals
    (rbar, qbar, sigma2bar) of r, q and sigma^2 over [t, T].  The sigma
    curve stores volatilities, not variances; ``bars`` integrates the
    square.  Every sigma value must be at least SIGMA_MIN so the variance
    clock is strictly increasing.
    """

    r: TermStructure
    q: TermStructure
    sigma: TermStructure

    def __post_init__(self):
        for name in ("r", "q", "sigma"):
            curve = getattr(self, name)
            if curve.start != 0.0:
                raise DomainError(f"{name} curve must start at t=0, got {curve.start}")
        if any(v < SIGMA_MIN for v in self.sigma.values):
            raise DomainError(f"sigma values must be >= {SIGMA_MIN}")

    @classmethod
    def constant(cls, r: float, q: float, sigma: float) -> "CurveSet":
        return cls(TermStructure.constant(r),
                   TermStructure.constant(q),
                   TermStructure.constant(sigma))

    def bars(self, t: float, T: float) -> tuple[float, float, float]:
        """(rbar, qbar, sigma2bar): the integrals of r, q and sigma^2 over [t, T]."""
        return (self.r.integral(t, T), self.q.integral(t, T),
                self.sigma.integral_squared(t, T))

    def to_dict(self) -> dict:
        return {"r": self.r.to_dict(), "q": self.q.to_dict(),
                "sigma": self.sigma.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "CurveSet":
        missing = {"r", "q", "sigma"} - set(d)
        if missing:
            raise LoadError(f"curve file missing sections: {sorted(missing)}")
        try:
            return cls(TermStructure.from_dict(d["r"]),
                       TermStructure.from_dict(d["q"]),
                       TermStructure.from_dict(d["sigma"]))
        except DomainError as exc:
            raise LoadError(str(exc)) from exc


def _read_json(path: str, build):
    """build(obj) for the JSON object in the file; LoadErrors name the file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise LoadError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise LoadError(f"{path}: expected a JSON object at top level")
    try:
        return build(raw)
    except LoadError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def load_curves(path: str) -> CurveSet:
    """Read a CurveSet from a JSON file; see README for the schema."""
    return _read_json(path, CurveSet.from_dict)
