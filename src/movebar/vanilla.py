"""European vanilla prices under the integrated curves.

Only the integrals rbar, qbar, sigma2bar over [t, T] enter the formulas, so
the same code prices under flat or piecewise-constant curves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .curves import CurveSet
from .errors import DomainError


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error below 1e-15."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class VanillaQuote:
    """Price plus the pieces the barrier formulas reuse.

    d1 and d1_prime are None only for an expired quote (t >= T), where the
    price is the immediate payoff and the discounts are 1.
    """

    price: float
    d1: Optional[float]
    d1_prime: Optional[float]
    discount_r: float
    discount_q: float


def _check_spot_strike(S: float, K: float):
    if not (0.0 < S < math.inf and 0.0 < K < math.inf):
        raise DomainError(f"need S > 0 and K > 0, got S={S}, K={K}")


def quote_from_bars(S: float, K: float, rbar: float, qbar: float,
                    sigma2bar: float, side: str = "call") -> VanillaQuote:
    """Vanilla quote from pre-integrated curve quantities."""
    _check_spot_strike(S, K)
    for name, value in (("rbar", rbar), ("qbar", qbar), ("sigma2bar", sigma2bar)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not sigma2bar > 0.0:
        raise DomainError(f"sigma2bar must be positive, got {sigma2bar}")
    sd = math.sqrt(sigma2bar)
    # log difference, not log of ratio: survives extreme S/K magnitudes
    d1 = (math.log(S) - math.log(K) + rbar - qbar + 0.5 * sigma2bar) / sd
    d1p = d1 - sd
    disc_r = math.exp(-rbar)
    disc_q = math.exp(-qbar)
    if side == "call":
        price = disc_q * S * norm_cdf(d1) - K * disc_r * norm_cdf(d1p)
    else:
        price = K * disc_r * norm_cdf(-d1p) - disc_q * S * norm_cdf(-d1)
    return VanillaQuote(price=max(price, 0.0), d1=d1, d1_prime=d1p,
                        discount_r=disc_r, discount_q=disc_q)


def _vanilla(S: float, t: float, K: float, T: float, curves: CurveSet,
             side: str) -> VanillaQuote:
    _check_spot_strike(S, K)
    if t >= T:
        pay = max(S - K, 0.0) if side == "call" else max(K - S, 0.0)
        return VanillaQuote(price=pay, d1=None, d1_prime=None,
                            discount_r=1.0, discount_q=1.0)
    return quote_from_bars(S, K, *curves.bars(t, T), side)


def vanilla_call(S: float, t: float, K: float, T: float,
                 curves: CurveSet) -> VanillaQuote:
    """European call at spot S, time t, strike K, expiry T."""
    return _vanilla(S, t, K, T, curves, "call")


def vanilla_put(S: float, t: float, K: float, T: float,
                curves: CurveSet) -> VanillaQuote:
    """European put at spot S, time t, strike K, expiry T."""
    return _vanilla(S, t, K, T, curves, "put")
