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
    """Price plus the d arguments the barrier formulas reuse.

    d1 and d1_prime are None only for an expired quote (t >= T), where the
    price is the immediate payoff.
    """

    price: float
    d1: Optional[float]
    d1_prime: Optional[float]


def _check_spot_strike(S: float, K: float):
    if not (0.0 < S < math.inf and 0.0 < K < math.inf):
        raise DomainError(f"need S > 0 and K > 0, got S={S}, K={K}")


def quote_from_bars(S: float, K: float, rbar: float, qbar: float,
                    sigma2bar: float, side: str = "call") -> VanillaQuote:
    """Vanilla quote from pre-integrated curve quantities.  Raises
    DomainError naming S if the price is not finite."""
    price, d1, d1p = _leg(S, K, rbar, qbar, sigma2bar, K, 0.0)
    if side != "call":  # _leg has formed both discount factors
        price = max(K * math.exp(-rbar) * norm_cdf(-d1p)
                    - math.exp(-qbar) * S * norm_cdf(-d1), 0.0)
    if not math.isfinite(price):
        raise DomainError(f"vanilla {side} price is {price} at S={S}: "
                          f"outside the float range")
    return VanillaQuote(price=price, d1=d1, d1_prime=d1p)


def _discount(name: str, value: float) -> float:
    """e^(-value); DomainError naming the integral if that overflows."""
    try:
        return math.exp(-value)
    except OverflowError:
        raise DomainError(f"e^(-{name}) overflows at {name}={value}") from None


def _leg(S: float, K: float, rbar: float, qbar: float, sigma2bar: float,
         ref: float, floor: float):
    """(max(e^{-qbar} S N(d) - K e^{-rbar} N(d'), floor), d, d'), d measuring
    the moneyness of S against the level ref and d' = d - sqrt(sigma2bar);
    the vanilla call is the leg at ref = K, floor 0.  The value may leave
    the float range: the knock-in call's legs cancel there."""
    _check_spot_strike(S, K)
    for name, value in (("rbar", rbar), ("qbar", qbar), ("sigma2bar", sigma2bar)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not sigma2bar > 0.0:
        raise DomainError(f"sigma2bar must be positive, got {sigma2bar}")
    sd = math.sqrt(sigma2bar)
    # log difference, not log of ratio: survives extreme S/ref magnitudes
    d = (math.log(S) - math.log(ref) + rbar - qbar + 0.5 * sigma2bar) / sd
    value = (_discount("qbar", qbar) * S * norm_cdf(d)
             - K * _discount("rbar", rbar) * norm_cdf(d - sd))
    return max(value, floor), d, d - sd


def _vanilla(S: float, t: float, K: float, T: float, curves: CurveSet,
             side: str) -> VanillaQuote:
    _check_spot_strike(S, K)
    if t >= T:
        pay = max(S - K, 0.0) if side == "call" else max(K - S, 0.0)
        return VanillaQuote(price=pay, d1=None, d1_prime=None)
    return quote_from_bars(S, K, *curves.bars(t, T), side)


def vanilla_call(S: float, t: float, K: float, T: float,
                 curves: CurveSet) -> VanillaQuote:
    """European call at spot S, time t, strike K, expiry T."""
    return _vanilla(S, t, K, T, curves, "call")


def vanilla_put(S: float, t: float, K: float, T: float,
                curves: CurveSet) -> VanillaQuote:
    """European put at spot S, time t, strike K, expiry T."""
    return _vanilla(S, t, K, T, curves, "put")
