"""Closed-form prices for down-type options on the admissible moving barrier.

Every pricer here is one call into a single core.  A *leg* is a function of
the spot: the vanilla call quote, or the forward leg whose moneyness is
measured against h(T).  The knockout value of a leg is

    leg(S) - (S/h(t))^(2C+1) * leg(h(t)^2/S),

the leg at the spot minus the power-scaled leg at the image spot.  The image
spot is computed as h*(h/S) and the power factor as exp((2C+1)*(ln S - ln h)),
so at S = h(t) both terms coincide bit for bit and knockout prices vanish
exactly.

The knockout put is the call leg minus the forward leg, subtracted term by
term; the knock-in styles come from in + out = vanilla.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import reduce
from operator import sub
from typing import Optional

from .contract import BarrierContract
from .errors import DomainError, RegimeError
from .vanilla import norm_cdf, quote_from_bars


@dataclass(frozen=True)
class PriceBreakdown:
    """Price plus every intermediate the formulas produce.

    For out-styles price = vanilla_term - image_term; for in-styles
    price = image_term.  d and power fields are None on degenerate branches
    (knocked out below the barrier, knocked in, expired).
    status is one of "live", "knocked_out", "knocked_in", "expired".
    """

    price: float
    vanilla_term: float
    image_term: float
    d1: Optional[float]
    d1_prime: Optional[float]
    d2: Optional[float]
    d2_prime: Optional[float]
    C: float
    power_factor: Optional[float]
    rbar: float
    qbar: float
    sigma2bar: float
    status: str

    def to_dict(self) -> dict:
        return asdict(self)


def _require_regime(contract: BarrierContract):
    if not contract.in_closed_form_regime:
        raise RegimeError(
            f"strike {contract.strike} below terminal barrier {contract.barrier.h_T}; "
            "no closed form here, use the heat-kernel or PDE pricer")


def _power_factor(x: float, C: float) -> float:
    log_power = (2.0 * C + 1.0) * x
    try:
        return math.exp(log_power)
    except OverflowError:
        raise DomainError(
            f"power factor exp({log_power:.3g}) overflows; C={C} too large "
            "for this spot/barrier ratio") from None


def _expired(S: float, contract: BarrierContract, kind: str,
             knock_in: bool) -> PriceBreakdown:
    K = contract.strike
    alive = S > contract.barrier.h_T
    if kind == "forward":
        intrinsic = S - K
    elif kind == "put":
        intrinsic = max(K - S, 0.0)
    else:
        intrinsic = max(S - K, 0.0)
    if knock_in:
        price = img = 0.0 if alive else intrinsic
    else:
        price = intrinsic if alive else 0.0
        img = intrinsic - price
    return PriceBreakdown(price=price, vanilla_term=intrinsic, image_term=img,
                          d1=None, d1_prime=None, d2=None, d2_prime=None,
                          C=contract.barrier.C, power_factor=None,
                          rbar=0.0, qbar=0.0, sigma2bar=0.0, status="expired")


def _call_leg(spot: float, K: float, h_T: float, rbar: float, qbar: float,
              s2: float):
    """Vanilla call quote: (price, d1, d1')."""
    q = quote_from_bars(spot, K, rbar, qbar, s2, "call")
    return q.price, q.d1, q.d1_prime


def _forward_leg(spot: float, K: float, h_T: float, rbar: float, qbar: float,
                 s2: float):
    """e^{-qbar} spot N(db1) - K e^{-rbar} N(db1'), moneyness measured
    against the terminal barrier level rather than the strike."""
    sd = math.sqrt(s2)
    db1 = (math.log(spot) - math.log(h_T) + rbar - qbar + 0.5 * s2) / sd
    db1p = db1 - sd
    value = (math.exp(-qbar) * spot * norm_cdf(db1)
             - K * math.exp(-rbar) * norm_cdf(db1p))
    return value, db1, db1p


# the put is the call leg minus the forward leg, term by term
_LEGS = {"call": (_call_leg,), "forward": (_forward_leg,),
         "put": (_call_leg, _forward_leg)}


def _leg_pair(leg, S: float, lev: float, contract: BarrierContract, bars):
    """The leg at S and at the image spot h*(h/S), each (value, d, d')."""
    K, h_T = contract.strike, contract.barrier.h_T
    image = lev * (lev / S)
    if image == 0.0:
        raise DomainError(f"image spot h(t)^2/S underflows to 0 at S={S}, "
                          f"h(t)={lev}; spot too far above the barrier")
    return leg(S, K, h_T, *bars), leg(image, K, h_T, *bars)


def _closed_form(S: float, t: float, contract: BarrierContract, kind: str,
                 knock_in: bool = False) -> PriceBreakdown:
    """The core behind every pricer: kind is "call", "put" or "forward".

    Knockout styles return leg(S) - power * leg(image); knock-in calls and
    puts return vanilla minus that, and the vanilla itself once S <= h(t).
    """
    # t first in min(): a NaN time reaches the check
    lev, x, bars = contract.locate(S, min(t, contract.expiry))
    if kind != "forward":
        _require_regime(contract)
    if t >= contract.expiry:
        return _expired(S, contract, kind, knock_in)
    barrier = contract.barrier
    d = (None, None, None, None)
    power = None
    if knock_in and S <= lev:
        q = quote_from_bars(S, contract.strike, *bars, kind)
        price = van = img = q.price
        d = (q.d1, q.d1_prime, None, None)
        status = "knocked_in"
    elif S < lev:
        price = van = img = 0.0
        status = "knocked_out"
    else:
        pairs = [_leg_pair(leg, S, lev, contract, bars) for leg in _LEGS[kind]]
        power = _power_factor(x, barrier.C)
        images = [power * at_image[0] for _, at_image in pairs]
        if not all(map(math.isfinite, images)):
            raise DomainError("image term overflows; contract too far outside "
                              "the tested parameter range")
        van = reduce(sub, [at_spot[0] for at_spot, _ in pairs])
        img = reduce(sub, images)
        (_, d1, d1p), (_, d2, d2p) = pairs[0]
        d = (d1, d1p, d2, d2p)
        out = van - img
        status = "knocked_out" if S == lev and not knock_in else "live"
        if not knock_in:
            price = out
        elif kind == "call":
            price = img  # vanilla - out: the call's vanilla leg cancels
        else:
            van = quote_from_bars(S, contract.strike, *bars, "put").price
            price = img = van - out
    return PriceBreakdown(price=price, vanilla_term=van, image_term=img,
                          d1=d[0], d1_prime=d[1], d2=d[2], d2_prime=d[3],
                          C=barrier.C, power_factor=power, rbar=bars[0],
                          qbar=bars[1], sigma2bar=bars[2], status=status)


def d_values(S: float, t: float, contract: BarrierContract):
    """The four d arguments (d1, d1', d2, d2') of the knockout call.

    d2 is d1 evaluated at the image spot h(t)^2/S; primes subtract the total
    volatility sqrt(sigma2bar).  Computed through the same leg evaluation
    the pricers use, so a breakdown carries these exact numbers.
    """
    if t >= contract.expiry:
        raise DomainError(f"d values need t < T (sigma2bar > 0), "
                          f"got t={t}, T={contract.expiry}")
    lev, _, bars = contract.locate(S, t)
    (_, d1, d1p), (_, d2, d2p) = _leg_pair(_call_leg, S, lev, contract, bars)
    return d1, d1p, d2, d2p


def down_and_out_call(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Knockout call: vanilla minus power-scaled vanilla at the image spot.

    Returns 0 with a knocked_out status for S <= h(t); the value at
    S = h(t) is exactly zero because both terms coincide there.
    """
    return _closed_form(S, t, contract, "call")


def down_and_in_call(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Knock-in call: the image term itself; vanilla once S <= h(t)."""
    return _closed_form(S, t, contract, "call", knock_in=True)


def forward_barrier_value(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Knockout forward: pays S_T - K at expiry unless the barrier was hit.

    The cash legs carry the strike K; the d arguments measure moneyness
    against h(T) because the payoff region boundary is the terminal barrier.
    Valid for any strike (the payoff has no kink above the barrier).
    """
    return _closed_form(S, t, contract, "forward")


def down_and_out_put(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Knockout put: knockout call minus knockout forward (same strike).

    The subtraction happens term by term, so the direct/image split of the
    breakdown is preserved and the price vanishes exactly at the barrier.
    """
    return _closed_form(S, t, contract, "put")


def down_and_in_put(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Knock-in put: vanilla put minus knockout put; vanilla once S <= h(t)."""
    return _closed_form(S, t, contract, "put", knock_in=True)


_PRICERS = {
    ("call", "down_and_out"): down_and_out_call,
    ("call", "down_and_in"): down_and_in_call,
    ("put", "down_and_out"): down_and_out_put,
    ("put", "down_and_in"): down_and_in_put,
}


def price_contract(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Dispatch on the contract's side and style."""
    return _PRICERS[(contract.side, contract.style)](S, t, contract)


def constant_case_parity_gap(S: float, t: float, S_B: float, a_rate: float,
                             K: float, T: float, r: float, q: float,
                             sigma: float, printed: bool = False) -> float:
    """Residual of the constant-parameter put/call parity identity.

    Prices the exponential barrier h(t) = S_B e^{-a(T-t)} through the general
    machinery (C = -(r - q - a)/sigma^2) and evaluates the flat-parameter
    identity with direct scalar arithmetic.  Returns left minus right, which
    is zero up to roundoff.  With printed=True the left side uses N(d1')
    instead of N(d1) on the spot leg, reproducing a sign-of-typo variant
    whose gap is systematically nonzero; the CLI reports both.
    """
    from .curves import CurveSet
    from .contract import barrier_from_terminal, BarrierContract as _BC

    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    tau = T - t
    if tau <= 0.0:
        raise DomainError(f"need t < T, got t={t}, T={T}")
    curves = CurveSet.constant(r, q, sigma)
    C = -(r - q - a_rate) / (sigma * sigma)
    barrier = barrier_from_terminal(S_B, C, curves, T)
    contract = _BC(strike=K, expiry=T, side="call", style="down_and_out",
                   barrier=barrier)
    c_do = down_and_out_call(S, t, contract).price
    p_do = down_and_out_put(S, t, contract).price

    sd = sigma * math.sqrt(tau)
    dh1 = (math.log(S / S_B) + (r - q + 0.5 * sigma * sigma) * tau) / sd
    dh1p = dh1 - sd
    dh2 = (math.log(S_B / S) + (r - q - 2.0 * a_rate + 0.5 * sigma * sigma) * tau) / sd
    dh2p = dh2 - sd
    expo = 1.0 - 2.0 * (r - q - a_rate) / (sigma * sigma)
    prefac = math.exp(expo * a_rate * tau) * (S / S_B) ** expo
    spot_leg = norm_cdf(dh1p) if printed else norm_cdf(dh1)
    left = p_do + math.exp(-q * tau) * S * spot_leg
    right = (c_do + K * math.exp(-r * tau) * norm_cdf(dh1p)
             + prefac * (math.exp(-(q + 2.0 * a_rate) * tau) * (S_B * S_B / S)
                         * norm_cdf(dh2)
                         - K * math.exp(-r * tau) * norm_cdf(dh2p)))
    return left - right
