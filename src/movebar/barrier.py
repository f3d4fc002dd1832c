"""Closed-form prices for down-type options on the admissible moving barrier.

Every pricer here is one call into a single core.  A *leg* is one
Black-Scholes expression in the spot, e^{-qbar} S N(d) - K e^{-rbar} N(d'),
with d measuring the moneyness of S against a level: max(K, h_T) for the
call, h_T for the forward.  The knockout value of a leg is

    leg(S) - (S/h(t))^(2C+1) * leg(h(t)^2/S),

the leg at the spot minus the power-scaled leg at the image spot.  The image
spot is computed as h*(h/S) and the power factor as exp((2C+1)*(ln S - ln h)),
so at S = h(t) both terms coincide bit for bit and knockout prices vanish
exactly.

The knockout put is the call leg minus the forward leg, subtracted term by
term; the knock-in styles come from in + out = vanilla.  Below K = h_T a
surviving path ends at S_T > h(T) = h_T > K, so the call pays S_T - K: its
leg, measured against max(K, h_T) = h_T, is the forward leg, and the put's
legs cancel to exactly 0.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict
from functools import reduce
from operator import sub
from typing import Optional

from .contract import BarrierContract, barrier_from_terminal
from .curves import CurveSet
from .errors import DomainError
from .vanilla import _leg, norm_cdf, quote_from_bars

_LOG_MAX = math.log(sys.float_info.max)  # exp overflows beyond it


@dataclass(frozen=True)
class PriceBreakdown:
    """Price plus every intermediate the formulas produce.

    For out-styles price = vanilla_term - image_term; for in-styles
    price = image_term.  Below K = h_T the out-styles' vanilla_term is the
    forward leg.  d and power fields are None on degenerate branches
    (knocked out below the barrier, knocked in, expired), and power_factor
    is None for the put below K = h_T, whose images cancel like its legs.
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


def _expired(S: float, contract: BarrierContract, kind: str,
             knock_in: bool) -> PriceBreakdown:
    K = contract.strike
    alive = S > contract.barrier.h_T
    intrinsic = {"forward": S - K, "call": max(S - K, 0.0),
                 "put": max(K - S, 0.0)}[kind]
    if knock_in:
        price = img = 0.0 if alive else intrinsic
    else:
        price = intrinsic if alive else 0.0
        img = intrinsic - price
    return PriceBreakdown(price=price, vanilla_term=intrinsic, image_term=img,
                          d1=None, d1_prime=None, d2=None, d2_prime=None,
                          C=contract.barrier.C, power_factor=None,
                          rbar=0.0, qbar=0.0, sigma2bar=0.0, status="expired")


def _legs(kind: str, contract: BarrierContract) -> tuple:
    """(level, floor) of each leg of kind "call", "put" or "forward".  The
    put is the call leg minus the forward leg, term by term.  The call leg
    is measured against max(K, h_T) and floored at 0, its payoff being
    never negative: the vanilla call from K = h_T up and the floored
    forward leg below, where the put takes it for both legs and cancels."""
    K, h_T = contract.strike, contract.barrier.h_T
    call = (max(K, h_T), 0.0)
    forward = (h_T, -math.inf)
    put = (call, forward if K >= h_T else call)
    return {"call": (call,), "forward": (forward,), "put": put}[kind]


def _leg_pair(leg, S: float, lev: float, contract: BarrierContract, bars):
    """The leg at S and at the image spot h*(h/S), each (value, d, d')."""
    image = lev * (lev / S)
    if image == 0.0:
        raise DomainError(f"image spot h(t)^2/S underflows to 0 at S={S}, "
                          f"h(t)={lev}; spot too far above the barrier")
    return tuple(_leg(s, contract.strike, *bars, *leg) for s in (S, image))


def _closed_form(S: float, t: float, contract: BarrierContract, kind: str,
                 knock_in: bool = False) -> PriceBreakdown:
    """The core behind every pricer: kind is "call", "put" or "forward".

    Knockout styles return leg(S) - power * leg(image); knock-in calls and
    puts return vanilla minus that, and the vanilla itself once S <= h(t).
    """
    # t first in min(): a NaN time reaches the check
    lev, x, bars = contract.locate(S, min(t, contract.expiry))
    if t >= contract.expiry:
        return _expired(S, contract, kind, knock_in)
    barrier, K = contract.barrier, contract.strike
    d = (None, None, None, None)
    power = None
    if knock_in and S <= lev:
        q = quote_from_bars(S, K, *bars, kind)
        price = van = img = q.price
        d = (q.d1, q.d1_prime, None, None)
        status = "knocked_in"
    elif S < lev:
        price = van = img = 0.0
        status = "knocked_out"
    else:
        pairs = [_leg_pair(leg, S, lev, contract, bars)
                 for leg in _legs(kind, contract)]
        if kind == "put" and K < barrier.h_T:
            images = [0.0, 0.0]  # the put below K = h_T: they cancel
        else:
            log_power = (2.0 * barrier.C + 1.0) * x
            power = math.exp(log_power) if log_power <= _LOG_MAX else math.inf
            images = [power * at_image[0] for _, at_image in pairs]
            if not all(map(math.isfinite, images)):
                raise DomainError(
                    f"image term overflows: power factor exp({log_power:.3g}) "
                    f"at C={barrier.C}; C too large for this spot/barrier ratio")
        van = reduce(sub, [at_spot[0] for at_spot, _ in pairs])
        img = reduce(sub, images)
        (_, d1, d1p), (_, d2, d2p) = pairs[0]
        d = (d1, d1p, d2, d2p)
        out = van - img
        status = "knocked_out" if S == lev and not knock_in else "live"
        if not knock_in:
            price = out
        elif kind == "call" and K >= barrier.h_T:
            price = img  # vanilla - out: the call's vanilla leg cancels
        else:
            van = quote_from_bars(S, K, *bars, kind).price
            price = img = van - out
    if not math.isfinite(price):
        raise DomainError(f"{kind} price is {price} at S={S}: outside the "
                          f"float range")
    return PriceBreakdown(price=price, vanilla_term=van, image_term=img,
                          d1=d[0], d1_prime=d[1], d2=d[2], d2_prime=d[3],
                          C=barrier.C, power_factor=power, rbar=bars[0],
                          qbar=bars[1], sigma2bar=bars[2], status=status)


def d_values(S: float, t: float, contract: BarrierContract):
    """The four d arguments (d1, d1', d2, d2') of the knockout call, whose
    leg is the forward leg below K = h_T.

    d2 is d1 evaluated at the image spot h(t)^2/S; primes subtract the total
    volatility sqrt(sigma2bar).  Computed through the same leg evaluation
    the pricers use, so a breakdown carries these exact numbers.
    """
    if t >= contract.expiry:
        raise DomainError(f"d values need t < T (sigma2bar > 0), "
                          f"got t={t}, T={contract.expiry}")
    lev, _, bars = contract.locate(S, t)
    leg, = _legs("call", contract)
    (_, d1, d1p), (_, d2, d2p) = _leg_pair(leg, S, lev, contract, bars)
    return d1, d1p, d2, d2p


def down_and_out_call(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Knockout call: vanilla minus power-scaled vanilla at the image spot,
    and the knockout forward when K < h_T.

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


def price_contract(S: float, t: float, contract: BarrierContract) -> PriceBreakdown:
    """Price the contract's own side and style."""
    return _closed_form(S, t, contract, contract.side,
                        knock_in=contract.style == "down_and_in")


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
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    tau = T - t
    if tau <= 0.0:
        raise DomainError(f"need t < T, got t={t}, T={T}")
    curves = CurveSet.constant(r, q, sigma)
    C = -(r - q - a_rate) / (sigma * sigma)
    barrier = barrier_from_terminal(S_B, C, curves, T)
    contract = BarrierContract(strike=K, expiry=T, side="call",
                               style="down_and_out", barrier=barrier)
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
