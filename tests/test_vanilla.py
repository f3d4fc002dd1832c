"""Vanilla pricing layer: normal CDF, quotes, parity, limits."""
import math

import numpy as np
import pytest

import movebar as mb
from movebar import DomainError, norm_cdf
from movebar.vanilla import quote_from_bars


# reference values from a 40-digit erf evaluation
NORM_TABLE = [
    (0.0, 0.5),
    (1.0, 0.8413447460685429),
    (-1.0, 0.15865525393145705),
    (0.5, 0.6914624612740131),
    (2.5, 0.9937903346742239),
    (-3.0, 0.0013498980316300945),
    (5.0, 0.9999997133484281),
    (-7.5, 3.190891672910896e-14),
    (-37.5, 4.605353009581955e-308),
]


@pytest.mark.parametrize("x,expected", NORM_TABLE)
def test_norm_cdf_anchors(x, expected):
    assert norm_cdf(x) == pytest.approx(expected, rel=1e-13)


def test_norm_cdf_symmetry_and_monotonicity():
    xs = np.linspace(-8.0, 8.0, 161)
    for x in xs:
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-15
    vals = [norm_cdf(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_call_anchor_constant_curves(const_curves):
    q = mb.vanilla_call(100.0, 0.0, 100.0, 1.0, const_curves)
    assert q.price == pytest.approx(10.450583572185565, rel=2e-13)
    assert q.d1 == pytest.approx(0.35, rel=1e-12)
    assert q.d1_prime == pytest.approx(0.15, rel=1e-12)
    assert q.discount_r == pytest.approx(math.exp(-0.05), rel=1e-15)
    assert q.discount_q == 1.0


def test_put_anchor_constant_curves(const_curves):
    q = mb.vanilla_put(100.0, 0.0, 100.0, 1.0, const_curves)
    assert q.price == pytest.approx(5.573526022256968, rel=2e-13)


def test_anchors_two_piece_curves(td_curves):
    call = mb.vanilla_call(100.0, 0.0, 100.0, 1.0, td_curves)
    put = mb.vanilla_put(100.0, 0.0, 100.0, 1.0, td_curves)
    assert call.price == pytest.approx(10.743819791644917, rel=2e-13)
    assert put.price == pytest.approx(7.817780331960433, rel=2e-13)


def test_put_call_parity(const_curves, td_curves):
    for curves in (const_curves, td_curves):
        rbar, qbar, _ = curves.bars(0.1, 1.0)
        for S in (60.0, 90.0, 100.0, 140.0, 250.0):
            call = mb.vanilla_call(S, 0.1, 100.0, 1.0, curves).price
            put = mb.vanilla_put(S, 0.1, 100.0, 1.0, curves).price
            fwd = math.exp(-qbar) * S - 100.0 * math.exp(-rbar)
            assert abs(call - put - fwd) <= 1e-12 * max(1.0, S)


def test_homogeneity(td_curves):
    base = mb.vanilla_call(110.0, 0.0, 95.0, 1.0, td_curves).price
    scaled = mb.vanilla_call(1100.0, 0.0, 950.0, 1.0, td_curves).price
    assert scaled == pytest.approx(10.0 * base, rel=1e-13)


def test_d1_prime_offset():
    q = quote_from_bars(105.0, 95.0, 0.03, 0.01, 0.09, "call")
    assert q.d1_prime == q.d1 - math.sqrt(0.09)


def test_tiny_volatility_approaches_intrinsic():
    flat = mb.CurveSet.constant(0.0, 0.0, mb.SIGMA_MIN)
    call = mb.vanilla_call(110.0, 0.0, 100.0, 1.0, flat).price
    put = mb.vanilla_put(110.0, 0.0, 100.0, 1.0, flat).price
    assert call == pytest.approx(10.0, rel=1e-9)
    assert put == pytest.approx(0.0, abs=1e-12)


def test_deep_out_of_the_money_price_is_clamped_nonnegative():
    q = quote_from_bars(1e8, 1.0, 0.0, 0.0, 0.01, "put")
    assert q.price == 0.0


def test_expired_quotes(const_curves):
    for t in (1.0, 1.5):
        q = mb.vanilla_call(120.0, t, 100.0, 1.0, const_curves)
        assert (q.price, q.d1, q.discount_r) == (20.0, None, 1.0)
        p = mb.vanilla_put(80.0, t, 100.0, 1.0, const_curves)
        assert p.price == 20.0


def test_input_validation(const_curves):
    with pytest.raises(DomainError):
        mb.vanilla_call(0.0, 0.0, 100.0, 1.0, const_curves)
    with pytest.raises(DomainError):
        mb.vanilla_put(100.0, 0.0, -5.0, 1.0, const_curves)
    for K in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"K={K}"):
            mb.vanilla_call(100.0, 0.0, K, 1.0, const_curves)
    with pytest.raises(DomainError):
        quote_from_bars(100.0, 100.0, 0.05, 0.0, 0.0)


def test_monotone_in_spot(td_curves):
    prices = [mb.vanilla_call(S, 0.0, 100.0, 1.0, td_curves).price
              for S in np.linspace(60.0, 160.0, 21)]
    assert all(a < b for a, b in zip(prices, prices[1:]))


def test_vanilla_satisfies_pricing_equation(td_curves, pde_residual):
    def price(S, t):
        return mb.vanilla_call(S, t, 100.0, 1.0, td_curves).price
    for S, t in [(100.0, 0.25), (80.0, 0.3), (120.0, 0.7), (95.0, 0.6)]:
        assert abs(pde_residual(price, S, t, td_curves)) <= 1e-4
