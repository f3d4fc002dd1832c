"""Quadrature oracle: transformed coordinates and agreement with closed forms."""
import math
import re
from pathlib import Path

import numpy as np
import pytest

import movebar as mb
from movebar import AccuracyError, DomainError, heat_kernel_price, to_heat_coords
from movebar.oracles.heatkernel import (_MAX_PANELS, _NODES, _WEIGHTS,
                                        _adaptive_gauss)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_gauss_rule_is_numpys_leggauss():
    # written out bit for bit, so the quadrature keeps its bits
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert [v.hex() for v in _NODES] == [v.hex() for v in nodes]
    assert [v.hex() for v in _WEIGHTS] == [v.hex() for v in weights]


def test_coordinates_anchor(const_contract):
    co = to_heat_coords(100.0, 0.0, const_contract)
    assert co.x == pytest.approx(math.log(100.0 / 90.0), rel=1e-14)
    assert co.tau == pytest.approx(0.04, rel=1e-14)
    assert co.a_T == -0.75
    assert co.rbar == pytest.approx(0.05, rel=1e-14)


def test_coordinates_at_expiry(const_contract):
    # no diffusion time is left at t = T: the oracles' rule is t < T
    with pytest.raises(DomainError, match=r"got t=1\.0, T=1\.0"):
        to_heat_coords(95.0, 1.0, const_contract)


def test_coordinates_validation(const_contract):
    with pytest.raises(DomainError):
        to_heat_coords(-5.0, 0.0, const_contract)
    with pytest.raises(DomainError):
        to_heat_coords(100.0, 1.5, const_contract)
    lev = const_contract.barrier.level(0.0)
    with pytest.raises(DomainError):
        to_heat_coords(0.99 * lev, 0.0, const_contract)


def test_requires_time_to_expiry(const_contract):
    with pytest.raises(DomainError):
        heat_kernel_price(100.0, 1.0, const_contract)


def test_matches_closed_form_constant_curves(const_contract):
    closed = mb.down_and_out_call(100.0, 0.0, const_contract).price
    assert abs(heat_kernel_price(100.0, 0.0, const_contract) - closed) <= 1e-9


def test_matches_closed_form_knockin(const_curves):
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_in", barrier=bar)
    closed = mb.down_and_in_call(100.0, 0.0, con).price
    assert abs(heat_kernel_price(100.0, 0.0, con) - closed) <= 1e-9


def test_matches_closed_form_put(const_curves):
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="put",
                             style="down_and_out", barrier=bar)
    closed = mb.down_and_out_put(100.0, 0.0, con).price
    assert abs(heat_kernel_price(100.0, 0.0, con) - closed) <= 1e-9


def test_matches_closed_form_two_piece(td_contract):
    for C in (-1.0, 0.0, 1.0):
        con = td_contract(C)
        closed = mb.down_and_out_call(100.0, 0.0, con).price
        assert abs(heat_kernel_price(100.0, 0.0, con) - closed) <= 1e-9
    put = td_contract(1.0, side="put")
    closed = mb.down_and_out_put(100.0, 0.0, put).price
    assert abs(heat_kernel_price(100.0, 0.0, put) - closed) <= 1e-9


@pytest.mark.parametrize("pieces", [1, 2, 12])
@pytest.mark.parametrize("style", ["down_and_out", "down_and_in"])
@pytest.mark.parametrize("side", ["call", "put"])
def test_matches_closed_form_on_random_draws(draw_case, side, style, pieces):
    rng = np.random.default_rng(4100 + pieces)
    for _ in range(8):
        con, t = draw_case(rng, constant=pieces == 1, side=side, style=style,
                           pieces=pieces)
        S = con.barrier.level(t) * math.exp(float(rng.uniform(0.0, 0.6)))
        closed = mb.price_contract(S, t, con).price
        assert abs(heat_kernel_price(S, t, con) - closed) <= 1e-9


def test_dropping_the_image_recovers_vanilla(const_curves):
    # at S = h(t), x = 0 and the knock-in's factor exp(-2 x max(xi, 0)/tau)
    # is 1 everywhere: the direct kernel alone integrates to the vanilla
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_in", barrier=bar)
    lev = bar.level(0.0)
    assert to_heat_coords(lev, 0.0, con).x == 0.0
    vanilla = mb.vanilla_call(lev, 0.0, 100.0, 1.0, const_curves).price
    assert abs(heat_kernel_price(lev, 0.0, con) - vanilla) <= 1e-9


def test_worthless_knockin_with_a_large_vanilla_meets_the_tolerance():
    # far above a steeply rising barrier the knock-in is worth 1.2e-15 while
    # the vanilla is worth hundreds: priced as their difference, at tol/2
    # each, it could not meet an absolute 1e-10
    con = _flat_contract(0.05, 0.01, 0.2, -50.0, style="down_and_in")
    S = 1.5 * con.barrier.level(0.0)
    closed = mb.down_and_in_call(S, 0.0, con).price
    assert abs(heat_kernel_price(S, 0.0, con) - closed) <= 1e-10


def test_low_strike_anchor():
    # strike below the terminal barrier, where the knockout call is the
    # knockout forward: quadrature anchor frozen from the 40-digit evaluation
    curves = mb.CurveSet.constant(0.05, 0.02, 0.2)
    bar = mb.barrier_from_terminal(90.0, 0.5, curves, 1.0)
    con = mb.BarrierContract(strike=80.0, expiry=1.0, side="call",
                             style="down_and_out", barrier=bar)
    assert bar.level(0.0) == pytest.approx(85.61064820506426, rel=1e-14)
    got = heat_kernel_price(100.0, 0.0, con, tol=1e-9)
    assert got == pytest.approx(17.584975559863764, abs=1e-9)
    closed = mb.down_and_out_call(100.0, 0.0, con)
    assert closed.price == pytest.approx(17.584975559863764, rel=2e-13)
    assert closed == mb.forward_barrier_value(100.0, 0.0, con)


def test_low_strike_put_has_no_value():
    # the put payoff lives entirely below the barrier: knocked out or worthless
    curves = mb.CurveSet.constant(0.05, 0.02, 0.2)
    bar = mb.barrier_from_terminal(90.0, 0.5, curves, 1.0)
    con = mb.BarrierContract(strike=80.0, expiry=1.0, side="put",
                             style="down_and_out", barrier=bar)
    assert heat_kernel_price(100.0, 0.0, con) == 0.0
    # the closed form's legs, forward minus forward, cancel term by term
    closed = mb.down_and_out_put(100.0, 0.0, con)
    assert (closed.price, closed.vanilla_term, closed.image_term) == (
        0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed, curves_file", [
    (1, "curves_flat.json"), (2, "curves_flat_div.json"),
    (3, "curves_two_piece.json")])
@pytest.mark.parametrize("style", ["down_and_out", "down_and_in"])
@pytest.mark.parametrize("side", ["call", "put"])
def test_low_strikes_match_the_quadrature(seed, curves_file, side, style):
    # K in [40, 90) below h_T 90, C in [-3, 3], S from h(0) to 2.5 h_T
    curves = mb.load_curves(str(FIXTURES / curves_file))
    rng = np.random.default_rng([1900, seed])
    for _ in range(4):
        bar = mb.barrier_from_terminal(90.0, float(rng.uniform(-3.0, 3.0)),
                                       curves, 1.0)
        con = mb.BarrierContract(strike=float(rng.uniform(40.0, 90.0)),
                                 expiry=1.0, side=side, style=style,
                                 barrier=bar)
        S = float(rng.uniform(bar.level(0.0), 225.0))
        closed = mb.price_contract(S, 0.0, con).price
        assert abs(heat_kernel_price(S, 0.0, con, tol=1e-9) - closed) <= 1e-9


def _flat_contract(r, q, sigma, C, side="call", style="down_and_out"):
    curves = mb.CurveSet.constant(r, q, sigma)
    bar = mb.barrier_from_terminal(90.0, C, curves, 1.0)
    return mb.BarrierContract(strike=100.0, expiry=1.0, side=side, style=style,
                              barrier=bar)


# Frozen from an 80-digit mpmath evaluation of the image formula
# leg(S) - (S/h(t))^(2C+1) leg(h(t)^2/S), and vanilla minus that for the
# knock-ins, on flat r 0.05, q 0.01, sigma 0.2 with h_T 90, K 100, T 1, t 0;
# a 120-digit evaluation agrees to 1e-60.  The float closed forms overflow
# at these C.  Each pair is (S = 100, S = 150).  From C = 200 on h(0) is
# below 0.03, so the knockout call is the vanilla call to every digit shown
# and the knock-in call is below 3e-22.
_LARGE_C_CALLS = {"down_and_out": (9.826297782739118, 53.491545413764705),
                  "down_and_in": (0.0, 0.0)}
_LARGE_C_PUTS = {
    ("down_and_out", 200): (0.8757488991208608, 0.04795411579066151),
    ("down_and_out", 400): (0.8942894115904633, 0.0485966234704867),
    ("down_and_out", 600): (0.9006088400504761, 0.04881912297205462),
    ("down_and_out", 1000): (0.9057149846720771, 0.049000232365461374),
    ("down_and_out", 5000): (0.9119020410935227, 0.04922128996640019),
    ("down_and_out", 17000): (0.9130006575298824, 0.04926072835956355),
    ("down_and_in", 200): (5.068507958772853, 0.05905868567023513),
    ("down_and_in", 400): (5.049967446303251, 0.058416177990409934),
    ("down_and_in", 600): (5.043648017843238, 0.05819367848884202),
    ("down_and_in", 1000): (5.038541873221637, 0.058012569095435264),
    ("down_and_in", 5000): (5.032354816800192, 0.05779151149449645),
    ("down_and_in", 17000): (5.031256200363832, 0.05775207310133309),
}


@pytest.mark.parametrize("C", [200, 400, 600, 1000, 5000, 17000])
@pytest.mark.parametrize("style", ["down_and_out", "down_and_in"])
@pytest.mark.parametrize("side", ["call", "put"])
def test_large_C_matches_image_formula_reference(side, style, C):
    ref = (_LARGE_C_CALLS[style] if side == "call"
           else _LARGE_C_PUTS[(style, C)])
    con = _flat_contract(0.05, 0.01, 0.2, float(C), side, style)
    for S, expected in zip((100.0, 150.0), ref):
        assert abs(heat_kernel_price(S, 0.0, con) - expected) <= 1e-10


@pytest.mark.parametrize("r,q,sigma,S,t", [(0.05, 0.01, 0.2, 150.0, 1 - 1e-6),
                                           (0.0, 0.0, 1e-4, 135.0, 0.0)],
                         ids=["near-expiry", "low-vol"])
def test_narrow_kernel_far_above_the_strike_is_priced_whole(r, q, sigma, S, t):
    # the kernel is far narrower than the distance from the strike to the
    # spot: a window not cut to it on both sides lets the Gauss nodes miss
    # half of it
    con = _flat_contract(r, q, sigma, 0.0)
    closed = mb.down_and_out_call(S, t, con).price
    assert abs(heat_kernel_price(S, t, con) - closed) <= 1e-9


def test_in_plus_out_equals_vanilla(td_contract, td_curves):
    out = heat_kernel_price(100.0, 0.0, td_contract(0.5))
    inn = heat_kernel_price(100.0, 0.0, td_contract(0.5, style="down_and_in"))
    vanilla = mb.vanilla_call(100.0, 0.0, 100.0, 1.0, td_curves).price
    assert abs(out + inn - vanilla) <= 2e-9


def test_unattainable_tolerance_raises(const_contract):
    with pytest.raises(AccuracyError):
        heat_kernel_price(100.0, 0.0, const_contract, tol=1e-300)


def test_overflowing_integrand_raises_accuracy_error():
    # 200 years at 200% volatility: e^xi overflows at the top of the window
    curves = mb.CurveSet.constant(0.05, 0.0, 2.0)
    bar = mb.barrier_from_terminal(90.0, 0.0, curves, 200.0)
    con = mb.BarrierContract(strike=100.0, expiry=200.0, side="call",
                             style="down_and_out", barrier=bar)
    with pytest.raises(AccuracyError, match="overflowed"):
        heat_kernel_price(1.2 * bar.level(0.0), 0.0, con)


def test_refinement_stops_at_the_panel_cap():
    # the integral of 1/x over (0, 1] diverges, so halving the first panel
    # never shrinks its estimate: one evaluation of the starting panel, then
    # one per split until there are _MAX_PANELS panels
    calls = []

    def f(xi):
        calls.append(xi.shape)
        return 1.0 / xi

    value, abserr = _adaptive_gauss(f, [0.0, 1.0], epsabs=1e-300)
    assert len(calls) == _MAX_PANELS
    assert abserr > 1e-13 * value > 0.0


def test_kernel_narrower_than_the_float_spacing_raises():
    # sqrt(tau) = 1e-158 beside x = ln(150/90): the kernel's whole window
    # rounds to one float, where the closed form gives 50
    curves = mb.CurveSet.constant(0.05, 0.0, 1e-8)
    bar = mb.barrier_from_terminal(90.0, 0.0, curves, 1e-300)
    con = mb.BarrierContract(strike=100.0, expiry=1e-300, side="call",
                             style="down_and_out", barrier=bar)
    assert mb.price_contract(150.0, 0.0, con).price == 50.0
    with pytest.raises(AccuracyError, match=r"sqrt\(tau\)=1e-158 .* centre "
                                            r"0\.510826"):
        heat_kernel_price(150.0, 0.0, con)


def test_tolerance_below_the_relative_floor_is_named(td_curves):
    # a price of 2,063.73 stops refining at 1e-13 relative, 2.06e-10, above
    # the requested 1e-10 absolute.  The achieved estimate is a difference
    # of near-equal Gauss sums, so its last digits follow numpy's SIMD
    # kernels for exp: it is checked to lie between the two, not pinned
    bar = mb.barrier_from_terminal(90.0, -50.0, td_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out", barrier=bar)
    with pytest.raises(AccuracyError, match=r"achieved \S+, requested "
                       r"1\.000e-10, below the relative floor 1e-13 \* "
                       r"\|value\| = 2\.06e-10$") as info:
        heat_kernel_price(1.5 * bar.level(0.0), 0.0, con, tol=1e-10)
    achieved = float(re.search(r"achieved (\S+),", str(info.value))[1])
    assert 1e-10 < achieved <= 2.06e-10
