"""Bad inputs: every pricer raises DomainError naming the bad value.

A NaN time, a NaN/infinite/non-positive spot or a negative time must never
come back as a number (or as an untyped error from deep inside the
arithmetic), and every entry point words the spot rule the same way.  A
valid input that pushes an oracle's arithmetic out of the float range raises
AccuracyError rather than returning inf or an untyped error.
"""
import math
import re
import warnings

import pytest

import movebar as mb
from movebar import DomainError
from movebar.oracles.heatkernel import _payoff_bounds
from movebar.vanilla import quote_from_bars


def _vanilla(fn):
    return lambda S, t, c: fn(S, t, c.strike, c.expiry, c.curves)


PRICERS = {
    "down_and_out_call": mb.down_and_out_call,
    "down_and_in_call": mb.down_and_in_call,
    "forward_barrier_value": mb.forward_barrier_value,
    "down_and_out_put": mb.down_and_out_put,
    "down_and_in_put": mb.down_and_in_put,
    "vanilla_call": _vanilla(mb.vanilla_call),
    "vanilla_put": _vanilla(mb.vanilla_put),
    "heat_kernel_price": mb.heat_kernel_price,
    "pde_price": mb.pde_price,
    "mc_price": lambda S, t, c: mb.mc_price(S, t, c, n_paths=1000, n_steps=4),
}


@pytest.mark.parametrize("S,t", [(math.nan, 0.0), (math.inf, 0.0),
                                 (100.0, math.nan)],
                         ids=["S=nan", "S=inf", "t=nan"])
@pytest.mark.parametrize("name", sorted(PRICERS))
def test_non_finite_input_raises_domain_error(const_contract, name, S, t):
    with pytest.raises(DomainError, match="nan|inf"):
        PRICERS[name](S, t, const_contract)


@pytest.mark.parametrize("name", ["rbar", "qbar", "sigma2bar"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_curve_integral_raises_domain_error(name, value):
    bars = {"rbar": 0.05, "qbar": 0.0, "sigma2bar": 0.04, name: value}
    for side in ("call", "put"):
        with pytest.raises(DomainError, match=f"{name} must be finite, got {value}"):
            quote_from_bars(100.0, 100.0, side=side, **bars)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
@pytest.mark.parametrize("name", ["heat_kernel_price", "pde_price"])
def test_bad_tolerance_raises_domain_error(const_contract, name, tol):
    with pytest.raises(DomainError, match=f"tol must be positive and finite, got {tol}"):
        PRICERS[name](100.0, 0.0, const_contract, tol=tol)


ENTRY_POINTS = {
    **{name: PRICERS[name] for name in (
        "down_and_out_call", "down_and_in_call", "forward_barrier_value",
        "down_and_out_put", "down_and_in_put", "heat_kernel_price",
        "mc_price")},
    "price_contract": mb.price_contract,
    "to_heat_coords": mb.to_heat_coords,
    "PdeGrid.for_contract": mb.PdeGrid.for_contract,
    "pde_price": lambda S, t, c: mb.pde_price(
        S, t, c, grid=mb.PdeGrid(x_max=2.0, n_space=20, n_time=8)),
}


@pytest.mark.parametrize("S,t,match", [
    (0.0, 0.0, "spot must be positive"),
    (-1.0, 0.0, "spot must be positive"),
    (100.0, -0.5, "-0.5"),
], ids=["S=0", "S=-1", "t=-0.5"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bad_valuation_point_is_named(const_contract, name, S, t, match):
    with pytest.raises(DomainError, match=match):
        ENTRY_POINTS[name](S, t, const_contract)


@pytest.mark.parametrize("t", [1.0, 1.5])
@pytest.mark.parametrize("name", ["heat_kernel_price", "pde_price", "mc_price",
                                  "to_heat_coords", "PdeGrid.for_contract"])
def test_no_time_to_expiry_names_the_time(const_contract, name, t):
    fn = PRICERS.get(name) or ENTRY_POINTS[name]
    with pytest.raises(DomainError, match=re.escape(f"got t={t}, T=1.0")):
        fn(100.0, t, const_contract)


def _flat(C, side="call", h_T=90.0, style="down_and_out", K=100.0, T=1.0,
          r=0.05, q=0.01):
    curves = mb.CurveSet.constant(r, q, 0.2)
    bar = mb.barrier_from_terminal(h_T, C, curves, T)
    return mb.BarrierContract(strike=K, expiry=T, side=side, style=style,
                              barrier=bar)


def test_simulation_with_overflowing_payoffs_raises_accuracy_error():
    # the payoffs are finite near 1e300 but their spread is not
    with pytest.raises(mb.AccuracyError, match="std_error is inf"):
        mb.mc_price(1e300, 0.0, _flat(0.0), n_paths=1000, n_steps=8)


# h_T*exp(x_max) overflows, or exp(x_max) itself does, but the lattice
# solves only the put-like remainder, which is 0 at x_max, and adds the
# forward S e^{-qbar} - K e^{-rbar}.  The image term lies far below rounding
# (the closed form cannot form it at h_T 1e-3), so the call is the vanilla
@pytest.mark.parametrize("h_T,S", [(90.0, 1.7e308), (1e-3, 1e306)],
                         ids=["h_T*exp", "exp"])
def test_lattice_prices_a_call_at_the_top_of_the_float_range(h_T, S):
    con = _flat(0.0, h_T=h_T)
    want = mb.vanilla_call(S, 0.0, 100.0, 1.0, con.curves).price
    assert abs(mb.pde_price(S, 0.0, con) - want) <= 1e-12 * want


def test_lattice_forward_outside_float_range_raises_domain_error():
    # with q = -0.1, S e^{-qbar} passes the float range
    curves = mb.CurveSet.constant(0.05, -0.1, 0.2)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(90.0, 0.0, curves, 1.0))
    with pytest.raises(DomainError, match=re.escape("forward S e^(-qbar) - K "
                                                    "e^(-rbar) at S=1.7e+308")):
        mb.pde_price(1.7e308, 0.0, con)


@pytest.mark.parametrize("name", [
    "down_and_out_call", "forward_barrier_value", "vanilla_call",
    "down_and_out_put", "down_and_in_put", "vanilla_put"])
def test_closed_form_outside_float_range_raises_domain_error(name):
    # with q = -0.1, S e^{-qbar} passes the float range, so the vanilla leg
    # at S is inf, and the put's difference of legs nan
    side = "put" if name.endswith("put") else "call"
    style = "down_and_in" if "_in_" in name else "down_and_out"
    curves = mb.CurveSet.constant(0.05, -0.1, 0.2)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side=side, style=style,
                             barrier=mb.barrier_from_terminal(90.0, 0.0, curves, 1.0))
    with pytest.raises(DomainError, match=re.escape("at S=1.7e+308")):
        PRICERS[name](1.7e308, 0.0, con)


def test_knock_in_call_whose_vanilla_leg_overflows_keeps_its_price():
    # the knock-in call is its image term, worth 0 this far above the
    # barrier, though its vanilla leg at S is inf
    curves = mb.CurveSet.constant(0.05, -0.1, 0.2)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_in",
                             barrier=mb.barrier_from_terminal(90.0, 0.0, curves, 1.0))
    assert mb.down_and_in_call(1.7e308, 0.0, con).price == 0.0


# r = +-3000 either side of mid-horizon: e^{-rbar} from t to T is 1 at t = 0
# but e^{750} at t = 0.75, so the lattice's intermediate values cannot be held
@pytest.mark.parametrize("grid,error,match", [
    (mb.PdeGrid(x_max=3.0, n_space=60, n_time=40), DomainError,
     "call boundary at t=0.75 is outside the float range"),
    (None, mb.AccuracyError, "lattice values leave the float range at t=0.7"),
], ids=["explicit-grid", "default-grid"])
def test_lattice_overflow_raises_typed_error(grid, error, match):
    curves = mb.CurveSet(mb.TermStructure((0.0, 0.5), (3000.0, -3000.0)),
                         mb.TermStructure.constant(0.0),
                         mb.TermStructure.constant(0.2))
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(90.0, 0.0, curves, 1.0))
    with pytest.raises(error, match=match):
        mb.pde_price(100.0, 0.0, con, grid=grid)


@pytest.mark.parametrize("r,C", [(0.05, 1000.0), (50.0, -2.0)])
@pytest.mark.parametrize("name", [
    "forward_barrier_value", "down_and_out_call", "down_and_in_call",
    "down_and_out_put", "down_and_in_put"])
def test_underflowing_image_spot_raises_domain_error(name, r, C):
    # h(t)^2/S is 0.0 in floating point, a spot the caller never gave
    curves = mb.CurveSet.constant(r, 0.01, 0.2)
    bar = mb.barrier_from_terminal(90.0, C, curves, 1.0)
    side = "put" if name.endswith("put") else "call"
    style = "down_and_in" if "_in_" in name else "down_and_out"
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side=side,
                             style=style, barrier=bar)
    named = re.escape(f"S=1e+300, h(t)={bar.level(0.0)!r}")
    with pytest.raises(DomainError, match=named):
        PRICERS[name](1e300, 0.0, con)


def test_far_knockout_put_window_holds_the_drifted_kernel():
    # at C = 400 the kernel's centre x - a_T*tau lies near the strike while x
    # itself is 16 above the barrier; the simulation prices this put near 0.9
    con = _flat(400.0, "put")
    co = mb.to_heat_coords(100.0, 0.0, con)
    kink = math.log(100.0 / 90.0)
    bounds = _payoff_bounds("put", kink, co.x, co.tau, co.a_T, knockout=True)
    assert bounds is not None
    lo, hi, _ = bounds
    assert lo == 0.0 and hi == kink


def test_unattainable_tolerance_on_a_huge_price_raises_accuracy_error():
    # a knockout call worth about 1e300 cannot meet an absolute 1e-10
    with pytest.raises(mb.AccuracyError, match="quadrature achieved"):
        mb.heat_kernel_price(1e300, 0.0, _flat(-2.0, "call"))


def test_empty_window_with_tiny_prefactor_is_worth_zero():
    # a put far out of the money: both centres of the integrand lie near
    # xi = 686, so no kernel mass reaches the strike's kink at xi = 0.105 and
    # the window between the barrier and the strike is empty
    assert mb.heat_kernel_price(1e300, 0.0, _flat(-2.0, "put")) == 0.0


@pytest.mark.parametrize("name,K", [
    ("forward_barrier_value", 100.0), ("forward_barrier_value", 80.0),
    ("down_and_out_call", 80.0), ("down_and_in_call", 80.0),
    ("down_and_out_put", 80.0), ("down_and_in_put", 80.0)])
def test_underflowing_total_variance_raises_domain_error(name, K):
    # at expiry 5e-324, sigma2bar = 0.04 * T is 0.0: the legs measured
    # against h_T refuse it as the vanilla quote does
    side = "put" if name.endswith("put") else "call"
    style = "down_and_in" if "_in_" in name else "down_and_out"
    with pytest.raises(DomainError, match="sigma2bar must be positive, got 0.0"):
        PRICERS[name](100.0, 0.0, _flat(0.0, side, style=style, K=K, T=5e-324))


@pytest.mark.parametrize("K", [100.0, 80.0])
@pytest.mark.parametrize("name", sorted(set(PRICERS) - {"heat_kernel_price",
                                                       "pde_price"}))
def test_overflowing_discount_factor_raises_domain_error(name, K):
    # r = q = -800 keeps h(t) at 90, but e^{-rbar} and e^{-qbar} are e^800
    side = "put" if name.endswith("put") else "call"
    style = "down_and_in" if "_in_" in name else "down_and_out"
    with pytest.raises(DomainError, match=r"e\^\(-[rq]bar\) overflows at "
                                          r"[rq]bar=-800\.0"):
        PRICERS[name](100.0, 0.0, _flat(0.0, side, style=style, K=K,
                                        r=-800.0, q=-800.0))


@pytest.mark.parametrize("T,variance", [(1e-320, "9.88e-323"), (5e-324, "0")])
def test_simulation_refuses_a_step_variance_below_the_float_range(T, variance):
    # -2/variance, the crossing exponent's factor, overflows or divides by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mb.AccuracyError,
                           match=f"step variance {variance} is too small"):
            mb.mc_price(100.0, 0.0, _flat(0.0, T=T),
                        n_paths=1000, n_steps=4)


def test_lattice_refuses_a_step_that_underflows():
    # (T - t)/n_time is 0.0; a put struck below h_T escapes the dx rules
    con = _flat(0.0, "put", K=80.0, T=5e-324)
    with pytest.raises(mb.AccuracyError,
                       match=re.escape("step (T - t)/n_time underflows to 0")):
        mb.pde_price(100.0, 0.0, con)
