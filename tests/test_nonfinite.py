"""Bad inputs: every pricer raises DomainError naming the bad value.

A NaN time, a NaN/infinite/non-positive spot or a negative time must never
come back as a number (or as an untyped error from deep inside the
arithmetic), and every entry point words the spot rule the same way.  A
valid input that pushes an oracle's arithmetic out of the float range raises
AccuracyError rather than returning inf or an untyped error.
"""
import math
import re

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
    "d_values": mb.d_values,
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
                                  "d_values"])
def test_no_time_to_expiry_names_the_time(const_contract, name, t):
    fn = mb.d_values if name == "d_values" else PRICERS[name]
    with pytest.raises(DomainError, match=re.escape(f"got t={t}, T=1.0")):
        fn(100.0, t, const_contract)


def _flat(C, side="call", h_T=90.0):
    curves = mb.CurveSet.constant(0.05, 0.01, 0.2)
    bar = mb.barrier_from_terminal(h_T, C, curves, 1.0)
    return mb.BarrierContract(strike=100.0, expiry=1.0, side=side,
                              style="down_and_out", barrier=bar)


def test_simulation_with_overflowing_payoffs_raises_accuracy_error():
    # the payoffs are finite near 1e300 but their spread is not
    with pytest.raises(mb.AccuracyError, match="std_error is inf"):
        mb.mc_price(1e300, 0.0, _flat(0.0), n_paths=1000, n_steps=8)


# exp(x_max) itself overflows, or only h_T*exp(x_max) does
@pytest.mark.parametrize("h_T,S", [(1e-3, 1e306), (90.0, 1.7e308)],
                         ids=["exp", "h_T*exp"])
def test_lattice_grid_top_outside_float_range_raises_domain_error(h_T, S):
    with pytest.raises(DomainError, match=re.escape(f"S={S}")) as info:
        mb.pde_price(S, 0.0, _flat(1.0, h_T=h_T))
    assert "x_max=" in str(info.value)


@pytest.mark.parametrize("r,C", [(0.05, 1000.0), (50.0, -2.0)])
@pytest.mark.parametrize("name", [
    "forward_barrier_value", "down_and_out_call", "down_and_in_call",
    "down_and_out_put", "down_and_in_put", "d_values"])
def test_underflowing_image_spot_raises_domain_error(name, r, C):
    # h(t)^2/S is 0.0 in floating point, a spot the caller never gave
    curves = mb.CurveSet.constant(r, 0.01, 0.2)
    bar = mb.barrier_from_terminal(90.0, C, curves, 1.0)
    side = "put" if name.endswith("put") else "call"
    style = "down_and_in" if "_in_" in name else "down_and_out"
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side=side,
                             style=style, barrier=bar)
    fn = mb.d_values if name == "d_values" else PRICERS[name]
    named = re.escape(f"S=1e+300, h(t)={bar.level(0.0)!r}")
    with pytest.raises(DomainError, match=named):
        fn(1e300, 0.0, con)


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


# the C = 400 put's window is not empty, but exp(gauge) overflows
@pytest.mark.parametrize("C,S,side", [(-2.0, 1e300, "call"),
                                      (600.0, 100.0, "call"),
                                      (400.0, 100.0, "put")],
                         ids=["underflow", "overflow", "overflow-put"])
def test_gauge_prefactor_outside_float_range_raises_accuracy_error(C, S, side):
    with pytest.raises(mb.AccuracyError, match="gauge exponent"):
        mb.heat_kernel_price(S, 0.0, _flat(C, side))


def test_empty_window_with_tiny_prefactor_is_worth_zero():
    # a put far out of the money: exp(gauge) underflows, the window is empty
    assert mb.heat_kernel_price(1e300, 0.0, _flat(-2.0, "put")) == 0.0
