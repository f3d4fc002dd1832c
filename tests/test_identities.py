"""The model's exact identities as properties over the random-book domain.

Curves have 1-12 pieces switching inside (t, T); K in [50, 150],
h_T = K·[0.75, 0.98], C in [-1.5, 1.5] and S = h(t)·e^[0, 1], the ranges of
the benchmark's ``book`` workload.  Half the examples draw h_T = K·[0.75, 1.25]
instead, so the identities also hold below K = h_T, where the knockouts are
the knockout forward and exactly 0; there the put is also drawn with C up
to 400 and spots around h_T, where the power factor overflows.
Derandomized, so every run checks the same examples.
"""
import dataclasses
import math
from itertools import accumulate

from hypothesis import given, settings, strategies as st

import movebar as mb

TOL = 1e-12

PROPERTY = settings(derandomize=True, deadline=None)


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@st.composite
def _curves(draw, t, T):
    pieces = draw(st.integers(1, 12))
    r, q, sigma = (_floats(0.0, 0.06), _floats(0.0, 0.06), _floats(0.15, 0.4))
    if pieces == 1:
        return mb.CurveSet.constant(draw(r), draw(q), draw(sigma))
    # cumulative sums of positive gaps fill (lo, hi), strictly increasing
    gaps = draw(st.lists(_floats(0.5, 1.5), min_size=pieces, max_size=pieces))
    lo, hi = t + 0.1 * (T - t), T - 0.1 * (T - t)
    bps = (0.0, *(lo + (hi - lo) * c / sum(gaps)
                  for c in accumulate(gaps[:-1])))

    def curve(values):
        return mb.TermStructure(
            bps, draw(st.lists(values, min_size=pieces, max_size=pieces)))
    return mb.CurveSet(curve(r), curve(q), curve(sigma))


@st.composite
def book_cases(draw, barrier_over_strike=(0.75, 0.98), C=(-1.5, 1.5)):
    """(call, put, t, level): down-and-out contracts on one barrier, with
    h_T = K times a draw from barrier_over_strike and C drawn from C."""
    t = draw(_floats(0.0, 0.5))
    T = t + draw(_floats(0.5, 2.0))
    curves = draw(_curves(t, T))
    K = draw(_floats(50.0, 150.0))
    h_T = K * draw(_floats(*barrier_over_strike))
    bar = mb.barrier_from_terminal(h_T, draw(_floats(*C)), curves, T)
    call, put = (mb.BarrierContract(strike=K, expiry=T, side=side,
                                    style="down_and_out", barrier=bar)
                 for side in ("call", "put"))
    return call, put, t, bar.level(t)


every_strike_cases = st.one_of(book_cases(), book_cases((0.75, 1.25)))
# h_T at least 1% above K, so that rounding cannot make K = h_T
low_strike_cases = book_cases((1.01, 1.25))
low_strike_large_C_cases = book_cases((1.01, 1.25), C=(-1.5, 400.0))
spot_factors = _floats(0.0, 1.0).map(math.exp)


@PROPERTY
@given(every_strike_cases, spot_factors)
def test_in_plus_out_is_vanilla(case, factor):
    call, put, t, level = case
    S = level * factor
    for con, out_fn, in_fn, van_fn in (
            (call, mb.down_and_out_call, mb.down_and_in_call, mb.vanilla_call),
            (put, mb.down_and_out_put, mb.down_and_in_put, mb.vanilla_put)):
        van = van_fn(S, t, con.strike, con.expiry, con.curves).price
        total = out_fn(S, t, con).price + in_fn(S, t, con).price
        assert abs(total - van) <= TOL * max(1.0, van)


@PROPERTY
@given(every_strike_cases, spot_factors)
def test_put_plus_forward_is_call(case, factor):
    call, put, t, level = case
    S = level * factor
    c_do = mb.down_and_out_call(S, t, call).price
    p_do = mb.down_and_out_put(S, t, put).price
    fwd = mb.forward_barrier_value(S, t, call).price
    assert abs(p_do + fwd - c_do) <= TOL * max(1.0, abs(c_do))


@PROPERTY
@given(every_strike_cases)
def test_knockout_is_zero_on_the_barrier(case):
    call, put, t, level = case
    assert mb.down_and_out_call(level, t, call).price == 0.0
    assert mb.down_and_out_put(level, t, put).price == 0.0


@PROPERTY
@given(low_strike_cases, spot_factors)
def test_low_strike_knockouts_are_the_forward_and_zero(case, factor):
    call, put, t, level = case
    S = level * factor
    assert (mb.down_and_out_call(S, t, call)
            == mb.forward_barrier_value(S, t, call))
    assert mb.down_and_out_put(S, t, put).price == 0.0
    in_put = dataclasses.replace(put, style="down_and_in")
    assert (mb.down_and_in_put(S, t, in_put).price
            == mb.vanilla_put(S, t, put.strike, put.expiry, put.curves).price)


@PROPERTY
@given(low_strike_large_C_cases, _floats(-1.0, 1.0).map(math.exp))
def test_low_strike_put_is_zero_at_any_C(case, factor):
    # spots around h_T: at large C, h(t) lies far below them and the power
    # factor overflows
    _, put, t, _ = case
    S = put.barrier.h_T * factor
    assert mb.down_and_out_put(S, t, put).price == 0.0
    in_put = dataclasses.replace(put, style="down_and_in")
    assert (mb.down_and_in_put(S, t, in_put).price
            == mb.vanilla_put(S, t, put.strike, put.expiry, put.curves).price)


@PROPERTY
@given(low_strike_cases, _floats(-1.0, 1.0).map(math.exp))
def test_low_strike_expiry_settles_above_the_barrier_only(case, factor):
    call, put, _, _ = case
    K, T, h_T = call.strike, call.expiry, call.barrier.h_T
    S = h_T * factor
    alive = S > h_T
    assert mb.down_and_out_call(S, T, call).price == (S - K if alive else 0.0)
    assert mb.down_and_out_put(S, T, put).price == 0.0
