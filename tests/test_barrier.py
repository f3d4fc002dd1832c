"""Closed-form barrier prices: frozen anchors, identities, degenerate branches.

Price anchors were frozen from a 40-digit mpmath evaluation of the image
representation; each case was independently confirmed there by quadrature
before freezing.
"""
import json
import math

import numpy as np
import pytest

import movebar as mb
from movebar import DomainError


S0, K0, T0 = 100.0, 100.0, 1.0


@pytest.fixture
def a_contracts(const_curves):
    """Constant-curve case: r=5%, q=0, sigma=20%, h_T=90, C=-1.25 (flat level)."""
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, T0)
    def make(side, style):
        return mb.BarrierContract(strike=K0, expiry=T0, side=side, style=style,
                                  barrier=bar)
    return make


def test_knockout_call_anchor(a_contracts):
    out = mb.down_and_out_call(S0, 0.0, a_contracts("call", "down_and_out"))
    assert out.price == pytest.approx(8.665471658245668, rel=2e-13)
    assert out.vanilla_term == pytest.approx(10.450583572185565, rel=2e-13)
    assert out.status == "live"
    assert out.price == out.vanilla_term - out.image_term


def test_knockin_call_anchor(a_contracts):
    inn = mb.down_and_in_call(S0, 0.0, a_contracts("call", "down_and_in"))
    assert inn.price == pytest.approx(1.7851119139398992, rel=2e-13)
    assert inn.price == inn.image_term


def test_knockout_forward_anchor(a_contracts):
    fwd = mb.forward_barrier_value(S0, 0.0, a_contracts("call", "down_and_out"))
    assert fwd.price == pytest.approx(8.514251281805785, rel=2e-13)


def test_knockout_put_anchor(a_contracts):
    out = mb.down_and_out_put(S0, 0.0, a_contracts("put", "down_and_out"))
    assert out.price == pytest.approx(0.15122037643988243, rel=2e-13)


def test_knockin_put_anchor(a_contracts, const_curves):
    inn = mb.down_and_in_put(S0, 0.0, a_contracts("put", "down_and_in"))
    vput = mb.vanilla_put(S0, 0.0, K0, T0, const_curves).price
    assert inn.price == pytest.approx(vput - 0.15122037643988243, rel=2e-13)


def test_d_value_anchors(a_contracts):
    out = mb.down_and_out_call(S0, 0.0, a_contracts("call", "down_and_out"))
    assert out.d1 == pytest.approx(0.35, rel=1e-12)
    assert out.d1_prime == pytest.approx(0.15, rel=1e-12)
    assert out.d2 == pytest.approx(-0.703605156578263012, rel=1e-13)
    assert out.d2_prime == pytest.approx(-0.903605156578263012, rel=1e-13)


def test_d2_is_d1_at_image_spot(td_contract):
    con = td_contract(0.7)
    lev = con.barrier.level(0.2)
    S = 1.2 * lev
    out = mb.down_and_out_call(S, 0.2, con)
    rbar, qbar, s2 = con.curves.bars(0.2, T0)
    sd = math.sqrt(s2)
    # textbook form with the explicit image spot h^2/S
    ref = (math.log(lev * lev / (S * K0)) + rbar - qbar + 0.5 * s2) / sd
    assert out.d2 == pytest.approx(ref, rel=1e-12)
    assert out.d2_prime == out.d2 - sd


def test_d_values_need_time_to_expiry(a_contracts):
    # at t = T no volatility is left to scale a d by: the breakdown has none
    out = mb.down_and_out_call(S0, T0, a_contracts("call", "down_and_out"))
    assert out.status == "expired"
    assert (out.d1, out.d1_prime, out.d2, out.d2_prime) == (None,) * 4


def test_power_factor_value(a_contracts):
    con = a_contracts("call", "down_and_out")
    out = mb.down_and_out_call(S0, 0.0, con)
    lev = con.barrier.level(0.0)
    assert out.power_factor == pytest.approx((S0 / lev) ** (2 * -1.25 + 1),
                                             rel=1e-12)


EXP_BARRIER_CASE = {
    # exponential barrier through h(T)=90 at decay rate a=3%: r=5%, q=1%,
    # sigma=20%, C=-0.25
    "curves": (0.05, 0.01, 0.2),
    "C": -0.25,
    "level0": 87.34009801936574,
    "vanilla": 9.826297782739118,
    "doc": 8.711682727422926,
    "dic": 1.1146150553161921,
    "fwd": 8.520753179045528,
    "dop": 0.19092954837739833,
}


def test_exponential_barrier_anchors():
    r, q, sg = EXP_BARRIER_CASE["curves"]
    curves = mb.CurveSet.constant(r, q, sg)
    bar = mb.barrier_from_terminal(90.0, EXP_BARRIER_CASE["C"], curves, T0)
    assert bar.level(0.0) == pytest.approx(EXP_BARRIER_CASE["level0"], rel=1e-14)
    def con(side, style):
        return mb.BarrierContract(strike=K0, expiry=T0, side=side, style=style,
                                  barrier=bar)
    assert mb.vanilla_call(S0, 0.0, K0, T0, curves).price == pytest.approx(
        EXP_BARRIER_CASE["vanilla"], rel=2e-13)
    assert mb.down_and_out_call(S0, 0.0, con("call", "down_and_out")).price \
        == pytest.approx(EXP_BARRIER_CASE["doc"], rel=2e-13)
    assert mb.down_and_in_call(S0, 0.0, con("call", "down_and_in")).price \
        == pytest.approx(EXP_BARRIER_CASE["dic"], rel=2e-13)
    assert mb.forward_barrier_value(S0, 0.0, con("call", "down_and_out")).price \
        == pytest.approx(EXP_BARRIER_CASE["fwd"], rel=2e-13)
    assert mb.down_and_out_put(S0, 0.0, con("put", "down_and_out")).price \
        == pytest.approx(EXP_BARRIER_CASE["dop"], rel=2e-13)


@pytest.mark.parametrize("C,doc,dop", [
    (-1.0, 7.093274187000991, 0.077767129147898403),
    (0.0, 8.879297587407605, 0.12652477894747406),
    (1.0, 9.729993898505728, 0.17056811941291598),
])
def test_anchors_two_piece_curves(td_contract, C, doc, dop):
    out = mb.down_and_out_call(S0, 0.0, td_contract(C))
    assert out.price == pytest.approx(doc, rel=2e-13)
    put = mb.down_and_out_put(S0, 0.0, td_contract(C, side="put"))
    assert put.price == pytest.approx(dop, rel=2e-13)


def test_anchor_two_piece_mid_horizon(td_contract):
    out = mb.down_and_out_call(95.0, 0.25, td_contract(1.0))
    assert out.price == pytest.approx(5.998798981867039, rel=2e-13)
    assert out.rbar == pytest.approx(0.035, rel=1e-14)
    assert out.qbar == pytest.approx(0.01, rel=1e-14)
    assert out.sigma2bar == pytest.approx(0.050625, rel=1e-14)


def test_anchors_second_parameter_point():
    # S=110, K=100, h_T=85, r=3%, q=1.5%, sigma=25%, T=0.75, C=-0.24
    curves = mb.CurveSet.constant(0.03, 0.015, 0.25)
    bar = mb.barrier_from_terminal(85.0, -0.24, curves, 0.75)
    def con(side, style):
        return mb.BarrierContract(strike=100.0, expiry=0.75, side=side,
                                  style=style, barrier=bar)
    assert mb.vanilla_call(110.0, 0.0, 100.0, 0.75, curves).price \
        == pytest.approx(15.451431509191827, rel=2e-13)
    assert mb.vanilla_put(110.0, 0.0, 100.0, 0.75, curves).price \
        == pytest.approx(4.457120321289828, rel=2e-13)
    assert mb.down_and_out_call(110.0, 0.0, con("call", "down_and_out")).price \
        == pytest.approx(15.228365744974944, rel=2e-13)
    assert mb.forward_barrier_value(110.0, 0.0, con("call", "down_and_out")).price \
        == pytest.approx(14.558430692165125, rel=2e-13)
    assert mb.down_and_out_put(110.0, 0.0, con("put", "down_and_out")).price \
        == pytest.approx(0.66993505280981923, rel=2e-13)


def test_exact_zero_at_the_barrier(td_contract, a_contracts):
    cons = [td_contract(C) for C in (-1.0, 0.0, 1.0)]
    cons.append(a_contracts("call", "down_and_out"))
    for con in cons:
        for t in (0.0, 0.3):
            lev = con.barrier.level(t)
            out = mb.down_and_out_call(lev, t, con)
            assert out.price == 0.0
            assert out.status == "knocked_out"
            assert mb.forward_barrier_value(lev, t, con).price == 0.0
            put = mb.BarrierContract(strike=con.strike, expiry=con.expiry,
                                     side="put", style="down_and_out",
                                     barrier=con.barrier)
            assert mb.down_and_out_put(lev, t, put).price == 0.0


def test_knocked_out_below_barrier(td_contract, td_curves):
    con = td_contract(0.0)
    lev = con.barrier.level(0.0)
    out = mb.down_and_out_call(0.9 * lev, 0.0, con)
    assert (out.price, out.vanilla_term, out.image_term) == (0.0, 0.0, 0.0)
    assert out.status == "knocked_out"
    assert out.d1 is None and out.power_factor is None


def test_knocked_in_below_barrier(td_contract, td_curves):
    lev = td_contract(0.0).barrier.level(0.0)
    S = 0.9 * lev
    inn = mb.down_and_in_call(S, 0.0, td_contract(0.0, style="down_and_in"))
    assert inn.price == mb.vanilla_call(S, 0.0, K0, T0, td_curves).price
    assert inn.status == "knocked_in"
    pin = mb.down_and_in_put(S, 0.0,
                             td_contract(0.0, side="put", style="down_and_in"))
    assert pin.price == mb.vanilla_put(S, 0.0, K0, T0, td_curves).price


def test_expired_settlement(a_contracts):
    # barrier never hit: knockout pays intrinsic, knock-in pays nothing
    out = mb.down_and_out_call(120.0, T0, a_contracts("call", "down_and_out"))
    assert (out.price, out.status) == (20.0, "expired")
    inn = mb.down_and_in_call(120.0, T0, a_contracts("call", "down_and_in"))
    assert inn.price == 0.0
    # at expiry below the terminal barrier the knockout is worthless and
    # the knock-in settles at intrinsic
    assert mb.down_and_out_put(80.0, T0, a_contracts("put", "down_and_out")).price == 0.0
    assert mb.down_and_in_put(80.0, T0, a_contracts("put", "down_and_in")).price == 20.0
    assert mb.forward_barrier_value(85.0, T0,
                                    a_contracts("call", "down_and_out")).price == 0.0
    assert mb.forward_barrier_value(120.0, 1.5,
                                    a_contracts("call", "down_and_out")).price == 20.0


def test_strike_below_terminal_barrier_priced():
    # K 80 < h_T 90: a surviving path ends above h_T > K, so the knockout
    # call is the knockout forward and the knockout put is worth nothing.
    # The call anchor is the quadrature's, frozen from the 40-digit
    # evaluation (test_heatkernel.test_low_strike_anchor)
    curves = mb.CurveSet.constant(0.05, 0.02, 0.2)
    bar = mb.barrier_from_terminal(90.0, 0.5, curves, T0)
    def price(side, style):
        con = mb.BarrierContract(strike=80.0, expiry=T0, side=side,
                                 style=style, barrier=bar)
        return mb.price_contract(S0, 0.0, con).price
    out_call = price("call", "down_and_out")
    assert out_call == pytest.approx(17.584975559863764, rel=2e-13)
    van_call = mb.vanilla_call(S0, 0.0, 80.0, T0, curves).price
    assert price("call", "down_and_in") == pytest.approx(
        van_call - 17.584975559863764, rel=2e-13)
    assert price("put", "down_and_out") == 0.0
    assert price("put", "down_and_in") == mb.vanilla_put(S0, 0.0, 80.0, T0,
                                                          curves).price


@pytest.mark.parametrize("C", [60.0, 100.0, 400.0])
def test_put_below_terminal_barrier_needs_no_power_factor(C):
    # from C near 100 the power factor (S/h(t))^(2C+1) overflows, but the
    # put's two legs, and so their images, cancel: out 0, in the vanilla
    curves = mb.CurveSet.constant(0.05, 0.01, 0.2)
    bar = mb.barrier_from_terminal(90.0, C, curves, T0)
    out_put, in_put = (mb.BarrierContract(strike=80.0, expiry=T0, side="put",
                                          style=style, barrier=bar)
                       for style in ("down_and_out", "down_and_in"))
    assert mb.down_and_out_put(S0, 0.0, out_put).price == 0.0
    assert mb.down_and_in_put(S0, 0.0, in_put).price == mb.vanilla_put(
        S0, 0.0, 80.0, T0, curves).price
    assert mb.heat_kernel_price(S0, 0.0, out_put) == 0.0
    # the lattice too, whatever its cell Peclet number (21 at C 400)
    assert mb.pde_price(S0, 0.0, out_put) == 0.0
    # decided by the legs, so at every C, not only where the factor overflows
    for con in (out_put, in_put):
        assert mb.price_contract(S0, 0.0, con).power_factor is None


def test_call_leg_below_terminal_barrier_keeps_its_spot_term():
    # e^{-qbar} = e^{-757.5} underflows to 0, but S e^{-qbar} = 1e96 e^{-757.5}
    # is a float: the call leg, the forward leg below K = h_T, is
    # S e^{-qbar} - K e^{-rbar} = 1.0507e-233 and needs no floor
    curves = mb.CurveSet.constant(365.0, 505.0, 0.2)
    con = mb.BarrierContract(strike=66.0, expiry=1.5, side="call",
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(98.0, 0.0, curves, 1.5))
    out = mb.down_and_out_call(1e96, 0.0, con)
    assert out.price == pytest.approx(1.0506873502908734e-233, rel=8e-15)
    assert (out.vanilla_term, out.image_term) == (out.price, 0.0)
    assert mb.down_and_in_call(1e96, 0.0, con).price == 0.0
    assert mb.forward_barrier_value(1e96, 0.0, con).price == out.price


@pytest.mark.parametrize("strike", [80.0, 90.0, 100.0])
@pytest.mark.parametrize("side", ["call", "put"])
def test_breakdown_carries_d_values_at_every_strike(td_contract, side, strike):
    # the knockout call's d's, measured against max(K, h_T): below h_T = 90
    # the call leg is the forward leg, for both sides
    con = td_contract(0.5, side=side, strike=strike)
    out = mb.price_contract(S0, 0.25, con)
    lev = con.barrier.level(0.25)
    rbar, qbar, s2 = con.curves.bars(0.25, T0)
    sd = math.sqrt(s2)
    ref = max(strike, 90.0)
    for spot, d, dp in ((S0, out.d1, out.d1_prime),
                        (lev * lev / S0, out.d2, out.d2_prime)):
        want = (math.log(spot / ref) + rbar - qbar + 0.5 * s2) / sd
        assert d == pytest.approx(want, rel=1e-12)
        assert dp == d - sd


def test_input_validation(a_contracts):
    con = a_contracts("call", "down_and_out")
    with pytest.raises(DomainError):
        mb.down_and_out_call(-100.0, 0.0, con)
    with pytest.raises(DomainError):
        mb.down_and_out_call(S0, -0.5, con)


def test_huge_decay_constant_overflows_cleanly():
    # sigma at the floor keeps the level finite while (2C+1) ln(S/h) explodes
    curves = mb.CurveSet.constant(0.0, 0.0, mb.SIGMA_MIN)
    bar = mb.barrier_from_terminal(90.0, 1e6, curves, T0)
    con = mb.BarrierContract(strike=K0, expiry=T0, side="call",
                             style="down_and_out", barrier=bar)
    with pytest.raises(DomainError):
        mb.down_and_out_call(S0, 0.0, con)


def test_overflowing_image_term_names_its_exponent():
    # (2C + 1) ln(S/h(t)) = 201 * 4.14: the image term leaves the float range
    curves = mb.CurveSet.constant(0.05, 0.01, 0.2)
    bar = mb.barrier_from_terminal(90.0, 100.0, curves, T0)
    con = mb.BarrierContract(strike=K0, expiry=T0, side="call",
                             style="down_and_out", barrier=bar)
    with pytest.raises(DomainError, match=r"exp\(8.*C=100"):
        mb.down_and_out_call(S0, 0.0, con)


def test_price_contract_dispatch(a_contracts):
    for side, style, direct in [
            ("call", "down_and_out", mb.down_and_out_call),
            ("call", "down_and_in", mb.down_and_in_call),
            ("put", "down_and_out", mb.down_and_out_put),
            ("put", "down_and_in", mb.down_and_in_put)]:
        con = a_contracts(side, style)
        assert mb.price_contract(S0, 0.0, con) == direct(S0, 0.0, con)


def test_breakdown_serializes(a_contracts):
    out = mb.down_and_out_call(S0, 0.0, a_contracts("call", "down_and_out"))
    d = out.to_dict()
    assert set(d) == {"price", "vanilla_term", "image_term", "d1", "d1_prime",
                      "d2", "d2_prime", "C", "power_factor", "rbar", "qbar",
                      "sigma2bar", "status"}
    json.dumps(d)  # must be JSON-ready as the CLI emits it verbatim


def test_ordering_bounds(td_contract, td_curves):
    con_out = td_contract(0.5)
    con_in = td_contract(0.5, style="down_and_in")
    lev = con_out.barrier.level(0.0)
    last = -1.0
    for S in np.linspace(lev, 2.0 * lev, 15):
        S = float(S)
        van = mb.vanilla_call(S, 0.0, K0, T0, td_curves).price
        doc = mb.down_and_out_call(S, 0.0, con_out).price
        dic = mb.down_and_in_call(S, 0.0, con_in).price
        assert 0.0 <= doc <= van + 1e-12
        assert 0.0 <= dic <= van + 1e-12
        assert doc >= last - 1e-12  # knockout value grows with distance
        last = doc


def test_in_out_parity_random(draw_case):
    rng = np.random.default_rng(2203)
    for _ in range(200):
        con, t, S = _with_spot(draw_case, rng)
        curves = con.curves
        van_c = mb.vanilla_call(S, t, con.strike, con.expiry, curves).price
        van_p = mb.vanilla_put(S, t, con.strike, con.expiry, curves).price
        out_c = mb.down_and_out_call(S, t, con).price
        in_c = mb.down_and_in_call(S, t, con).price
        scale = max(1.0, van_c)
        assert abs(out_c + in_c - van_c) <= 1e-12 * scale
        pcon = mb.BarrierContract(strike=con.strike, expiry=con.expiry,
                                  side="put", style="down_and_out",
                                  barrier=con.barrier)
        out_p = mb.down_and_out_put(S, t, pcon).price
        in_p = mb.down_and_in_put(S, t, pcon).price
        assert abs(out_p + in_p - van_p) <= 1e-12 * max(1.0, van_p)


def test_put_forward_parity_random(draw_case):
    rng = np.random.default_rng(404)
    for _ in range(200):
        con, t, S = _with_spot(draw_case, rng)
        c_do = mb.down_and_out_call(S, t, con).price
        p_do = mb.down_and_out_put(S, t, con).price
        fwd = mb.forward_barrier_value(S, t, con).price
        assert abs(p_do + fwd - c_do) <= 1e-12 * max(1.0, abs(c_do))


def _with_spot(draw_case, rng):
    con, t = draw_case(rng)
    lev = con.barrier.level(t)
    S = lev * math.exp(float(rng.uniform(0.005, 1.0)))
    return con, t, S


def test_flat_parity_gap_anchor():
    # exponential barrier case: corrected identity closes, the sign-variant
    # form misses by an amount frozen from the same 40-digit evaluation
    gap = mb.constant_case_parity_gap(S0, 0.0, 90.0, 0.03, K0, T0,
                                      0.05, 0.01, 0.2)
    assert abs(gap) <= 1e-12
    printed = mb.constant_case_parity_gap(S0, 0.0, 90.0, 0.03, K0, T0,
                                          0.05, 0.01, 0.2, printed=True)
    assert printed == pytest.approx(-6.061069478783509, rel=1e-12)


def test_flat_parity_gap_validation():
    with pytest.raises(DomainError):
        mb.constant_case_parity_gap(S0, 0.0, 90.0, 0.03, K0, T0, 0.05, 0.01, 0.0)
    with pytest.raises(DomainError):
        mb.constant_case_parity_gap(S0, 1.0, 90.0, 0.03, K0, 1.0, 0.05, 0.01, 0.2)


def test_knockin_matches_vanilla_at_the_barrier(td_contract):
    # the image construction hands back exactly the vanilla value on the
    # boundary: both breakdown terms coincide bit for bit
    con = td_contract(0.5)
    for t in (0.0, 0.25, 0.6):
        lev = con.barrier.level(t)
        out = mb.down_and_out_call(lev, t, con)
        assert out.vanilla_term == out.image_term
        inn = mb.down_and_in_call(lev, t, td_contract(0.5, style="down_and_in"))
        assert inn.price == inn.vanilla_term



# float.hex of the breakdown fields (price, vanilla_term, image_term, d1, d1',
# d2, d2', power_factor, status) on the two-piece curves with C = 0.5 at
# t = 0.25, recorded before the five closed forms shared one core.
# Every breakdown here also carries the C, rbar, qbar and sigma2bar below.
# The live spot 110 is one where regrouping the put's image terms as
# power * (call - forward), or forming the image spot as h*h/S, moves bits.
PINNED_BARS = ("0x1.0000000000000p-1", "0x1.1eb851eb851ebp-5",
               "0x1.47ae147ae147bp-7", "0x1.9eb851eb851ebp-5")
PINNED = {
    "live": {
        "down_and_out_call": (
            "0x1.01b89d7e81e12p+4 0x1.0a6fca0b612fcp+4 "
            "0x1.16e5919be9d3ap-1 0x1.4b5f5c08232afp-1 "
            "0x1.b05851a9dfef8p-2 -0x1.9570a0f0de853p+0 "
            "-0x1.cf0a3a8a781edp+0 0x1.a6e746a46ed71p+0 live"),
        "down_and_in_call": (
            "0x1.16e5919be9d3ap-1 0x1.0a6fca0b612fcp+4 "
            "0x1.16e5919be9d3ap-1 0x1.4b5f5c08232afp-1 "
            "0x1.b05851a9dfef8p-2 -0x1.9570a0f0de853p+0 "
            "-0x1.cf0a3a8a781edp+0 0x1.a6e746a46ed71p+0 live"),
        "forward_barrier_value": (
            "0x1.fcfba1ca46eb9p+3 0x1.fe7e220449578p+3 "
            "0x1.82803a026bf52p-5 0x1.1d90277a780dep+0 "
            "0x1.c7ed1bc1bce89p-1 -0x1.1d90277a780ccp+0 "
            "-0x1.5729c11411a66p+0 0x1.a6e746a46ed71p+0 live"),
        "down_and_out_put": (
            "0x1.9d664caf35aecp-3 0x1.6617212790800p-1 "
            "0x1.fd7b1bf78628ap-2 0x1.4b5f5c08232afp-1 "
            "0x1.b05851a9dfef8p-2 -0x1.9570a0f0de853p+0 "
            "-0x1.cf0a3a8a781edp+0 0x1.a6e746a46ed71p+0 live"),
        "down_and_in_put": (
            "0x1.06c076323b209p+2 0x1.13aba897b4ce0p+2 "
            "0x1.06c076323b209p+2 0x1.4b5f5c08232afp-1 "
            "0x1.b05851a9dfef8p-2 -0x1.9570a0f0de853p+0 "
            "-0x1.cf0a3a8a781edp+0 0x1.a6e746a46ed71p+0 live"),
    },
    "at_barrier": {
        "down_and_out_call": (
            "0x0.0p+0 0x1.c3c6ae550b9c0p+1 0x1.c3c6ae550b9c0p+1 "
            "-0x1.df81e5d999df8p-2 -0x1.62f426200022fp-1 "
            "-0x1.df81e5d999df8p-2 -0x1.62f426200022fp-1 "
            "0x1.0000000000000p+0 knocked_out"),
        "down_and_in_call": (
            "0x1.c3c6ae550b9c0p+1 0x1.c3c6ae550b9c0p+1 "
            "0x1.c3c6ae550b9c0p+1 -0x1.df81e5d999df8p-2 "
            "-0x1.62f426200022fp-1 None None None knocked_in"),
        "forward_barrier_value": (
            "0x0.0p+0 0x1.5723d130b6e30p+1 0x1.5723d130b6e30p+1 "
            "0x1.231c71c71c71cp-49 -0x1.ccccccccccc84p-3 "
            "0x1.231c71c71c71cp-49 -0x1.ccccccccccc84p-3 "
            "0x1.0000000000000p+0 knocked_out"),
        "down_and_out_put": (
            "0x0.0p+0 0x1.b28b749152e40p-1 0x1.b28b749152e40p-1 "
            "-0x1.df81e5d999df8p-2 -0x1.62f426200022fp-1 "
            "-0x1.df81e5d999df8p-2 -0x1.62f426200022fp-1 "
            "0x1.0000000000000p+0 knocked_out"),
        "down_and_in_put": (
            "0x1.eb726baa9c124p+3 0x1.eb726baa9c124p+3 "
            "0x1.eb726baa9c124p+3 -0x1.df81e5d999df8p-2 "
            "-0x1.62f426200022fp-1 None None None knocked_in"),
    },
    "below": {
        "down_and_out_call": (
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 None None None None None "
            "knocked_out"),
        "down_and_in_call": (
            "0x1.753d9cc6fb160p+0 0x1.753d9cc6fb160p+0 "
            "0x1.753d9cc6fb160p+0 -0x1.df81e5d999e0ap-1 "
            "-0x1.295a8c866689fp+0 None None None knocked_in"),
        "forward_barrier_value": (
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 None None None None None "
            "knocked_out"),
        "down_and_out_put": (
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 None None None None None "
            "knocked_out"),
        "down_and_in_put": (
            "0x1.5c269615ef4b0p+4 0x1.5c269615ef4b0p+4 "
            "0x1.5c269615ef4b0p+4 -0x1.df81e5d999e0ap-1 "
            "-0x1.295a8c866689fp+0 None None None knocked_in"),
    },
}


def _hexed(values):
    return " ".join(v.hex() if isinstance(v, float) else str(v) for v in values)


@pytest.mark.parametrize("spot", sorted(PINNED))
def test_breakdowns_keep_their_bits(td_contract, spot):
    t = 0.25
    lev = td_contract(0.5).barrier.level(t)
    assert lev.hex() == "0x1.5655e9a26c98fp+6"
    S = {"live": 110.0, "at_barrier": lev, "below": 0.9 * lev}[spot]
    for name, side, style in [
            ("down_and_out_call", "call", "down_and_out"),
            ("down_and_in_call", "call", "down_and_in"),
            ("forward_barrier_value", "call", "down_and_out"),
            ("down_and_out_put", "put", "down_and_out"),
            ("down_and_in_put", "put", "down_and_in")]:
        out = getattr(mb, name)(S, t, td_contract(0.5, side=side, style=style))
        d = out.to_dict()
        got = _hexed([d.pop(k) for k in ("price", "vanilla_term", "image_term",
                                         "d1", "d1_prime", "d2", "d2_prime",
                                         "power_factor", "status")])
        assert got == PINNED[spot][name], name
        assert _hexed(d.values()) == " ".join(PINNED_BARS), name


# float.hex pins beside PINNED, recorded before the vanilla quote and both
# barrier legs shared one leg function.  Below K = h_T, at K 80 and the live
# spot 110: the call's leg is the forward leg, the put's legs cancel, and the
# knock-ins follow from in + out = vanilla.  Fields as in PINNED; every row
# carries PINNED_BARS too.
PINNED_LOW_STRIKE_D = ("0x1.1d90277a780dep+0 0x1.c7ed1bc1bce89p-1 "
                       "-0x1.1d90277a780ccp+0 -0x1.5729c11411a66p+0")
PINNED_LOW_STRIKE = {
    "down_and_out_call": ("0x1.cbdcdfc4e26d6p+4 0x1.fa94a62c2370ap+4 "
                          "0x1.75be333a0819ep+1", "0x1.a6e746a46ed71p+0 live"),
    "down_and_in_call": ("0x1.bdbadb14e1d10p+1 0x1.01ca1d93bf53cp+5 "
                         "0x1.bdbadb14e1d10p+1", "0x1.a6e746a46ed71p+0 live"),
    "down_and_out_put": ("0x0.0p+0 0x0.0p+0 0x0.0p+0", "None live"),
    "down_and_in_put": ("0x1.221ebeaeaa3a8p-1 0x1.221ebeaeaa3a8p-1 "
                        "0x1.221ebeaeaa3a8p-1", "None live"),
}


@pytest.mark.parametrize("name", sorted(PINNED_LOW_STRIKE))
def test_low_strike_breakdowns_keep_their_bits(td_contract, name):
    side = "put" if name.endswith("put") else "call"
    style = "down_and_in" if "_in_" in name else "down_and_out"
    out = getattr(mb, name)(110.0, 0.25, td_contract(0.5, side=side,
                                                     style=style, strike=80.0))
    d = out.to_dict()
    terms, tail = PINNED_LOW_STRIKE[name]
    assert _hexed([d.pop(k) for k in ("price", "vanilla_term", "image_term",
                                      "d1", "d1_prime", "d2", "d2_prime",
                                      "power_factor", "status")]) == (
        f"{terms} {PINNED_LOW_STRIKE_D} {tail}")
    assert _hexed(d.values()) == " ".join(PINNED_BARS)


# at t = T every row settles from the payoff: (price, vanilla_term,
# image_term) by (strike, spot) on either side of h_T = 90, in the order
# down_and_out_call, down_and_in_call, forward_barrier_value,
# down_and_out_put, down_and_in_put
PINNED_EXPIRED = {
    (100.0, 110.0): ("10 10 0", "0 10 0", "10 10 0", "0 0 0", "0 0 0"),
    (100.0, 85.0): ("0 0 0", "0 0 0", "0 -15 -15", "0 15 15", "15 15 15"),
    (80.0, 110.0): ("30 30 0", "0 30 0", "30 30 0", "0 0 0", "0 0 0"),
    (80.0, 85.0): ("0 5 5", "5 5 5", "0 5 5", "0 0 0", "0 0 0"),
}


@pytest.mark.parametrize("K,S", sorted(PINNED_EXPIRED))
def test_expired_breakdowns_keep_their_bits(td_contract, K, S):
    for (name, side, style), want in zip([
            ("down_and_out_call", "call", "down_and_out"),
            ("down_and_in_call", "call", "down_and_in"),
            ("forward_barrier_value", "call", "down_and_out"),
            ("down_and_out_put", "put", "down_and_out"),
            ("down_and_in_put", "put", "down_and_in")], PINNED_EXPIRED[(K, S)]):
        d = getattr(mb, name)(S, 1.0, td_contract(0.5, side=side, style=style,
                                                  strike=K)).to_dict()
        got = [d.pop(k) for k in ("price", "vanilla_term", "image_term")]
        assert _hexed(got) == _hexed(float(v) for v in want.split()), name
        assert _hexed(d.values()) == (
            "None None None None 0x1.0000000000000p-1 None 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 expired"), name


# vanilla quotes (price, d1, d1') at t = 0.25, K = 100 on the two-piece
# curves, by spot: the call, then the put
PINNED_VANILLA = {
    80.0: ("0x1.050b6caf5a938p+1", "0x1.3655e0860588cp+4",
           "-0x1.8949627bcd8e7p-1 -0x1.fc7c95af00c1ap-1"),
    100.0: ("0x1.411c408294004p+3", "0x1.e5c6c536c0538p+2",
            "0x1.c9f49f49f49f4p-3 -0x1.6c16c16c16c80p-10"),
    120.0: ("0x1.89025a7308ee0p+4", "0x1.28a84cddd7058p+1",
            "0x1.08af94884ae90p+0 0x1.9e2bf5dd629edp-1"),
}


@pytest.mark.parametrize("S", sorted(PINNED_VANILLA))
def test_vanilla_quotes_keep_their_bits(td_curves, S):
    call, put, ds = PINNED_VANILLA[S]
    for fn, price in ((mb.vanilla_call, call), (mb.vanilla_put, put)):
        q = fn(S, 0.25, 100.0, 1.0, td_curves)
        assert _hexed((q.price, q.d1, q.d1_prime)) == f"{price} {ds}"
