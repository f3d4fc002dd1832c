"""Barrier geometry and contract validation."""
import math

import pytest

import movebar as mb
from movebar import DomainError, LoadError
from movebar.oracles.pde import _solve


def test_terminal_level_is_exact(const_curves):
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    assert bar.level(1.0) == 90.0


def test_flat_barrier_when_c_cancels_drift(const_curves):
    # C = -(r - q)/sigma^2 freezes the level
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    for t in (0.0, 0.3, 0.77, 1.0):
        assert bar.level(t) == pytest.approx(90.0, rel=1e-15)


def test_level_anchor_constant_curves():
    # r=5%, q=2%, sigma=20%, C=1: decay rate 0.07 over one year
    curves = mb.CurveSet.constant(0.05, 0.02, 0.2)
    bar = mb.barrier_from_terminal(90.0, 1.0, curves, 1.0)
    assert bar.level(0.0) == pytest.approx(83.91544379153534, rel=1e-14)


@pytest.mark.parametrize("C,lev0", [
    (-1.0, 92.3937809207749241),
    (0.0, 87.3400980193657439),
    (1.0, 82.5628375201298626),
])
def test_level_anchors_two_piece_curves(td_curves, C, lev0):
    bar = mb.barrier_from_terminal(90.0, C, td_curves, 1.0)
    assert bar.level(0.0) == pytest.approx(lev0, rel=1e-14)


def test_level_anchor_mid_horizon(td_curves):
    bar = mb.barrier_from_terminal(90.0, 1.0, td_curves, 1.0)
    assert bar.level(0.25) == pytest.approx(83.44474450305778, rel=1e-14)


def test_level_outside_horizon_rejected(const_curves):
    bar = mb.barrier_from_terminal(90.0, 0.0, const_curves, 1.0)
    with pytest.raises(DomainError):
        bar.level(-0.01)
    with pytest.raises(DomainError):
        bar.level(1.01)
    with pytest.raises(DomainError, match="nan"):
        bar.level(math.nan)


def test_locate_gives_level_and_log_distance(td_curves):
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(90.0, 0.7,
                                                              td_curves, 1.0))
    lev = con.barrier.level(0.25)
    bars = td_curves.bars(0.25, 1.0)
    assert con.locate(120.0, 0.25) == (lev, math.log(120.0) - math.log(lev), bars)
    assert con.locate(lev, 0.25) == (lev, 0.0, bars)
    for S in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="spot must be positive"):
            con.locate(S, 0.25)
    for t in (-0.5, 1.5, math.nan):
        with pytest.raises(DomainError, match=f"t={t} outside"):
            con.locate(120.0, t)


@pytest.fixture
def overlap_sums(monkeypatch):
    """The arguments of every TermStructure._overlap_sum call the test makes."""
    calls = []
    overlap_sum = mb.TermStructure._overlap_sum

    def counted(self, *args, **kwargs):
        calls.append(args)
        return overlap_sum(self, *args, **kwargs)

    monkeypatch.setattr(mb.TermStructure, "_overlap_sum", counted)
    return calls


@pytest.mark.parametrize("price", [mb.down_and_out_call, mb.down_and_in_put,
                                   mb.to_heat_coords])
def test_valuation_point_integrates_each_curve_once(td_contract, overlap_sums,
                                                    price):
    # the pricers read (rbar, qbar, sigma2bar) from locate: one sum per curve
    con = td_contract(0.7, side="put", style="down_and_in")
    price(120.0, 0.25, con)
    assert len(overlap_sums) == 3


@pytest.mark.parametrize("side", ["call", "put"])
@pytest.mark.parametrize("n", [120, 400])
def test_lattice_integrates_the_curves_only_at_the_valuation_point(
        td_contract, overlap_sums, side, n):
    # the call's barrier value and forward sum r and sigma^2 as the steps go
    # back: the one locate is the only curve integration of a solve
    _solve(120.0, 0.25, td_contract(0.7, side=side),
           mb.PdeGrid(x_max=2.0, n_space=n, n_time=n))
    assert len(overlap_sums) == 3


@pytest.mark.parametrize("n_steps", [1, 256])
def test_simulation_integrates_the_curves_only_at_the_valuation_point(
        td_contract, overlap_sums, n_steps):
    # the paths walk x = ln(S/h(t)) and read only sigma per step: the one
    # locate is the only curve integration of an estimate
    mb.mc_price(120.0, 0.25, td_contract(0.7), n_paths=100, n_steps=n_steps)
    assert len(overlap_sums) == 3


@pytest.mark.parametrize("C", [-1e6, 1e6])
def test_level_outside_float_range_rejected(const_curves, C):
    # sigma^2 * |C| = 4e4 puts exp(-drift) far beyond the float range
    bar = mb.barrier_from_terminal(90.0, C, const_curves, 1.0)
    with pytest.raises(DomainError, match="outside the float range"):
        bar.level(0.0)
    assert bar.level(1.0) == 90.0


def test_growth_rate_matches_log_slope(td_curves):
    C = 0.7
    bar = mb.barrier_from_terminal(90.0, C, td_curves, 1.0)

    def growth_rate(t):
        # h'(t)/h(t) = r - q + C sigma^2, right-continuous like the curves
        sig = td_curves.sigma.value_at(t)
        return td_curves.r.value_at(t) - td_curves.q.value_at(t) + C * sig * sig

    # within one curve piece the log level is exactly linear
    for t, dt in [(0.1, 0.2), (0.6, 0.3)]:
        slope = (math.log(bar.level(t + dt)) - math.log(bar.level(t))) / dt
        assert slope == pytest.approx(growth_rate(t), rel=1e-12)
    # right-continuous at the switch: the slope of the piece starting there
    sig = td_curves.sigma.value_at(0.5)
    assert growth_rate(0.5) == pytest.approx(
        0.06 - 0.02 + 0.7 * sig * sig, rel=1e-15)
    slope = (math.log(bar.level(0.8)) - math.log(bar.level(0.5))) / 0.3
    assert slope == pytest.approx(growth_rate(0.5), rel=1e-12)


def test_c_from_levels_inverts_level(td_curves):
    for C in (-1.3, -0.25, 0.0, 0.8, 1.5):
        bar = mb.barrier_from_terminal(90.0, C, td_curves, 1.0)
        got = mb.c_from_levels(bar.level(0.2), 0.2, 90.0, 1.0, td_curves)
        assert got == pytest.approx(C, abs=1e-12)


def test_c_from_levels_validation(const_curves):
    with pytest.raises(DomainError):
        mb.c_from_levels(-90.0, 0.0, 90.0, 1.0, const_curves)
    with pytest.raises(DomainError):
        mb.c_from_levels(math.nan, 0.0, 90.0, 1.0, const_curves)
    with pytest.raises(DomainError):
        mb.c_from_levels(90.0, 1.0, 90.0, 1.0, const_curves)
    # near-zero variance makes the implied decay constant absurd
    quiet = mb.CurveSet.constant(0.05, 0.0, mb.SIGMA_MIN)
    with pytest.raises(DomainError):
        mb.c_from_levels(60.0, 0.0, 90.0, 1.0, quiet)


@pytest.mark.parametrize("kwargs", [
    {"h_T": 0.0}, {"h_T": -5.0}, {"h_T": math.inf},
    {"C": math.nan}, {"C": 2e6},
    {"T": 0.0}, {"T": -1.0},
])
def test_barrier_validation(const_curves, kwargs):
    base = {"h_T": 90.0, "C": 0.5, "curves": const_curves, "T": 1.0}
    base.update(kwargs)
    with pytest.raises(DomainError):
        mb.MovingBarrier(**base)


def test_contract_validation(const_curves):
    bar = mb.barrier_from_terminal(90.0, 0.0, const_curves, 1.0)
    good = {"strike": 100.0, "expiry": 1.0, "side": "call",
            "style": "down_and_out", "barrier": bar}
    for bad in ({"strike": 0.0}, {"strike": -1.0}, {"side": "Call"},
                {"style": "up_and_out"}, {"expiry": 2.0}):
        kwargs = dict(good)
        kwargs.update(bad)
        with pytest.raises(DomainError):
            mb.BarrierContract(**kwargs)


def test_every_strike_prices_in_closed_form(const_curves):
    # at K = h_T the knockout call and the knockout forward agree bit for
    # bit, and below it the call is the forward, so the put is worth
    # nothing there; above h_T it is worth something
    bar = mb.barrier_from_terminal(90.0, 0.0, const_curves, 1.0)
    def con(K, side="call"):
        return mb.BarrierContract(strike=K, expiry=1.0, side=side,
                                  style="down_and_out", barrier=bar)
    assert mb.down_and_out_put(100.0, 0.0, con(100.0, "put")).price > 0.0
    for K in (90.0, 89.999):
        assert (mb.down_and_out_call(100.0, 0.0, con(K))
                == mb.forward_barrier_value(100.0, 0.0, con(K)))
        assert mb.down_and_out_put(100.0, 0.0, con(K, "put")).price == 0.0


def test_contract_from_dict_both_barrier_forms(td_curves):
    bar = mb.barrier_from_terminal(90.0, 0.8, td_curves, 1.0)
    by_c = mb.contract_from_dict(
        {"strike": 100.0, "expiry": 1.0, "side": "put",
         "style": "down_and_in", "barrier": {"h_T": 90.0, "C": 0.8}},
        td_curves)
    by_levels = mb.contract_from_dict(
        {"strike": 100.0, "expiry": 1.0, "side": "put",
         "style": "down_and_in",
         "barrier": {"h_t0": bar.level(0.0), "t0": 0.0, "h_T": 90.0}},
        td_curves)
    assert by_c.barrier.C == pytest.approx(0.8, abs=1e-12)
    assert by_levels.barrier.C == pytest.approx(0.8, abs=1e-12)
    assert by_levels.barrier.level(0.4) == pytest.approx(
        by_c.barrier.level(0.4), rel=1e-12)


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("strike"),
    lambda d: d.pop("barrier"),
    lambda d: d.__setitem__("barrier", 90.0),
    lambda d: d.__setitem__("barrier", {"h_T": 90.0}),
    lambda d: d.__setitem__("style", "up_and_out"),
    lambda d: d.__setitem__("strike", -3.0),
])
def test_contract_from_dict_rejects_bad_input(const_curves, mangle):
    d = {"strike": 100.0, "expiry": 1.0, "side": "call",
         "style": "down_and_out", "barrier": {"h_T": 90.0, "C": 0.5}}
    mangle(d)
    with pytest.raises(LoadError):
        mb.contract_from_dict(d, const_curves)


def test_load_contract(tmp_path, const_curves):
    import json
    path = tmp_path / "contract.json"
    path.write_text(json.dumps(
        {"strike": 100.0, "expiry": 1.0, "side": "call",
         "style": "down_and_out", "barrier": {"h_T": 90.0, "C": -1.25}}))
    con = mb.load_contract(str(path), const_curves)
    assert con.strike == 100.0
    assert con.barrier.C == -1.25
    path.write_text("{not json")
    with pytest.raises(LoadError, match=r"contract\.json:1:"):
        mb.load_contract(str(path), const_curves)
