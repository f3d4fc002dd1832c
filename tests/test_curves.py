"""Term structure behaviour: lookups, exact integrals, serialization."""
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import movebar as mb
from movebar import DomainError, LoadError, TermStructure


@pytest.fixture
def steps():
    return TermStructure((0.0, 0.5, 1.25), (0.03, 0.06, 0.01))


def test_value_at_is_right_continuous(steps):
    assert steps.value_at(0.0) == 0.03
    assert steps.value_at(0.5 - 1e-12) == 0.03
    assert steps.value_at(0.5) == 0.06
    assert steps.value_at(1.25) == 0.01


def test_value_extends_flat_beyond_last_breakpoint(steps):
    assert steps.value_at(1e6) == 0.01


def test_value_before_start_rejected(steps):
    with pytest.raises(DomainError):
        steps.value_at(-1e-9)


def test_integral_exact_on_whole_pieces(steps):
    assert steps.integral(0.0, 0.5) == 0.03 * 0.5
    assert steps.integral(0.5, 1.25) == 0.06 * 0.75
    assert steps.integral(0.0, 0.0) == 0.0


def test_integral_additivity():
    rng = np.random.default_rng(31)
    ts = TermStructure((0.0, 0.3, 0.7, 1.1, 2.0), (0.01, 0.05, 0.02, 0.04, 0.03))
    for _ in range(200):
        t, u, T = sorted(rng.uniform(0.0, 3.0, size=3))
        whole = ts.integral(t, T)
        split = ts.integral(t, u) + ts.integral(u, T)
        assert abs(split - whole) <= 1e-14 * max(1.0, abs(whole))


def test_integral_matches_adaptive_quadrature(steps):
    for t, T in [(0.0, 2.0), (0.1, 0.5), (0.25, 1.3), (0.6, 0.9)]:
        ref, _ = quad(steps.value_at, t, T,
                      points=[b for b in steps.breakpoints if t < b < T],
                      limit=200)
        assert steps.integral(t, T) == pytest.approx(ref, abs=1e-12)


def test_integral_squared_is_integral_of_squares(steps):
    squared = TermStructure(steps.breakpoints,
                            tuple(v * v for v in steps.values))
    for t, T in [(0.0, 2.0), (0.2, 0.8), (0.5, 1.25)]:
        assert steps.integral_squared(t, T) == squared.integral(t, T)


def test_integral_window_validation(steps):
    with pytest.raises(DomainError):
        steps.integral(0.5, 0.2)
    with pytest.raises(DomainError):
        steps.integral(-0.1, 0.5)
    for t, T in [(math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(DomainError, match="nan"):
            steps.integral(t, T)
        with pytest.raises(DomainError, match="nan"):
            steps.integral_squared(t, T)
    with pytest.raises(DomainError, match="nan"):
        steps.value_at(math.nan)


@pytest.mark.parametrize("bps,vals", [
    ((), ()),
    ((0.0, 1.0), (0.1,)),
    ((-0.5, 1.0), (0.1, 0.2)),
    ((0.0, 1.0, 1.0), (0.1, 0.2, 0.3)),
    ((0.0, 2.0, 1.0), (0.1, 0.2, 0.3)),
    ((0.0,), (math.inf,)),
    ((0.0,), (math.nan,)),
])
def test_invalid_term_structures_rejected(bps, vals):
    with pytest.raises(DomainError):
        TermStructure(bps, vals)


def test_term_structure_coerces_to_float():
    ts = TermStructure((0, 1), (2, 3))
    assert ts.breakpoints == (0.0, 1.0)
    assert ts.values == (2.0, 3.0)
    assert all(isinstance(v, float) for v in ts.values)


def test_term_structure_is_frozen(steps):
    with pytest.raises(dataclasses.FrozenInstanceError):
        steps.values = (1.0, 2.0, 3.0)


def test_constant_factory():
    ts = TermStructure.constant(0.07)
    assert ts.value_at(0.0) == 0.07
    assert ts.integral(0.0, 2.0) == 0.07 * 2.0


def test_curve_set_requires_start_at_zero():
    good = TermStructure.constant(0.1)
    late = TermStructure((0.25,), (0.1,))
    with pytest.raises(DomainError):
        mb.CurveSet(late, good, good)
    with pytest.raises(DomainError):
        mb.CurveSet(good, late, good)


def test_curve_set_sigma_floor():
    flat = TermStructure.constant(0.02)
    with pytest.raises(DomainError):
        mb.CurveSet(flat, flat, TermStructure.constant(0.0))
    # exactly at the floor is allowed
    mb.CurveSet(flat, flat, TermStructure.constant(mb.SIGMA_MIN))


def test_curve_set_integrals(td_curves):
    assert td_curves.integral_r(0.0, 1.0) == pytest.approx(0.04, rel=1e-15)
    assert td_curves.integral_q(0.0, 1.0) == pytest.approx(0.01, rel=1e-15)
    assert td_curves.integral_sigma2(0.0, 1.0) == pytest.approx(0.05625, rel=1e-14)
    assert (td_curves.integral_sigma2(0.25, 1.0)
            == pytest.approx(0.050625, rel=1e-14))


def test_curve_set_round_trip(td_curves):
    again = mb.CurveSet.from_dict(td_curves.to_dict())
    assert again == td_curves
    # and through actual JSON text
    assert mb.CurveSet.from_dict(json.loads(json.dumps(td_curves.to_dict()))) \
        == td_curves


def test_from_dict_missing_section():
    with pytest.raises(LoadError, match="missing sections"):
        mb.CurveSet.from_dict({"r": {"breakpoints": [0.0], "values": [0.1]}})


def test_from_dict_bad_entry():
    with pytest.raises(LoadError):
        TermStructure.from_dict({"breakpoints": [0.0]})
    with pytest.raises(LoadError):
        TermStructure.from_dict({"breakpoints": 3, "values": [0.1]})


def test_load_curves_round_trip(tmp_path, td_curves):
    path = tmp_path / "curves.json"
    path.write_text(json.dumps(td_curves.to_dict()))
    assert mb.load_curves(str(path)) == td_curves


def test_load_curves_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "r": {\n')
    with pytest.raises(LoadError, match=r"broken\.json:\d+:\d+"):
        mb.load_curves(str(path))


def test_load_curves_missing_file(tmp_path):
    with pytest.raises(LoadError):
        mb.load_curves(str(tmp_path / "nope.json"))


def test_load_curves_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(LoadError, match="object"):
        mb.load_curves(str(path))
