"""Lattice oracle: grid construction, agreement with closed forms, Richardson."""
import math

import pytest

import movebar as mb
from movebar import AccuracyError, DomainError, PdeGrid, pde_price
from movebar.oracles.pde import _time_grid


def test_grid_validation():
    with pytest.raises(DomainError):
        PdeGrid(x_max=1.0, n_space=2, n_time=100)
    with pytest.raises(DomainError):
        PdeGrid(x_max=1.0, n_space=100, n_time=3)
    with pytest.raises(DomainError):
        PdeGrid(x_max=0.0, n_space=100, n_time=100)
    with pytest.raises(DomainError):
        PdeGrid(x_max=1.0, n_space=100, n_time=100, theta=1.5)


@pytest.mark.parametrize("counts", [{"n_space": 10.5}, {"n_time": 100.0},
                                    {"n_space": True}])
def test_grid_counts_must_be_integers(const_contract, counts):
    name, value = next(iter(counts.items()))
    with pytest.raises(DomainError, match=f"{name} must be an integer, got {value!r}"):
        PdeGrid.for_contract(100.0, 0.0, const_contract, **counts)


def test_for_contract_snaps_kink_onto_node(const_contract):
    grid = PdeGrid.for_contract(100.0, 0.0, const_contract)
    kink = math.log(100.0 / 90.0)
    steps = kink / (grid.x_max / grid.n_space)
    assert steps == pytest.approx(round(steps), abs=1e-9)
    assert grid.x_max > kink


def test_for_contract_rejects_spot_below_barrier(const_contract):
    lev = const_contract.barrier.level(0.0)
    with pytest.raises(DomainError):
        PdeGrid.for_contract(0.9 * lev, 0.0, const_contract)


def test_time_grid_hits_curve_breakpoints(td_contract):
    grid = _time_grid(0.0, 1.0, 7, td_contract(0.0))
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert 0.5 in grid
    assert all(b > a for a, b in zip(grid, grid[1:]))
    # a breakpoint landing exactly on a uniform node is not duplicated
    grid8 = _time_grid(0.0, 1.0, 8, td_contract(0.0))
    assert len(grid8) == 9


def test_matches_closed_form_constant_curves(const_contract):
    closed = mb.down_and_out_call(100.0, 0.0, const_contract).price
    got = pde_price(100.0, 0.0, const_contract)  # default 400x400 grid
    assert abs(got - closed) / closed <= 1e-4


def test_matches_closed_form_two_piece(td_contract):
    con = td_contract(1.0)
    closed = mb.down_and_out_call(100.0, 0.0, con).price
    got = pde_price(100.0, 0.0, con,
                    grid=PdeGrid.for_contract(100.0, 0.0, con))
    assert abs(got - closed) / closed <= 1e-4


def test_matches_closed_form_put(const_curves):
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="put",
                             style="down_and_out", barrier=bar)
    closed = mb.down_and_out_put(100.0, 0.0, con).price
    grid = PdeGrid.for_contract(100.0, 0.0, con, n_space=800, n_time=800)
    got = pde_price(100.0, 0.0, con, grid=grid)
    # the terminal data is discontinuous at the barrier corner, so the put
    # needs the finer lattice for the same relative accuracy
    assert abs(got - closed) / closed <= 5e-4


def test_mid_horizon_start(td_contract):
    con = td_contract(1.0)
    closed = mb.down_and_out_call(95.0, 0.25, con).price
    got = pde_price(95.0, 0.25, con,
                    grid=PdeGrid.for_contract(95.0, 0.25, con))
    assert abs(got - closed) / closed <= 1e-4


def test_knockin_style_rejected(const_curves):
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_in", barrier=bar)
    with pytest.raises(DomainError):
        pde_price(100.0, 0.0, con)


def test_requires_time_to_expiry(const_contract):
    with pytest.raises(DomainError):
        pde_price(100.0, 1.0, const_contract)


def test_richardson_estimate_gates_accuracy(const_contract):
    coarse = PdeGrid.for_contract(100.0, 0.0, const_contract,
                                  n_space=64, n_time=64)
    with pytest.raises(AccuracyError):
        pde_price(100.0, 0.0, const_contract, grid=coarse, tol=1e-8)
    # the same grid passes a tolerance it actually meets
    closed = mb.down_and_out_call(100.0, 0.0, const_contract).price
    got = pde_price(100.0, 0.0, const_contract, grid=coarse, tol=5e-2)
    assert abs(got - closed) <= 5e-2
