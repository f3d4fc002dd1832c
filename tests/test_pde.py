"""Lattice oracle: grid construction, agreement with closed forms, Richardson."""
import math

import numpy as np
import pytest

import movebar as mb
from movebar import AccuracyError, DomainError, PdeGrid, pde_price
from movebar.oracles.pde import _cubic_at, _time_grid


def test_grid_validation():
    with pytest.raises(DomainError):
        PdeGrid(x_max=1.0, n_space=2, n_time=100)
    with pytest.raises(DomainError):
        PdeGrid(x_max=1.0, n_space=100, n_time=3)
    with pytest.raises(DomainError):
        PdeGrid(x_max=0.0, n_space=100, n_time=100)


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


@pytest.mark.parametrize("h_T", [99.95, 99.99])
def test_kink_next_to_the_barrier_keeps_the_domain(h_T):
    # ln(K/h_T) rounds to node 0: snapping it onto node 1 would shrink x_max
    # to the kink, far below the 8-sd domain and, at 99.99, the spot
    curves = mb.CurveSet.constant(0.05, 0.01, 0.2)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(h_T, -1.25, curves, 1.0))
    closed = mb.down_and_out_call(110.0, 0.0, con).price
    assert abs(pde_price(110.0, 0.0, con) - closed) / closed <= 1e-5


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


@pytest.mark.parametrize("side", ["call", "put"])
@pytest.mark.parametrize("t", [0.0, 0.25])
def test_zero_on_the_barrier(td_contract, side, t):
    con = td_contract(1.0, side=side)
    assert pde_price(con.barrier.level(t), t, con) == 0.0


def test_spot_on_the_last_node_takes_the_boundary_value(const_contract):
    lev = const_contract.barrier.level(0.0)
    S = 180.0
    x_spot = math.log(S) - math.log(lev)
    grid = PdeGrid(x_max=x_spot, n_space=100, n_time=100)
    assert x_spot / (grid.x_max / grid.n_space) == grid.n_space
    # the call's Dirichlet value at x_max: S e^{-q tau} - K e^{-r tau}
    edge = S - const_contract.strike * math.exp(-0.05)
    assert pde_price(S, 0.0, const_contract, grid=grid) == pytest.approx(edge, rel=1e-14)


def test_cubic_stencil_is_exact_on_nodes_and_cubics():
    v = np.random.default_rng(7).normal(size=11)
    for k in range(11):
        assert _cubic_at(v, float(k)) == v[k]
    # the clamped end stencils included, a cubic is reproduced everywhere
    def cubic(u):
        return 0.3 - 1.2 * u + 0.05 * u * u - 0.01 * u ** 3
    nodes = cubic(np.arange(11.0))
    for pos in (0.0, 0.4, 1.5, 4.25, 9.3, 9.9, 10.0):
        assert _cubic_at(nodes, pos) == pytest.approx(cubic(pos), abs=1e-13)
    # away from the ends the stencil is centred: two nodes on each side
    centred = (-v[3] + 9.0 * v[4] + 9.0 * v[5] - v[6]) / 16.0
    assert _cubic_at(v, 4.5) == pytest.approx(centred, rel=1e-14, abs=1e-15)
