"""Lattice oracle: grid construction, agreement with closed forms, Richardson."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import movebar as mb
from movebar import AccuracyError, DomainError, PdeGrid, pde_price
from movebar.oracles.pde import _Stepper, _cubic_at, _time_grid

FIX = Path(__file__).resolve().parents[1] / "fixtures"


def test_grid_validation():
    with pytest.raises(DomainError):
        PdeGrid(x_max=1.0, n_space=2, n_time=100)
    with pytest.raises(DomainError):
        PdeGrid(x_max=1.0, n_space=100, n_time=3)
    with pytest.raises(DomainError):
        PdeGrid(x_max=0.0, n_space=100, n_time=100)


@pytest.mark.parametrize("S,x_max,named", [(80.0, 1.0, "below barrier level"),
                                             (100.0, 0.05, "outside grid")],
                         ids=["below-barrier", "above-x_max"])
def test_explicit_grid_rejects_a_spot_off_the_grid(const_contract, S, x_max,
                                                   named):
    # an explicit grid skips PdeGrid.for_contract, so the solve checks the
    # spot itself: the barrier is flat at 90 and x = ln(100/90) = 0.105
    grid = PdeGrid(x_max=x_max, n_space=50, n_time=50)
    with pytest.raises(DomainError, match=named):
        pde_price(S, 0.0, const_contract, grid=grid)


@pytest.mark.parametrize("counts", [{"n_space": 10.5}, {"n_time": 100.0},
                                    {"n_space": True}, {"n_space": "400"},
                                    {"n_space": None}])
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


def _flat(C, side="call", h_T=90.0, K=100.0, T=1.0, sigma=0.2):
    curves = mb.CurveSet.constant(0.05, 0.01, sigma)
    return mb.BarrierContract(strike=K, expiry=T, side=side,
                              style="down_and_out",
                              barrier=mb.barrier_from_terminal(h_T, C, curves, T))


def test_kink_snap_keeps_a_far_spot_on_the_grid():
    # x = 23.17: rounding the kink's node up would end the grid at 21.07
    con = _flat(0.0)
    closed = mb.down_and_out_call(1e12, 0.0, con).price
    assert abs(pde_price(1e12, 0.0, con) - closed) / closed <= 1e-4


# cell Peclet numbers |C + 1/2| dx of the default grid: 1.5 and 21 at S 100,
# 6.6 for the far spot, whose dx is wide against the diffusion; the C 600
# put's kink lies on node 1, so no node carries its payoff
@pytest.mark.parametrize("C,side,S,h_T", [
    (100.0, "call", 100.0, 90.0), (100.0, "put", 100.0, 90.0),
    (400.0, "call", 100.0, 90.0), (400.0, "put", 100.0, 90.0),
    (600.0, "put", 100.0, 90.0), (-10.0, "call", 1e100, 50.0)])
def test_unresolved_convection_is_an_accuracy_error(C, side, S, h_T):
    with pytest.raises(AccuracyError, match=f"Peclet.*C={C}.*n_space="):
        pde_price(S, 0.0, _flat(C, side, h_T))


SECOND = 1.0 / (365 * 24 * 3600)


# dx / sqrt(tau) of the default grid with the kink or the barrier within
# 8 sqrt(tau) of the spot, and the lattice's relative error without the
# refusal: 1.12 with S = K = 1e40 on h_T 50 (call 0.13, put 0.21), 7.4 at
# the money and 5 sqrt(tau) above the barrier a second before expiry
# (call 0.83, put 0.18)
@pytest.mark.parametrize("S,side,h_T,K,T,n_space", [
    (1e40, "call", 50.0, 1e40, 1.0, 449), (1e40, "put", 50.0, 1e40, 1.0, 449),
    (100.0, "call", 90.0, 100.0, SECOND, 2966),
    (90.0 * math.exp(5 * 0.2 * math.sqrt(SECOND)), "put", 90.0, 100.0, SECOND,
     2966)], ids=["kink-call", "kink-put", "expiry-kink", "expiry-barrier"])
def test_unresolved_diffusion_near_kink_or_barrier_is_an_accuracy_error(
        S, side, h_T, K, T, n_space):
    with pytest.raises(AccuracyError, match=r"on n_space=400 exceeds .* = "
                       rf"sqrt\(tau\).*n_space={n_space} brings"):
        pde_price(S, 0.0, _flat(0.0, side, h_T, K, T))


def test_resolution_refusal_past_any_runnable_grid_names_the_horizon():
    # dx / sqrt(tau) is 1e157 at expiry 1e-320: no node count to name
    with pytest.raises(AccuracyError, match=r"; the horizon T - t = 1e-320 "
                       r"is below what a lattice of up to 10,000,000 nodes"):
        pde_price(100.0, 0.0, _flat(0.0, T=1e-320))


# dx / sqrt(tau) above 1 is harmless hundreds of sqrt(tau) from the kink and
# the barrier, where the value is the forward: 2.0 and 1.03 near expiry,
# tau underflowing to 0 (sigma^2 (T - t) = 1e-16 * 1e-310, where the closed
# form refuses and the value is the payoff, 50), and 0.32 at S 1e12
@pytest.mark.parametrize("S,h_T,T,sigma,rel", [
    (150.0, 90.0, 1e-5, 0.2, 1e-12), (1000.0, 90.0, 8 * 3600 * SECOND, 0.2, 1e-9),
    (150.0, 90.0, 1e-310, 1e-8, 1e-12), (1e12, 50.0, 1.0, 0.2, 1e-5)],
    ids=["1e-5", "8h", "tau-0", "far-spot"])
def test_spot_far_from_kink_and_barrier_prices(S, h_T, T, sigma, rel):
    con = _flat(0.0, h_T=h_T, T=T, sigma=sigma)
    closed = 50.0 if T == 1e-310 else mb.down_and_out_call(S, 0.0, con).price
    assert pde_price(S, 0.0, con) == pytest.approx(closed, rel=rel)


def test_half_grid_can_meet_the_resolution_refusal():
    # S = K = 1e27 on h_T 50: dx / sqrt(tau) is 0.75 on the default grid
    # and 1.5 on the half grid
    con = _flat(0.0, h_T=50.0, K=1e27)
    pde_price(1e27, 0.0, con)
    with pytest.raises(AccuracyError, match="on n_space=200 .*sqrt"):
        pde_price(1e27, 0.0, con, tol=1.0)


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


@pytest.mark.parametrize("t,T", [(1.0 - 1e-12, 1.0), (0.0, 1e-13),
                                 (0.0, 5e-324)])
def test_time_grid_keeps_the_steps_of_a_short_horizon(const_contract, t, T):
    # near-duplicates are judged against the horizon and the times' own
    # rounding, not an absolute 1e-12, so every uniform node stays; a
    # horizon of one float spacing still makes one step
    n = 1 if T == 5e-324 else 64
    grid = _time_grid(t, T, n, const_contract)
    assert len(grid) == n + 1 and (grid[0], grid[-1]) == (t, T)
    assert all(b > a for a, b in zip(grid, grid[1:]))


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


@pytest.mark.parametrize("side", ["call", "put"])
def test_matches_closed_form_when_only_q_switches(side):
    # the lattice never reads q: the barrier's drift carries all of it
    curves = mb.CurveSet(mb.TermStructure.constant(0.05),
                         mb.TermStructure((0.0, 0.5), (0.0, 0.08)),
                         mb.TermStructure.constant(0.2))
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side=side,
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(90.0, 0.5, curves, 1.0))
    closed = mb.price_contract(100.0, 0.0, con).price
    grid = PdeGrid.for_contract(100.0, 0.0, con, n_space=800, n_time=800)
    assert abs(pde_price(100.0, 0.0, con, grid=grid) - closed) / closed <= 5e-4


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


def _lattice_system(C, theta, sigma=0.2, r=0.05, dx=0.005, dt=0.01):
    """(lower, diag, upper, explicit) of one lattice step, built as the
    lattice builds it; cell Peclet number |C + 1/2| dx."""
    sig2 = sigma * sigma
    conv = -(C + 0.5) * sig2
    alpha = 0.5 * sig2 / (dx * dx) - 0.5 * conv / dx
    beta = -sig2 / (dx * dx) - r
    gamma = 0.5 * sig2 / (dx * dx) + 0.5 * conv / dx
    ex = (1.0 - theta) * dt
    return (-theta * dt * alpha, 1.0 - theta * dt * beta, -theta * dt * gamma,
            (ex * alpha, 1.0 + ex * beta, ex * gamma))


# blocks of about sqrt(2 rows): 800 rows make 20 whole blocks of 40, and
# 799 and 801 leave 39 rows and 1 row in the last block
@pytest.mark.parametrize("rows", [3, 39, 40, 41, 399, 799, 800, 801])
@pytest.mark.parametrize("C,dx", [(0.0, 0.005), (-1.25, 0.02), (30.0, 0.1),
                                  (-400.0, 0.05)],
                         ids=["peclet-0.0025", "peclet-0.015", "peclet-3",
                              "peclet-20"])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_blocked_step_matches_a_dense_solve(rows, C, dx, theta):
    system = _lattice_system(C, theta, dx=dx)
    lower, diag, upper, (e_lo, e_mid, e_up) = system
    v = np.random.default_rng(rows).normal(size=rows + 2)
    wall = 0.75  # node 0's new value; the last node's is 0
    a = (np.diag(np.full(rows, diag)) + np.diag(np.full(rows - 1, lower), -1)
         + np.diag(np.full(rows - 1, upper), 1))
    rhs = e_lo * v[:-2] + e_mid * v[1:-1] + e_up * v[2:]
    rhs[0] -= lower * wall
    want = np.linalg.solve(a, rhs)
    stepper = _Stepper(rows)
    stepper.work[:rows + 2] = v
    stepper.step(stepper.tables(*system), wall)
    got = stepper.work[1:rows + 1]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert stepper.work[0] == wall


@pytest.mark.parametrize("system,row", [((1.0, 0.0, 1.0), 0),
                                        ((1.0, 1.0, 1.0), 1)])
def test_zero_pivot_is_an_accuracy_error(system, row):
    stepper = _Stepper(3)
    with pytest.raises(AccuracyError, match="tridiagonal system is singular"):
        stepper.tables(*system, (0.0, 1.0, 0.0))


# (lower, diag, upper) systems whose blocks meet a zero pivot without row
# exchanges, though the whole system is well conditioned (condition number
# 11-12)
@pytest.mark.parametrize("rows,coef", [(6, 1.0), (7, 2.0)])
def test_blocks_solve_past_a_zero_pivot(rows, coef):
    v = np.random.default_rng(rows).normal(size=rows + 2)
    wall = 0.75
    a = coef * (np.eye(rows) + np.eye(rows, k=1) + np.eye(rows, k=-1))
    rhs = v[1:-1].copy()
    rhs[0] -= coef * wall
    want = np.linalg.solve(a, rhs)
    stepper = _Stepper(rows)
    stepper.work[:rows + 2] = v
    stepper.step(stepper.tables(coef, coef, coef, (0.0, 1.0, 0.0)), wall)
    got = stepper.work[1:rows + 1]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_singular_system_is_an_accuracy_error():
    # 1 + 2 cos(6 pi / 9) = 0: (1, 1, 1) on 8 rows is singular
    with pytest.raises(AccuracyError, match="tridiagonal system is singular"):
        _Stepper(8).tables(1.0, 1.0, 1.0, (0.0, 1.0, 0.0))


@pytest.mark.parametrize("n", [200, 400, 800])
@pytest.mark.parametrize("curves,builds", [("curves_flat", 2),
                                           ("curves_two_piece", 3)])
def test_one_table_per_step_length(monkeypatch, curves, builds, n):
    # the full steps share one system and the smoothing half-steps another;
    # the two-piece curves' breakpoint splits one step in two more
    calls = []
    tables = _Stepper.tables

    def counted(self, *args):
        calls.append(args)
        return tables(self, *args)

    monkeypatch.setattr(_Stepper, "tables", counted)
    con = mb.load_contract(FIX / "contract_knockout_call.json",
                           mb.load_curves(FIX / f"{curves}.json"))
    pde_price(100.0, 0.0, con,
              grid=PdeGrid.for_contract(100.0, 0.0, con, n_space=n, n_time=n))
    assert len(calls) == builds


# float.hex of the lattice price at S 100, t 0 with each step's tridiagonal
# system solved by LAPACK (dgttrf/dgttrs for the puts, dgtsv for the calls,
# re-frozen when a call became the forward plus a put-like remainder): the 9
# fixture pairs (knockout style) at the default 400 x 400 grid, then the
# criterion-1/2 calls at 800 x 800
_LAPACK_400 = {
    ("curves_flat", "contract_knockout_call"): "0x1.1548fe715bbeap+3",
    ("curves_flat", "contract_levels_put"): "0x1.7ee49fd4b1f97p-3",
    ("curves_flat", "contract_low_strike"): "0x1.4066e5a221296p+4",
    ("curves_flat_div", "contract_knockout_call"): "0x1.c11f0b461deb1p+2",
    ("curves_flat_div", "contract_levels_put"): "0x1.8d28c7c073a0bp-3",
    ("curves_flat_div", "contract_low_strike"): "0x1.195c74ed18cc2p+4",
    ("curves_two_piece", "contract_knockout_call"): "0x1.980c11e7620d8p+2",
    ("curves_two_piece", "contract_levels_put"): "0x1.029ad6abf1cfcp-3",
    ("curves_two_piece", "contract_low_strike"): "0x1.17847523fca88p+4",
}
_LAPACK_800 = {
    ("flat", -1.25): "0x1.154ae16ff3d40p+3",
    ("two_piece", -1.0): "0x1.c5f72bc1a01dcp+2",
    ("two_piece", 0.0): "0x1.1c22838f45e6cp+3",
    ("two_piece", 1.0): "0x1.375b508638c92p+3",
}


def _fixture_contract(pair):
    curves = mb.load_curves(FIX / f"{pair[0]}.json")
    return dataclasses.replace(mb.load_contract(FIX / f"{pair[1]}.json", curves),
                               style="down_and_out")


def _triangle_contract(case, side="call"):
    curves = (mb.CurveSet.constant(0.05, 0.0, 0.2) if case[0] == "flat"
              else mb.load_curves(FIX / "curves_two_piece.json"))
    return mb.BarrierContract(
        strike=100.0, expiry=1.0, side=side, style="down_and_out",
        barrier=mb.barrier_from_terminal(90.0, case[1], curves, 1.0))


@pytest.mark.parametrize("pair", list(_LAPACK_400), ids="+".join)
def test_fixture_pairs_match_the_lapack_lattice(pair):
    con = _fixture_contract(pair)
    got = pde_price(100.0, 0.0, con, grid=PdeGrid.for_contract(100.0, 0.0, con))
    want = float.fromhex(_LAPACK_400[pair])
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("case", list(_LAPACK_800), ids=str)
def test_triangle_calls_match_the_lapack_lattice(case):
    con = _triangle_contract(case)
    grid = PdeGrid.for_contract(100.0, 0.0, con, n_space=800, n_time=800)
    want = float.fromhex(_LAPACK_800[case])
    assert abs(pde_price(100.0, 0.0, con, grid=grid) - want) <= 1e-12 * abs(want)


# float.hex of the blocked solve's put prices at S 100, t 0: the
# contract_levels_put pairs at 400 x 400 and puts on the criterion-1/2
# barriers at 800 x 800.  Where numpy's SIMD kernels set last bits, the
# second value is without AVX-512
_PINNED_PUTS = {
    ("curves_flat", "contract_levels_put"): ("0x1.7ee49fd4b1f86p-3",),
    ("curves_flat_div", "contract_levels_put"): ("0x1.8d28c7c0736dap-3",),
    ("curves_two_piece", "contract_levels_put"): ("0x1.029ad6abf1ec2p-3",),
    ("flat", -1.25): ("0x1.359784d7d3a49p-3", "0x1.359784d7d3a4bp-3"),
    ("two_piece", -1.0): ("0x1.3e60de4003b88p-4", "0x1.3e60de4003b86p-4"),
    ("two_piece", 0.0): ("0x1.02fca2ab09cd5p-3", "0x1.02fca2ab09cd3p-3"),
    ("two_piece", 1.0): ("0x1.5d20bdbe920a5p-3",),
}


@pytest.mark.parametrize("key", list(_PINNED_PUTS), ids=str)
def test_put_prices_keep_their_bits(key):
    if key in _LAPACK_400:
        con, n = _fixture_contract(key), 400
    else:
        con, n = _triangle_contract(key, side="put"), 800
    grid = PdeGrid.for_contract(100.0, 0.0, con, n_space=n, n_time=n)
    assert pde_price(100.0, 0.0, con, grid=grid).hex() in _PINNED_PUTS[key]


# far above the barrier a call is its forward; the lattice adds only the
# put-like remainder, so it is as close as the closed form's own rounding
@pytest.mark.parametrize("S", [1e12, 1e50, 1e100, 1e200, 1e300])
@pytest.mark.parametrize("C", [0.0, -0.5])
def test_far_spot_call_is_the_forward(S, C):
    curves = mb.CurveSet.constant(0.05, 0.01, 0.2)
    con = mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                             style="down_and_out",
                             barrier=mb.barrier_from_terminal(50.0, C, curves, 1.0))
    closed = mb.down_and_out_call(S, 0.0, con).price
    assert abs(pde_price(S, 0.0, con) - closed) <= 1e-12 * closed
