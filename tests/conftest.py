"""Shared fixtures: reference market setups and randomized case generators.

Numeric anchors used across the test modules were frozen from a 40-digit
mpmath evaluation of the kernel integrals (closed forms and quadrature agree
with them to well below the asserted tolerances).
"""
import pytest

import movebar as mb


@pytest.fixture
def const_curves():
    # r = 5%, q = 0, sigma = 20%, all flat
    return mb.CurveSet.constant(0.05, 0.0, 0.2)


@pytest.fixture
def const_contract(const_curves):
    # C = -(r - q)/sigma^2 makes the barrier level flat at 90
    bar = mb.barrier_from_terminal(90.0, -1.25, const_curves, 1.0)
    return mb.BarrierContract(strike=100.0, expiry=1.0, side="call",
                              style="down_and_out", barrier=bar)


@pytest.fixture
def td_curves():
    # two-piece curves switching at mid-horizon
    return mb.CurveSet(
        mb.TermStructure((0.0, 0.5), (0.02, 0.06)),
        mb.TermStructure((0.0, 0.5), (0.00, 0.02)),
        mb.TermStructure((0.0, 0.5), (0.15, 0.30)))


@pytest.fixture
def td_contract(td_curves):
    """Factory for contracts on the two-piece curves, h_T = 90, T = 1."""
    def make(C, side="call", style="down_and_out", strike=100.0):
        bar = mb.barrier_from_terminal(90.0, C, td_curves, 1.0)
        return mb.BarrierContract(strike=strike, expiry=1.0, side=side,
                                  style=style, barrier=bar)
    return make


def _draw_curves(rng, t, T, constant, pieces=2):
    if constant:
        return mb.CurveSet.constant(float(rng.uniform(0.0, 0.06)),
                                    float(rng.uniform(0.0, 0.06)),
                                    float(rng.uniform(0.15, 0.4)))
    starts = (0.0, *sorted(float(rng.uniform(t + 0.1 * (T - t), T - 0.1 * (T - t)))
                           for _ in range(pieces - 1)))
    def each(lo, hi):
        return tuple(float(rng.uniform(lo, hi)) for _ in starts)
    return mb.CurveSet(mb.TermStructure(starts, each(0.0, 0.06)),
                       mb.TermStructure(starts, each(0.0, 0.06)),
                       mb.TermStructure(starts, each(0.15, 0.4)))


def _draw_case(rng, constant=None, side="call", style="down_and_out",
               pieces=2):
    """One random admissible contract plus an evaluation time.

    Ranges keep the strike above the terminal barrier and the decay
    constants moderate; strikes below it are drawn where a test needs them.
    Curves are flat or have `pieces` pieces switching inside (t, T).
    """
    t = float(rng.uniform(0.0, 0.5))
    T = t + float(rng.uniform(0.5, 2.0))
    if constant is None:
        constant = bool(rng.integers(0, 2))
    curves = _draw_curves(rng, t, T, constant, pieces)
    K = float(rng.uniform(50.0, 150.0))
    h_T = K * float(rng.uniform(0.75, 0.98))
    C = float(rng.uniform(-1.5, 1.5))
    bar = mb.barrier_from_terminal(h_T, C, curves, T)
    contract = mb.BarrierContract(strike=K, expiry=T, side=side, style=style,
                                  barrier=bar)
    return contract, t


@pytest.fixture
def draw_case():
    return _draw_case


def _pde_residual(price_fn, S, t, curves, dS_frac=0.001, dt=1e-4):
    """Central-difference residual of the pricing equation at (S, t).

    Caller keeps t +- dt inside one curve piece and S - dS above the barrier;
    truncation error is then a few 1e-5 at these step sizes.
    """
    dS = dS_frac * S
    r = curves.r.value_at(t)
    q = curves.q.value_at(t)
    sg = curves.sigma.value_at(t)
    v0 = price_fn(S, t)
    v_t = (price_fn(S, t + dt) - price_fn(S, t - dt)) / (2.0 * dt)
    v_s = (price_fn(S + dS, t) - price_fn(S - dS, t)) / (2.0 * dS)
    v_ss = (price_fn(S + dS, t) - 2.0 * v0 + price_fn(S - dS, t)) / (dS * dS)
    return v_t + 0.5 * sg * sg * S * S * v_ss + (r - q) * S * v_s - r * v0


@pytest.fixture
def pde_residual():
    return _pde_residual
