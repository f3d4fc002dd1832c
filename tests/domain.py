"""The admissible domain as a hypothesis strategy, shared by the property
tests that run the closed forms and the oracles over it: t in [0, 0.5], tau
from 1e-4 to 3 years, curves of 1-5 pieces (r in [-0.02, 0.1], q in
[0, 0.08], sigma in [0.05, 0.8]), K in [50, 150], h_T = K·[0.5, 1.5], C from
-50 to 500, S from h(t)(1 + 1e-12) to h(t)·e^20, and all four side/style
pairs."""
import math
from itertools import accumulate

from hypothesis import strategies as st

import movebar as mb

TYPED = (mb.DomainError, mb.AccuracyError)


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


def _log_floats(lo, hi):
    return _floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def cases(draw):
    """(contract, S, t) over the admissible domain."""
    t = draw(_floats(0.0, 0.5))
    T = t + draw(_log_floats(1e-4, 3.0))
    pieces = draw(st.integers(1, 5))
    # cumulative sums of positive gaps fill (t, T), strictly increasing
    gaps = draw(st.lists(_floats(0.5, 1.5), min_size=pieces, max_size=pieces))
    bps = (0.0, *(t + (T - t) * c / sum(gaps) for c in accumulate(gaps[:-1])))

    def curve(lo, hi):
        values = draw(st.lists(_floats(lo, hi), min_size=pieces,
                               max_size=pieces))
        return mb.TermStructure(bps, values)
    curves = mb.CurveSet(curve(-0.02, 0.1), curve(0.0, 0.08), curve(0.05, 0.8))
    K = draw(_floats(50.0, 150.0))
    bar = mb.barrier_from_terminal(K * draw(_floats(0.5, 1.5)),
                                   draw(_floats(-50.0, 500.0)), curves, T)
    side, style = draw(st.sampled_from([(side, style)
                                        for side in ("call", "put")
                                        for style in ("down_and_out",
                                                      "down_and_in")]))
    con = mb.BarrierContract(strike=K, expiry=T, side=side, style=style,
                             barrier=bar)
    # log(S/h(t)) from 1e-12 to 20, log-uniform so both ends are drawn
    return con, draw(_log_floats(1e-12, 20.0)), t
