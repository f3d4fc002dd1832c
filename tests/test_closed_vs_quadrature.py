"""The closed forms against the heat-kernel quadrature, as a property.

The quadrature integrates the pricing kernel on its own, so it checks the
closed forms independently over the whole admissible domain of domain.py.
Each draw either agrees within max(1e-9, 1e-12·|closed|) or is refused with
a typed error, DomainError or AccuracyError, by the pricer that cannot price
it; no draw raises anything else.  Derandomized, so every run checks the
same examples.
"""
import math

from hypothesis import given, settings

import movebar as mb
from domain import TYPED, cases


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cases())
def test_closed_form_matches_the_quadrature_or_refuses_typed(case):
    con, log_moneyness, t = case
    try:
        S = con.barrier.level(t) * math.exp(log_moneyness)
    except mb.DomainError:
        return  # h(t) outside the float range: no spot to price at
    try:
        closed = mb.price_contract(S, t, con).price
    except TYPED:
        closed = None
    tol = 1e-9 if closed is None else max(1e-9, 1e-12 * abs(closed))
    try:
        heat = mb.heat_kernel_price(S, t, con, tol=tol)
    except TYPED:
        return
    if closed is not None:
        assert abs(heat - closed) <= tol, (heat, closed, tol)
