"""The lattice and the simulation over the admissible domain of domain.py,
as a property: each draw prices to a finite number or is refused with
DomainError or AccuracyError.  The lattice prices a knock-in draw's
knockout; the simulation runs 2,000 x 8 paths.  Derandomized."""
import dataclasses
import math

import pytest
from hypothesis import given, settings

import movebar as mb
from domain import TYPED, cases

ORACLES = {
    "pde_price": lambda S, t, con: mb.pde_price(
        S, t, dataclasses.replace(con, style="down_and_out")),
    "mc_price": lambda S, t, con: mb.mc_price(S, t, con, n_paths=2000,
                                              n_steps=8).price,
}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=cases())
def test_oracle_prices_finite_or_refuses_typed(oracle, case):
    con, log_moneyness, t = case
    try:
        S = con.barrier.level(t) * math.exp(log_moneyness)
        value = ORACLES[oracle](S, t, con)
    except TYPED:
        return
    assert math.isfinite(value), value
