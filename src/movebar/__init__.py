"""Moving-barrier option pricing under piecewise-constant term structures.

Closed-form prices for down-and-out / down-and-in calls and puts whose
barrier belongs to the class h(t) = h_T exp(-integral of r - q + C sigma^2),
plus three independent numerical pricers (quadrature, lattice, simulation)
for validation.  The pricers need numpy and are imported on first use of
one of their names, so the closed forms start without it.
"""
from .curves import SIGMA_MIN, CurveSet, TermStructure, load_curves
from .contract import (BarrierContract, MovingBarrier, barrier_from_terminal,
                       c_from_levels, contract_from_dict, load_contract)
from .vanilla import VanillaQuote, norm_cdf, vanilla_call, vanilla_put
from .barrier import (PriceBreakdown, constant_case_parity_gap,
                      down_and_in_call, down_and_in_put, down_and_out_call,
                      down_and_out_put, forward_barrier_value, price_contract)
from .errors import AccuracyError, DomainError, LoadError

__version__ = "0.1.0"

__all__ = [
    "TermStructure", "CurveSet", "load_curves", "SIGMA_MIN",
    "MovingBarrier", "BarrierContract", "barrier_from_terminal",
    "c_from_levels", "contract_from_dict", "load_contract",
    "VanillaQuote", "norm_cdf", "vanilla_call", "vanilla_put",
    "PriceBreakdown", "down_and_out_call", "down_and_in_call",
    "down_and_out_put", "down_and_in_put", "forward_barrier_value",
    "price_contract", "constant_case_parity_gap",
    "HeatCoords", "to_heat_coords", "heat_kernel_price",
    "PdeGrid", "pde_price", "McEstimate", "mc_price",
    "DomainError", "LoadError", "AccuracyError",
    "__version__",
]

_ORACLE_NAMES = frozenset({"HeatCoords", "to_heat_coords", "heat_kernel_price",
                           "PdeGrid", "pde_price", "McEstimate", "mc_price"})


def __getattr__(name):
    # looked up on every access, never cached here, so a rebinding in
    # movebar.oracles (a monkeypatch, a tracer) shows through at once
    if name in _ORACLE_NAMES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
