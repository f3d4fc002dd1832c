"""Command-line interface: price, parity, validate, curves show.

Structured output (JSON, or flat CSV with --csv) goes to stdout and is
byte-identical across runs with the same inputs and seed; timing and
progress notes go to stderr.  Exit status: 0 all checks passed, 1 a numeric
check failed, 2 bad input.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

from .barrier import (constant_case_parity_gap, down_and_in_call,
                      down_and_in_put, down_and_out_call, down_and_out_put,
                      forward_barrier_value, price_contract)
from .contract import load_contract
from .curves import load_curves
from .errors import AccuracyError, DomainError, LoadError, check_tolerance
from .vanilla import vanilla_call, vanilla_put

TOL_PARITY = 1e-12
TOL_HEAT = 1e-8
TOL_PDE_REL = 5e-4
MC_SIGMAS = 3.0


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(args) -> tuple:
    curves = load_curves(args.curves)
    contract = load_contract(args.contract, curves)
    inputs = {"curves": args.curves, "curves_sha256": _digest(args.curves),
              "contract": args.contract,
              "contract_sha256": _digest(args.contract)}
    return curves, contract, inputs


def _report(command: str, inputs: dict, parameters: dict, results: list,
            csv: bool, started: float) -> int:
    """Print the result rows on stdout and the timing on stderr, so stdout
    is reproducible byte for byte; return the exit status."""
    passed = all(r["passed"] for r in results if r["passed"] is not None)
    if csv:
        print("name,value,reference,error,tolerance,passed")
        for row in results:
            print(",".join("" if row.get(k) is None else repr(row.get(k))
                           if isinstance(row.get(k), float) else str(row.get(k))
                           for k in ("name", "value", "reference", "error",
                                     "tolerance", "passed")))
    else:
        print(json.dumps({"command": command, "inputs": inputs,
                          "parameters": parameters, "results": results,
                          "passed": passed}, indent=2))
    print(f"[{command}] finished in {time.perf_counter() - started:.3f}s",
          file=sys.stderr)
    return 0 if passed else 1


def _row(name, value, reference, tolerance):
    err = abs(value - reference)
    passed = None if tolerance is None else bool(err <= tolerance)
    return {"name": name, "value": value, "reference": reference,
            "error": err, "tolerance": tolerance, "passed": passed}


def cmd_price(args) -> int:
    started = time.perf_counter()
    curves, contract, inputs = _load(args)
    breakdown = price_contract(args.spot, args.time, contract)
    level = contract.barrier.level(min(args.time, contract.expiry))
    body = {
        "command": "price", "inputs": inputs,
        "spot": args.spot, "time": args.time,
        "side": contract.side, "style": contract.style,
        "strike": contract.strike, "expiry": contract.expiry,
        "barrier_level": level, "h_T": contract.barrier.h_T,
        "C": contract.barrier.C,
        "breakdown": breakdown.to_dict(),
    }
    if args.csv:
        print("field,value")
        for key in ("spot", "time", "side", "style", "strike", "expiry",
                    "barrier_level", "h_T", "C"):
            print(f"{key},{body[key]}")
        for key, val in breakdown.to_dict().items():
            print(f"{key},{'' if val is None else val}")
    else:
        print(json.dumps(body, indent=2))
    print(f"[price] finished in {time.perf_counter() - started:.3f}s",
          file=sys.stderr)
    return 0


def cmd_parity(args) -> int:
    started = time.perf_counter()
    check_tolerance("--tol", args.tol)
    curves, contract, inputs = _load(args)
    S, t = args.spot, args.time
    results = []

    outs = {"call": down_and_out_call(S, t, contract).price,
            "put": down_and_out_put(S, t, contract).price}
    in_fn, van_fn = ((down_and_in_call, vanilla_call) if contract.side == "call"
                     else (down_and_in_put, vanilla_put))
    in_px = in_fn(S, t, contract).price
    van_px = van_fn(S, t, contract.strike, contract.expiry, curves).price
    results.append(_row("out_in_minus_vanilla",
                        outs[contract.side] + in_px - van_px,
                        reference=0.0, tolerance=args.tol))
    fwd = forward_barrier_value(S, t, contract).price
    results.append(_row("put_plus_forward_minus_call",
                        outs["put"] + fwd - outs["call"],
                        reference=0.0, tolerance=args.tol))

    cs = curves
    if all(len(curve.values) == 1 for curve in (cs.r, cs.q, cs.sigma)):
        r, q, sig = cs.r.values[0], cs.q.values[0], cs.sigma.values[0]
        a_rate = r - q + contract.barrier.C * sig * sig
        gap, gap_printed = (constant_case_parity_gap(
            S, t, contract.barrier.h_T, a_rate, contract.strike,
            contract.expiry, r, q, sig, printed=printed)
            for printed in (False, True))
        results.append(_row("flat_parity_gap_corrected", gap,
                            reference=0.0, tolerance=args.tol))
        # informational: the uncorrected variant gaps by a whole N() term
        results.append(_row("flat_parity_gap_printed_form", gap_printed,
                            reference=0.0, tolerance=None))

    return _report("parity", inputs, {"spot": S, "time": t, "tol": args.tol},
                   results, args.csv, started)


def cmd_validate(args) -> int:
    started = time.perf_counter()
    # --tol-heat is checked by the quadrature pricer
    check_tolerance("--tol-pde", args.tol_pde)
    check_tolerance("--mc-sigmas", args.mc_sigmas)
    # numpy loads here, so the other commands start without it
    from .oracles import PdeGrid, heat_kernel_price, mc_price, pde_price
    curves, contract, inputs = _load(args)
    S, t = args.spot, args.time
    out_contract = dataclasses.replace(contract, style="down_and_out")
    results = []
    params = {"spot": S, "time": t, "mc_paths": args.mc_paths,
              "mc_steps": args.mc_steps, "seed": args.seed,
              "pde_grid": args.pde_grid, "tol_heat": args.tol_heat,
              "tol_pde": args.tol_pde, "mc_sigmas": args.mc_sigmas,
              "style_validated": "down_and_out"}

    closed = price_contract(S, t, out_contract).price
    # every flag is checked before the simulation, the costliest step
    heat = heat_kernel_price(S, t, out_contract, tol=args.tol_heat / 10.0)
    grid = PdeGrid.for_contract(S, t, out_contract,
                                n_space=args.pde_grid, n_time=args.pde_grid)
    est = mc_price(S, t, out_contract, n_paths=args.mc_paths,
                   n_steps=args.mc_steps, seed=args.seed)
    pde = pde_price(S, t, out_contract, grid=grid)

    results.append(_row("quadrature_vs_closed", heat, reference=closed,
                        tolerance=args.tol_heat))
    scale = max(abs(closed), 1e-12)
    results.append(_row("lattice_vs_closed_rel", abs(pde - closed) / scale,
                        reference=0.0, tolerance=args.tol_pde))
    results.append(_row("simulation_vs_closed", est.price, reference=closed,
                        tolerance=args.mc_sigmas * est.std_error))

    params["simulation"] = {"std_error": est.std_error,
                            "knockout_fraction": est.knockout_fraction,
                            "n_paths": est.n_paths, "n_steps": est.n_steps,
                            "ess": est.ess}
    return _report("validate", inputs, params, results, args.csv, started)


def cmd_curves_show(args) -> int:
    curves = load_curves(args.curves)
    body = {"command": "curves show",
            "inputs": {"curves": args.curves,
                       "curves_sha256": _digest(args.curves)},
            "curves": curves.to_dict()}
    print(json.dumps(body, indent=2))
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--curves", required=True, help="curve file (JSON)")
    p.add_argument("--contract", required=True, help="contract file (JSON)")
    p.add_argument("--spot", type=float, required=True, help="spot price")
    p.add_argument("--time", type=float, required=True,
                   help="valuation time in years")
    p.add_argument("--csv", action="store_true",
                   help="flat CSV instead of JSON on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movebar",
        description="Moving-barrier option pricing and validation")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_price = sub.add_parser("price", help="closed-form price breakdown")
    _add_common(p_price)
    p_price.set_defaults(func=cmd_price)

    p_par = sub.add_parser("parity", help="check the model's exact identities")
    _add_common(p_par)
    p_par.add_argument("--tol", type=float, default=TOL_PARITY,
                       help=f"identity tolerance (default {TOL_PARITY:g})")
    p_par.set_defaults(func=cmd_parity)

    p_val = sub.add_parser("validate",
                           help="cross-check closed form against the "
                                "quadrature, lattice and simulation pricers")
    _add_common(p_val)
    p_val.add_argument("--mc-paths", type=int, default=100_000,
                       help="simulation paths, even (default 100000)")
    p_val.add_argument("--mc-steps", type=int, default=64,
                       help="simulation steps (default 64)")
    p_val.add_argument("--seed", type=int, default=0,
                       help="simulation seed (default 0)")
    p_val.add_argument("--pde-grid", type=int, default=400,
                       help="lattice nodes per axis (default 400)")
    p_val.add_argument("--tol-heat", type=float, default=TOL_HEAT,
                       help=f"quadrature tolerance, absolute "
                            f"(default {TOL_HEAT:g})")
    p_val.add_argument("--tol-pde", type=float, default=TOL_PDE_REL,
                       help=f"lattice tolerance, relative "
                            f"(default {TOL_PDE_REL:g})")
    p_val.add_argument("--mc-sigmas", type=float, default=MC_SIGMAS,
                       help=f"simulation band in standard errors "
                            f"(default {MC_SIGMAS:g})")
    p_val.set_defaults(func=cmd_validate)

    p_cur = sub.add_parser("curves", help="curve utilities")
    sub_cur = p_cur.add_subparsers(dest="curves_cmd", required=True)
    p_show = sub_cur.add_parser("show", help="echo a curve file, validated")
    p_show.add_argument("--curves", required=True, help="curve file (JSON)")
    p_show.set_defaults(func=cmd_curves_show)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
