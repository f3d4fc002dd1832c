"""The closed forms' bits over a seeded corpus: one SHA-256 per pricer.

Rows are drawn from stdlib random.Random, whose streams do not change with
a library version: 1-4 curve pieces, r and q up to ±900 in 4% of rows, C
from -50 to 500, K at, below and above h_T, t at 0, inside (0, T), at T
and past T, expiries down to 5e-324, and spots from 0.9·h(t) to 1e200.
Each record is the row's inputs and the pricer's fields in float.hex, or
the type and text of the error it raised.  On a mismatch the records are
written under the test's tmp_path, one file per pricer, to diff against a
run of the other tree.
"""
import hashlib
import math
import random

import movebar as mb

SEED, ROWS = 20131, 2000

DIGESTS = {
    "down_and_out_call":
        "1bbcd4353873c7edb64b3b708592e9b54991981dce5ee0dfc2ce5fe124d87765",
    "down_and_in_call":
        "4da93dbbfd3ab8b0c55951e699b84c2afbb58979c4eb90469d63d4c466ee04ab",
    "forward_barrier_value":
        "1b3005e9aa30fad627a24b66aaed26e5e0d680a05e459053cc2987818ab58892",
    "down_and_out_put":
        "a28e81ea45ed623339b2d64d8018a93853057bfd681beb2776c55045a59b91b3",
    "down_and_in_put":
        "2ed56f67cf95ea6aff756a2763bb0bdb91b3680773c7ee336f34feeb90037edf",
    "price_contract":
        "cd743fa9201dd8f7326dc5f0582f9c2f3b12f9ffa9b50ae379ab2ba45e6a83fa",
    "vanilla_call":
        "af169e1ce2a1eda91f75d599d5f8aab7a619b2da0a55a75db9ff8f10c8887cff",
    "vanilla_put":
        "a4b1c8ffe240f2806872944846213bfb54b83fbfb72c116989a8e9d6c2d4812a",
}

SIDE_STYLES = [(side, style) for side in ("call", "put")
               for style in ("down_and_out", "down_and_in")]


def _hexed(values):
    return " ".join(v.hex() if isinstance(v, float) else str(v) for v in values)


def _draw(rng):
    """One row's inputs.  Every number is drawn whatever the row turns out
    to be, so the stream never depends on the code under test."""
    pieces = rng.randint(1, 4)
    tiny = rng.random() < 0.03
    T = rng.choice([5e-324, 1e-300, 1e-15, 1e-9]) if tiny else rng.uniform(0.05, 3.0)
    cuts = [rng.uniform(0.0, 1.5 * T) for _ in range(pieces - 1)]
    bps = (0.0, *sorted(set(cuts) - {0.0}))
    extreme = rng.random() < 0.04
    # extreme q within 300 of r: h(t) then stays a float while e^{-qbar}
    # or e^{-rbar} may fall below the normal floats
    r = [rng.uniform(-900.0, 900.0) if extreme else rng.uniform(-0.02, 0.1)
         for _ in range(4)]
    q = [rng.uniform(max(-900.0, v - 300.0), min(900.0, v + 300.0)) if extreme
         else rng.uniform(0.0, 0.08) for v in r]
    sigma = [rng.uniform(0.05, 0.8) for _ in range(4)]
    C = (rng.uniform(-3.0, 3.0), rng.uniform(-50.0, 500.0),
         rng.choice([-1.25, -0.5, 0.0, 0.5, 1.0]))[rng.choices(
             range(3), weights=(50, 30, 20))[0]]
    h_T = rng.uniform(50.0, 150.0)
    K = (h_T, h_T * rng.uniform(0.5, 1.0), h_T * rng.uniform(1.0, 1.5))[
        rng.choices(range(3), weights=(20, 40, 40))[0]]
    t = (0.0, rng.uniform(0.0, T), T, T * rng.uniform(1.0, 1.5))[
        rng.choices(range(4), weights=(40, 30, 15, 15))[0]]
    spot = rng.randrange(7), rng.uniform(-12.0, -3.0), rng.uniform(0.0, 1.5), \
        rng.uniform(0.0, 1.0)
    side_style = rng.choice(SIDE_STYLES)
    n = len(bps)
    return bps, r[:n], q[:n], sigma[:n], C, h_T, K, T, t, spot, side_style


def _spot(kind, u_near, u_far, u_log, level):
    """0.9·h, h, h(1 + 1e-12…1e-3), h·e^{0…1.5}, log-uniform from h to
    1e200, 1e100 or 1e200."""
    log_h = math.log(level)
    return (0.9 * level, level, level * (1.0 + 10.0 ** u_near),
            level * math.exp(u_far),
            math.exp(log_h + u_log * (math.log(1e200) - log_h)), 1e100,
            1e200)[kind]


def _fields(result):
    if isinstance(result, mb.VanillaQuote):
        return _hexed((result.price, result.d1, result.d1_prime))
    return _hexed(result.to_dict().values())


PRICERS = {
    "down_and_out_call": mb.down_and_out_call,
    "down_and_in_call": mb.down_and_in_call,
    "forward_barrier_value": mb.forward_barrier_value,
    "down_and_out_put": mb.down_and_out_put,
    "down_and_in_put": mb.down_and_in_put,
    "price_contract": mb.price_contract,
    "vanilla_call": lambda S, t, c: mb.vanilla_call(S, t, c.strike, c.expiry,
                                                    c.curves),
    "vanilla_put": lambda S, t, c: mb.vanilla_put(S, t, c.strike, c.expiry,
                                                  c.curves),
}


def _records():
    """{pricer: [record per row]} over the seeded corpus."""
    rng = random.Random(SEED)
    records = {name: [] for name in PRICERS}
    for _ in range(ROWS):
        bps, r, q, sigma, C, h_T, K, T, t, spot, side_style = _draw(rng)
        try:
            curves = mb.CurveSet(*(mb.TermStructure(bps, v)
                                   for v in (r, q, sigma)))
            contract = mb.BarrierContract(
                strike=K, expiry=T, side=side_style[0], style=side_style[1],
                barrier=mb.barrier_from_terminal(h_T, C, curves, T))
            S = _spot(*spot, contract.barrier.level(min(t, T)))
        except mb.DomainError as exc:
            contract, S, failed = None, 100.0, f"{type(exc).__name__}: {exc}"
        inputs = _hexed((*bps, *r, *q, *sigma, C, h_T, K, T, t, S, *side_style))
        for name, fn in PRICERS.items():
            if contract is None:
                out = failed
            else:
                try:
                    out = _fields(fn(S, t, contract))
                except Exception as exc:  # its type is part of the record
                    out = f"{type(exc).__name__}: {exc}"
            records[name].append(f"{inputs} | {out}")
    return records


def test_closed_forms_keep_their_bits(tmp_path):
    records = _records()
    got = {name: hashlib.sha256("\n".join(rows).encode()).hexdigest()
           for name, rows in records.items()}
    if got != DIGESTS:
        for name, rows in records.items():
            (tmp_path / f"{name}.txt").write_text("\n".join(rows) + "\n")
    assert got == DIGESTS, f"records written to {tmp_path}"
