"""Command-line interface: output shape, exit codes, reproducibility."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import movebar
import movebar.cli
import movebar.oracles
from movebar.cli import main

FIX = Path(__file__).resolve().parents[1] / "fixtures"

FLAT = str(FIX / "curves_flat.json")
FLAT_DIV = str(FIX / "curves_flat_div.json")
TWO_PIECE = str(FIX / "curves_two_piece.json")
KNOCKOUT_CALL = str(FIX / "contract_knockout_call.json")
LOW_STRIKE = str(FIX / "contract_low_strike.json")
LEVELS_PUT = str(FIX / "contract_levels_put.json")
# the quadrature's price of LOW_STRIKE (K 80 < h_T 90) on FLAT_DIV, frozen
# from the 40-digit evaluation (test_heatkernel.test_low_strike_anchor)
LOW_STRIKE_ANCHOR = 17.584975559863764


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_price_json(capsys):
    rc, out, err = run(capsys, "price", "--curves", FLAT,
                       "--contract", KNOCKOUT_CALL,
                       "--spot", "100", "--time", "0")
    assert rc == 0
    body = json.loads(out)
    assert body["command"] == "price"
    assert body["barrier_level"] == pytest.approx(90.0, rel=1e-14)
    assert body["breakdown"]["price"] == pytest.approx(8.665471658245668,
                                                       rel=1e-12)
    assert body["breakdown"]["status"] == "live"
    assert body["inputs"]["curves_sha256"]
    assert "finished in" in err


def test_price_csv(capsys):
    rc, out, _ = run(capsys, "price", "--curves", FLAT,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", "100", "--time", "0", "--csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    fields = dict(line.split(",", 1) for line in lines[1:])
    assert float(fields["price"]) == pytest.approx(8.665471658245668, rel=1e-12)
    assert fields["status"] == "live"


def test_price_below_barrier_is_knocked_out(capsys):
    rc, out, _ = run(capsys, "price", "--curves", FLAT,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", "85", "--time", "0")
    assert rc == 0
    body = json.loads(out)
    assert body["breakdown"]["price"] == 0.0
    assert body["breakdown"]["status"] == "knocked_out"


def test_price_levels_form_contract(capsys):
    rc, out, _ = run(capsys, "price", "--curves", FLAT,
                     "--contract", LEVELS_PUT,
                     "--spot", "100", "--time", "0")
    assert rc == 0
    body = json.loads(out)
    assert body["side"] == "put"
    assert body["C"] == pytest.approx(-0.5, abs=1e-12)


def test_price_low_strike_matches_the_quadrature_anchor(capsys):
    rc, out, _ = run(capsys, "price", "--curves", FLAT_DIV,
                     "--contract", LOW_STRIKE,
                     "--spot", "100", "--time", "0")
    assert rc == 0
    breakdown = json.loads(out)["breakdown"]
    assert breakdown["price"] == pytest.approx(LOW_STRIKE_ANCHOR, rel=2e-13)
    assert breakdown["status"] == "live"
    rc, out, _ = run(capsys, "parity", "--curves", FLAT_DIV,
                     "--contract", LOW_STRIKE,
                     "--spot", "100", "--time", "0")
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_parity_flat_curves(capsys):
    rc, out, _ = run(capsys, "parity", "--curves", FLAT,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", "100", "--time", "0")
    assert rc == 0
    body = json.loads(out)
    names = [r["name"] for r in body["results"]]
    assert names == ["out_in_minus_vanilla", "put_plus_forward_minus_call",
                     "flat_parity_gap_corrected", "flat_parity_gap_printed_form"]
    assert body["passed"] is True
    by_name = {r["name"]: r for r in body["results"]}
    # the corrected identity is asserted, the printed variant only reported
    assert by_name["flat_parity_gap_corrected"]["passed"] is True
    assert by_name["flat_parity_gap_printed_form"]["passed"] is None
    assert abs(by_name["flat_parity_gap_printed_form"]["value"]) > 1.0


def test_parity_two_piece_curves(capsys):
    rc, out, _ = run(capsys, "parity", "--curves", TWO_PIECE,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", "100", "--time", "0")
    assert rc == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    # no flat-parameter identity rows on time-dependent curves
    assert names == ["out_in_minus_vanilla", "put_plus_forward_minus_call"]


def test_parity_unattainable_tolerance_fails(capsys):
    rc, out, _ = run(capsys, "parity", "--curves", FLAT,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", "100", "--time", "0", "--tol", "1e-30")
    assert rc == 1
    assert json.loads(out)["passed"] is False


def test_parity_csv(capsys):
    rc, out, _ = run(capsys, "parity", "--curves", FLAT,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", "100", "--time", "0", "--csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,value,reference,error,tolerance,passed"
    assert len(lines) == 5


VALIDATE_FAST = ["--mc-paths", "20000", "--mc-steps", "16", "--seed", "3",
                 "--pde-grid", "200"]


def test_validate_constant_case(capsys):
    rc, out, err = run(capsys, "validate", "--curves", FLAT,
                       "--contract", KNOCKOUT_CALL,
                       "--spot", "100", "--time", "0", *VALIDATE_FAST)
    assert rc == 0
    body = json.loads(out)
    names = [r["name"] for r in body["results"]]
    assert names == ["quadrature_vs_closed", "lattice_vs_closed_rel",
                     "simulation_vs_closed"]
    assert all(r["passed"] for r in body["results"])
    sim = body["parameters"]["simulation"]
    assert 0.0 < sim["knockout_fraction"] < 1.0
    assert sim["n_paths"] == 20000
    assert 0.0 < sim["ess"] <= 10000  # of 10,000 pair means


def test_validate_stdout_is_reproducible(capsys):
    args = ["validate", "--curves", FLAT, "--contract", KNOCKOUT_CALL,
            "--spot", "100", "--time", "0", *VALIDATE_FAST]
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2  # timing goes to stderr, stdout is byte-stable


def test_validate_coarse_lattice_fails(capsys):
    rc, out, _ = run(capsys, "validate", "--curves", FLAT,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", "100", "--time", "0",
                     "--mc-paths", "20000", "--mc-steps", "16", "--seed", "3",
                     "--pde-grid", "12")
    assert rc == 1
    by_name = {r["name"]: r for r in json.loads(out)["results"]}
    assert by_name["lattice_vs_closed_rel"]["passed"] is False


def test_validate_on_the_barrier_prices_every_oracle_at_zero(capsys):
    # S = h(0): the knockout is worth exactly 0 by the closed form and by
    # all three oracles
    con = movebar.load_contract(KNOCKOUT_CALL, movebar.load_curves(TWO_PIECE))
    rc, out, _ = run(capsys, "validate", "--curves", TWO_PIECE,
                     "--contract", KNOCKOUT_CALL,
                     "--spot", repr(con.barrier.level(0.0)), "--time", "0",
                     *VALIDATE_FAST)
    assert rc == 0
    results = json.loads(out)["results"]
    assert [r["value"] for r in results] == [0.0, 0.0, 0.0]


def test_validate_low_strike_cross_checks_oracles(capsys):
    rc, out, _ = run(capsys, "validate", "--curves", FLAT_DIV,
                     "--contract", LOW_STRIKE,
                     "--spot", "100", "--time", "0", *VALIDATE_FAST)
    assert rc == 0
    body = json.loads(out)
    names = [r["name"] for r in body["results"]]
    assert names == ["quadrature_vs_closed", "lattice_vs_closed_rel",
                     "simulation_vs_closed"]
    assert all(r["passed"] for r in body["results"])
    assert body["results"][0]["reference"] == pytest.approx(
        LOW_STRIKE_ANCHOR, rel=2e-13)
    assert "closed_form" not in body["parameters"]


def test_validate_bad_heat_tolerance_is_an_input_error(capsys):
    rc, out, err = run(capsys, "validate", "--curves", FLAT,
                       "--contract", KNOCKOUT_CALL, "--spot", "100",
                       "--time", "0", "--tol-heat", "nan", *VALIDATE_FAST)
    assert rc == 2
    assert out == ""
    assert "tol must be positive and finite, got nan" in err


def test_validate_checks_the_path_count_before_the_lattice(capsys,
                                                           monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("lattice solved before --mc-paths was checked")

    monkeypatch.setattr(movebar.oracles, "pde_price", no_lattice)
    rc, out, err = run(capsys, "validate", "--curves", TWO_PIECE,
                       "--contract", KNOCKOUT_CALL, "--spot", "100",
                       "--time", "0", "--mc-paths", "99999")
    assert rc == 2
    assert out == ""
    assert "n_paths must be even and at least 4, got 99999" in err


def test_unattainable_heat_tolerance_is_an_accuracy_failure(capsys):
    rc, out, err = run(capsys, "validate", "--curves", FLAT,
                       "--contract", KNOCKOUT_CALL, "--spot", "100",
                       "--time", "0", "--tol-heat", "1e-300", *VALIDATE_FAST)
    assert rc == 1
    assert out == ""
    assert "accuracy failure: quadrature achieved" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--tol-pde", "nan"],
    ["validate", "--tol-pde", "0"],
    ["validate", "--mc-sigmas", "-1"],
    ["validate", "--mc-sigmas", "inf"],
    ["parity", "--tol", "nan"],
    ["parity", "--tol", "-1e-12"],
], ids=" ".join)
def test_bad_tolerance_flag_is_an_input_error(capsys, argv):
    cmd, flag, value = argv
    fast = VALIDATE_FAST if cmd == "validate" else []
    # flag=value: argparse would read "-1e-12" alone as an option
    rc, out, err = run(capsys, cmd, "--curves", FLAT, "--contract",
                       KNOCKOUT_CALL, "--spot", "100", "--time", "0",
                       f"{flag}={value}", *fast)
    assert rc == 2
    assert out == ""
    assert f"{flag} must be positive and finite, got {float(value)}" in err


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout."""
    src = str(Path(movebar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_heavy_scipy_subpackages_out():
    # validate's start is mostly import time, and nothing in the package
    # needs scipy: the lattice solves its tridiagonal systems in numpy
    proc = _fresh_python(
        "import sys, movebar.cli, movebar.oracles; print(sorted(m for m in "
        "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracle_import_leaves_numpy_polynomial_out():
    # the quadrature's Gauss-Legendre rule is written out, not computed;
    # numpy before 2 loads numpy.polynomial with numpy itself
    proc = _fresh_python(
        "import sys, numpy; eager = 'numpy.polynomial' in sys.modules; "
        "import movebar.oracles; "
        "print(eager, 'numpy.polynomial' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.split()[0] == "True":
        pytest.skip("this numpy loads numpy.polynomial on import")
    assert proc.stdout.split() == ["False", "False"]


def test_oracle_import_leaves_the_thread_pool_and_logging_out():
    # the simulation runs its workers on plain threads
    proc = _fresh_python(
        "import sys, movebar.oracles; print(sorted(m for m in "
        "('concurrent.futures', 'logging') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PAIR = ["--curves", TWO_PIECE, "--contract", KNOCKOUT_CALL,
        "--spot", "100", "--time", "0"]


@pytest.mark.parametrize("argvs, loaded", [
    ([["price", *PAIR], ["parity", *PAIR],
      ["curves", "show", "--curves", TWO_PIECE]], []),
    ([["validate", *PAIR, *VALIDATE_FAST]], ["numpy"]),
], ids=["closed forms", "validate"])
def test_only_validate_loads_numpy_and_scipy(argvs, loaded):
    # the closed forms use only math; the oracles load on first use
    proc = _fresh_python(
        "import contextlib, io, sys, movebar, movebar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [movebar.cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in ('numpy', 'scipy') "
        "if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(argvs)} {loaded}"


def test_every_public_name_resolves():
    namespace = {}
    exec("from movebar import *", namespace)
    assert set(movebar.__all__) <= namespace.keys()
    from movebar import PdeGrid, mc_price
    assert (PdeGrid, mc_price) == (movebar.oracles.PdeGrid,
                                   movebar.oracles.mc_price)
    assert set(movebar.__all__) <= set(dir(movebar))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        movebar.no_such_name


def test_oracle_names_follow_rebinding_in_the_oracles(monkeypatch):
    # the package looks the name up on every access, so a wrapper bound in
    # movebar.oracles is seen at once and gone once unbound
    original = movebar.mc_price

    def stub(*args, **kwargs):
        raise AssertionError("stub called")

    with monkeypatch.context() as patch:
        patch.setattr(movebar.oracles, "mc_price", stub)
        assert movebar.mc_price is stub
    assert movebar.mc_price is original


def test_curves_show_round_trips(capsys):
    rc, out, _ = run(capsys, "curves", "show", "--curves", TWO_PIECE)
    assert rc == 0
    body = json.loads(out)
    assert body["curves"] == json.loads(Path(TWO_PIECE).read_text())


def test_missing_file_is_an_input_error(capsys, tmp_path):
    rc, _, err = run(capsys, "price", "--curves", str(tmp_path / "no.json"),
                     "--contract", KNOCKOUT_CALL, "--spot", "100", "--time", "0")
    assert rc == 2
    assert "error:" in err


def test_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "r": }\n')
    rc, _, err = run(capsys, "price", "--curves", str(bad),
                     "--contract", KNOCKOUT_CALL, "--spot", "100", "--time", "0")
    assert rc == 2
    assert "bad.json:2:" in err


def test_unknown_style_is_an_input_error(capsys, tmp_path):
    con = tmp_path / "con.json"
    con.write_text(json.dumps(
        {"strike": 100.0, "expiry": 1.0, "side": "call",
         "style": "up_and_out", "barrier": {"h_T": 90.0, "C": 0.0}}))
    rc, _, err = run(capsys, "price", "--curves", FLAT,
                     "--contract", str(con), "--spot", "100", "--time", "0")
    assert rc == 2


@pytest.mark.parametrize("field,value,named", [
    ("strike", "abc", "contract field 'strike' must be numeric, got 'abc'"),
    ("strike", None, "contract field 'strike' must be numeric, got None"),
    ("expiry", "abc", "contract field 'expiry' must be numeric, got 'abc'"),
    ("C", "x", "barrier field 'C' must be numeric, got 'x'"),
    ("r", "abc", "curve values must be numeric, got 'abc'"),
    # JSON booleans, numeric strings and non-array curves are not numbers
    ("strike", "100", "contract field 'strike' must be numeric, got '100'"),
    ("C", True, "barrier field 'C' must be numeric, got True"),
    ("breakpoints", "0", "curve breakpoints must be a list, got '0'"),
    ("values", "0.05", "curve values must be a list, got '0.05'"),
])
def test_non_numeric_field_is_an_input_error(capsys, tmp_path, field, value,
                                             named):
    contract = {"strike": 100.0, "expiry": 1.0, "side": "call",
                "style": "down_and_out", "barrier": {"h_T": 90.0, "C": 0.0}}
    curves = json.loads(Path(FLAT).read_text())
    if field == "C":
        contract["barrier"]["C"] = value
    elif field == "r":
        curves["r"]["values"] = [value]
    elif field in ("breakpoints", "values"):
        curves["r"][field] = value
    else:
        contract[field] = value
    con, cur = tmp_path / "con.json", tmp_path / "cur.json"
    con.write_text(json.dumps(contract))
    cur.write_text(json.dumps(curves))
    command = (["curves", "show", "--curves", str(cur)]
               if field in ("r", "breakpoints", "values") else
               ["price", "--curves", str(cur), "--contract", str(con),
                "--spot", "100", "--time", "0"])
    rc, out, err = run(capsys, *command)
    assert rc == 2
    assert out == ""
    assert named in err


def test_barrier_missing_field_is_an_input_error(capsys, tmp_path):
    con = tmp_path / "con.json"
    con.write_text(json.dumps(
        {"strike": 100.0, "expiry": 1.0, "side": "call",
         "style": "down_and_out", "barrier": {"C": 0.0}}))
    rc, out, err = run(capsys, "price", "--curves", FLAT, "--contract",
                       str(con), "--spot", "100", "--time", "0")
    assert rc == 2
    assert out == ""
    assert f"{con}: barrier missing field 'h_T'" in err


def test_curve_domain_error_is_a_load_error(capsys, tmp_path):
    curves = json.loads(Path(FLAT).read_text())
    curves["sigma"]["values"] = [0.0]
    cur = tmp_path / "cur.json"
    cur.write_text(json.dumps(curves))
    rc, out, err = run(capsys, "curves", "show", "--curves", str(cur))
    assert rc == 2
    assert out == ""
    # the file name shows the DomainError came back as a LoadError
    assert f"{cur}: sigma values must be >= 1e-08" in err


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--curves", FLAT, "--contract", KNOCKOUT_CALL])
    assert exc.value.code == 2


# float edges through main: sigma^2 T underflowing to 0 and e^800 discount
# factors exit 2; the K 80 put at C 400, whose power factor overflows,
# validates with the closed form and every oracle at exactly 0
@pytest.mark.parametrize("command, r, q, K, T, side, C, named", [
    ("price", 0.05, 0.0, 80.0, 5e-324, "call", 0.0, "sigma2bar must"),
    ("price", -800.0, -800.0, 100.0, 1.0, "call", -1.25, "qbar=-800.0"),
    ("validate", 0.05, 0.02, 80.0, 1.0, "put", 400.0, ""),
], ids=["expiry-5e-324", "r=q=-800", "put-K80-C400"])
def test_float_edges_through_main(capsys, tmp_path, command, r, q, K, T,
                                  side, C, named):
    cur, con = tmp_path / "cur.json", tmp_path / "con.json"
    curves = {"r": r, "q": q, "sigma": 0.2}
    cur.write_text(json.dumps({k: {"breakpoints": [0.0], "values": [v]}
                               for k, v in curves.items()}))
    con.write_text(json.dumps({"strike": K, "expiry": T, "side": side,
                               "style": "down_and_out",
                               "barrier": {"h_T": 90.0, "C": C}}))
    rc, out, err = run(capsys, command, "--curves", str(cur), "--contract",
                       str(con), "--spot", "100", "--time", "0")
    assert (rc, named in err) == (2 if named else 0, True)
    if rc == 0:
        assert [(row["value"], row["reference"]) for row in
                json.loads(out)["results"]] == [(0.0, 0.0)] * 3
