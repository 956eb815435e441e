"""Command-line interface: argument parsing, exit codes, output files,
and manifest-driven replays."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lyapexp import cli
from lyapexp import distributions as dist
from lyapexp import lyapunov
from lyapexp.errors import InvalidParameter

SPECS = Path(__file__).resolve().parents[1] / "specs"
TWO_POINT = str(SPECS / "two_point.json")
CRITICAL = str(SPECS / "critical_two.json")
HEAVY = str(SPECS / "heavy_half.json")
UNIFORM = str(SPECS / "uniform_sub.json")
CONSTANT = str(SPECS / "constant_law.json")
BLOCKS_SCALAR = str(SPECS / "blocks_scalar.json")
BLOCKS_D2 = str(SPECS / "blocks_d2.json")
LYAP = ("lyap", "--spec", TWO_POINT, "--eps", "1/4", "--steps", "1000")


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- token parsers ----------------------------------------------------------------

def test_parse_number_forms():
    assert cli._parse_number("2^-5") == 0.03125
    assert cli._parse_number("3/4") == 0.75
    assert cli._parse_number(" 0.25 ") == 0.25
    assert cli._parse_number("1e-3") == 0.001


def test_parse_grid_power_range():
    assert cli._parse_grid("2^-2..2^-5") == [0.25, 0.125, 0.0625, 0.03125]
    assert cli._parse_grid("2^-5..2^-2") == [0.03125, 0.0625, 0.125, 0.25]
    assert cli._parse_grid("0.1,0.2") == [0.1, 0.2]
    assert cli._parse_grid("2^-3,1/2") == [0.125, 0.5]
    with pytest.raises(cli._UsageError):
        cli._parse_grid("2^-2..3^-5")


def test_parse_steps_and_int_lists():
    assert cli._parse_steps("1e6") == 1_000_000
    assert cli._parse_steps("1000,2000") == [1000, 2000]
    assert cli._parse_steps("1e30") == int(1e30)  # refused by MAX_STEPS
    with pytest.raises(cli._UsageError):
        cli._parse_steps(" , ")
    for text in ("1000.9", "1000,2000.5"):
        with pytest.raises(InvalidParameter, match="not a whole number"):
            cli._parse_steps(text)
    assert cli._parse_int_list("0..3") == [0, 1, 2, 3]
    assert cli._parse_int_list("4,7") == [4, 7]
    for text in ("3..2", " , ", ""):
        with pytest.raises(cli._UsageError):
            cli._parse_int_list(text)
    with pytest.raises(cli._UsageError):
        cli._parse_grid(" , ")


def test_thread_resolution():
    import argparse
    assert cli._resolve_threads(argparse.Namespace(threads=0)) == 1
    assert cli._resolve_threads(argparse.Namespace(threads=3)) == 3
    with pytest.raises(InvalidParameter):
        cli._resolve_threads(argparse.Namespace(threads=-3))


# -- exit codes -----------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "alpha")[0] == 1  # missing required --spec
    assert run(capsys, "coeffs", "--order", "2")[0] == 1  # no law given
    code, _, err = run(capsys, "chain", "--spec", TWO_POINT,
                       "--steps", "1000,2000", "--eps", "0.5")
    assert code == 1 and "single --steps" in err
    # malformed number tokens
    for argv in (LYAP[:4] + ("abc", "--steps", "1000"),
                 LYAP[:6] + ("many",),
                 ("coeffs", "--moments", "1/2,abc", "--order", "2"),
                 ("chain", "--spec", TWO_POINT, "--eps-grid", "2^-2..2^-x",
                  "--steps", "1000")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("usage error: malformed number"), argv
        assert len(err.splitlines()) == 1, argv


@pytest.mark.parametrize("argv, message", [
    (("chain", "--spec", TWO_POINT, "--steps", "1000"),
     "chain needs --eps or --eps-grid"),
    (("chain", "--spec", TWO_POINT, "--dominance", "--eps", "1/2",
      "--eps2", "1/4", "--steps", "1000", "--seeds", "0"),
     "--dominance expects eps <= eps2"),
], ids=["chain_no_eps", "dominance_order"])
def test_chain_usage_refusals_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"usage error: {message}\n"
    with pytest.raises(cli._UsageError, match=message):
        cli._HANDLERS["chain"](cli.build_parser().parse_args(argv))


def test_help_and_version_exit_zero(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "lyap", "--help")[0] == 0


def test_validation_errors_exit_two(capsys):
    code, _, err = run(capsys, "alpha", "--spec", "/nonexistent/law.json")
    assert code == 2
    code, _, err = run(capsys, "ising", "--range", "1", "--couplings", "1.0",
                       "--T", "-1", "--field-law", TWO_POINT,
                       "--steps", "1000")
    assert code == 2 and "InvalidSpec" in err
    # bad run sizes, and numbers that are not finite
    for argv in (LYAP + ("--replicas", "1"),
                 LYAP[:6] + ("0",),
                 LYAP + ("--burn-in", "-5"),
                 LYAP + ("--method", "direct", "--replicas", "1"),
                 LYAP + ("--method", "direct", "--discard", "-5"),
                 LYAP + ("--threads", "-3"),
                 ("highdim", "--blocks", BLOCKS_D2, "--eps", "1/4",
                  "--steps", "1000", "--replicas", "1"),
                 LYAP[:6] + ("1000.9", "--method", "direct"),
                 ("chain", "--dominance", "--spec", TWO_POINT, "--eps",
                  "-0.5", "--eps2", "0.25", "--steps", "1000", "--seeds",
                  "0"),
                 ("chain", "--spec", TWO_POINT, "--eps", "0.5",
                  "--steps", "1000", "--cutoff", "nan"),
                 LYAP[:4] + ("nan", "--steps", "1000"),
                 LYAP[:4] + ("2^5000", "--steps", "1000"),
                 LYAP[:6] + ("inf",),
                 ("coeffs", "--moments", "1/2,1/0", "--order", "2"),
                 # expansion orders out of range, and moment lists that
                 # cannot serve the order
                 ("coeffs", "--spec", TWO_POINT, "--order", "-1"),
                 ("coeffs", "--moments", "1/2", "--order", "3"),
                 ("coeffs", "--moments", "0", "--order", "1"),
                 ("highdim", "--blocks", BLOCKS_D2, "--K", "-1",
                  "--eps-grid", "2^-2..2^-3"),
                 ("ising", "--range", "2", "--couplings", "1,1.5", "--T", "1",
                  "--field-law", TWO_POINT, "--scan", "--scales", "1,1/2",
                  "--scan-order", "0", "--steps", "1000")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: InvalidParameter:"), argv
        assert len(err.splitlines()) == 1, argv


ALPHA_FILE = ("alpha", "--spec", None)
LYAP_FILE = ("lyap", "--spec", None, "--eps", "1/4", "--steps", "1000")
HIGHDIM_FILE = ("highdim", "--blocks", None, "--eps", "1/4", "--steps", "1000")
RERUN_FILE = ("rerun", "--manifest", None)
# deeper than the JSON decoder can recurse
DEEP = b"[" * 200000 + b"]" * 200000
HUGE = 10 ** 400  # an exact integer past the float range


def _table(**fields) -> bytes:
    """A one-triple d = 1 block file with ``fields`` set or replaced."""
    triple = {"weight": "1", "L": ["1"], "C": ["1"], "N": [["1/2"]]}
    doc = {"triples": [triple]}
    for key, value in fields.items():
        (doc if key == "d" else triple)[key] = value
    return json.dumps(doc).encode()


# the argv's None names a file of the given bytes
@pytest.mark.parametrize("argv, content, error, message", [
    (HIGHDIM_FILE, b'{"triples": [', "InvalidSpec", "malformed blocks file"),
    (("ising", "--range", "1", "--couplings", "inf", "--T", "1",
      "--field-law", TWO_POINT, "--scan", "--scales", "1/2,1/4",
      "--scan-order", "1", "--steps", "1000"), b"",
     "InvalidSpec", "model has no finite coupling to set a ray"),
    (ALPHA_FILE, b'\xff{"family": "two_point"}', "InvalidSpec",
     "malformed spec file"),
    (HIGHDIM_FILE, b'{"triples": [{"weight": "\xe9"}]}', "InvalidSpec",
     "malformed blocks file"),
    (ALPHA_FILE, b'{"family": "two_point", "atoms": [{"value": NaN, '
     b'"weight": "1/2"}, {"value": "2", "weight": "1/2"}]}',
     "InvalidSpec", "cannot parse number nan"),
    (ALPHA_FILE, b'{"family": "uniform_interval", "lower": 1e400, '
     b'"upper": "2"}', "InvalidSpec", "cannot parse number inf"),
    (HIGHDIM_FILE, _table(weight=math.nan), "InvalidSpec",
     "cannot parse number nan"),
    (HIGHDIM_FILE, _table(L=1), "InvalidSpec",
     "each triple's 'L' and 'C' must be lists"),
    (HIGHDIM_FILE, _table(N=[1]), "InvalidSpec",
     "each triple's 'L' and 'C' must be lists"),
    (HIGHDIM_FILE, _table(L="1", C="1", N=["1"]), "InvalidSpec",
     "each triple's 'L' and 'C' must be lists"),
    (HIGHDIM_FILE, _table(d=1.5), "InvalidSpec", "'d' must be an integer"),
    (HIGHDIM_FILE, _table(d=True), "InvalidSpec", "'d' must be an integer"),
    (HIGHDIM_FILE, _table(d="x"), "InvalidSpec", "'d' must be an integer"),
    (HIGHDIM_FILE, _table(d=None), "InvalidSpec", "'d' must be an integer"),
    (ALPHA_FILE, b'{"family": "two_point", "atoms": [{"value": "1e400", '
     b'"weight": "1/2"}, {"value": "2", "weight": "1/2"}]}', "InvalidSpec",
     "cannot parse number '1e400'"),
    (LYAP_FILE, b'{"family": "uniform_interval", "lower": "1", '
     b'"upper": "1e400"}', "InvalidSpec", "cannot parse number '1e400'"),
    (ALPHA_FILE, b'{"family": "two_point", "atoms": [{"value": "1e-400", '
     b'"weight": "1/2"}, {"value": "2", "weight": "1/2"}]}', "InvalidSpec",
     "cannot parse number '1e-400'"),
    (HIGHDIM_FILE, _table(N=[[HUGE]]), "InvalidSpec",
     f"cannot parse number {HUGE}"),
    (HIGHDIM_FILE, _table(weight="1e400"), "InvalidSpec",
     "cannot parse number '1e400'"),
    (HIGHDIM_FILE, b'{"triples": [{"weight": "1", "L": [1], "C": ['
     + b"9" * 5000 + b'], "N": [[1]]}]}', "InvalidSpec",
     "malformed blocks file"),
    (ALPHA_FILE, DEEP, "InvalidSpec", "malformed spec file"),
    (HIGHDIM_FILE, DEEP, "InvalidSpec", "malformed blocks file"),
    (RERUN_FILE, DEEP, "InvalidSpec", "malformed manifest file"),
], ids=["malformed_blocks", "no_finite_coupling", "non_utf8_spec",
        "non_utf8_blocks", "nan_value", "overflowing_endpoint",
        "nan_block_weight", "number_table", "flat_table", "string_table",
        "fractional_d", "boolean_d", "string_d", "null_d",
        "overflowing_atom", "overflowing_lyap_endpoint", "underflowing_atom",
        "overflowing_block_entry", "overflowing_block_weight",
        "integer_too_long", "deep_spec", "deep_blocks", "deep_manifest"])
def test_input_refusals_exit_two(capsys, tmp_path, argv, content, error,
                                 message):
    bad = tmp_path / "input.json"
    bad.write_bytes(content)
    argv = tuple(str(bad) if a is None else a for a in argv)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert err.startswith(f"error: {error}: {message}")


def test_numerical_errors_exit_three(capsys):
    code, _, err = run(capsys, "coeffs", "--spec", CRITICAL, "--order", "2")
    assert code == 3 and "DegenerateMoment" in err


# E[Z] = 3: at eps = 0 the chain x' = Z (1 + x) overflows to inf within
# about 700 steps, and its growth factor 1 + 0 * inf is NaN
GROWING = {"family": "two_point", "atoms": [
    {"value": "2", "weight": "1/2"}, {"value": "4", "weight": "1/2"}]}
GROWING_BLOCKS = {"triples": [
    {"weight": "1/2", "L": ["1"], "C": ["2"], "N": [["2"]]},
    {"weight": "1/2", "L": ["1"], "C": ["4"], "N": [["4"]]}]}
# E[log Z] < 0, so fit has a bracket at order 0, but a run of large Z
# overflows the undamped chain
HEAVY_TAIL = {"family": "two_point", "atoms": [
    {"value": "1/2", "weight": "999/1000"},
    {"value": "1e300", "weight": "1/1000"}]}
FIT_NAN = ("fit --spec {heavy} --order 0 --eps-grid 0,1/2 --steps 200000 "
           "--burn-in 100")
NON_FINITE_RUNS = {
    "lyap_nan": ("lyap --spec {spec} --eps 0 --method invariant "
                 "--steps 200000 --burn-in 100",
                 "invariant_formula at eps 0 is nan"),
    "chain_nan": ("chain --spec {spec} --eps 0 --gamma 1 --steps 200000 "
                  "--burn-in 100", "E[X^1] at eps 0 is nan"),
    "chain_inf_stderr": ("chain --spec {spec} --eps 0 --gamma 1 "
                         "--steps 20000 --burn-in 100", " +- inf,"),
    "chain_threads": ("chain --spec {spec} --eps 0 --gamma 1,2,6 "
                      "--steps 102400 --burn-in 1000 --replicas 1024 "
                      "--threads 2", "E[X^1] at eps 0 is nan"),
    "fit_nan": (FIT_NAN, "invariant_formula at eps 0 is nan"),
    "highdim_nan": ("highdim --blocks {blocks} --eps 0 --method invariant "
                    "--steps 200000 --burn-in 100",
                    "invariant_formula at eps 0 is nan"),
    # eps * (C + N) overflows in the direct product's first step
    "highdim_extraction_nan": ("highdim --blocks " + BLOCKS_SCALAR +
                               " --K 1 --eps-grid 1e308,1/2 --method "
                               "direct --steps 200000 --discard 100",
                               "direct_product at eps 1e+308 is nan"),
    "ising_scan_nan": ("ising --range 1 --couplings 1 --T 1 --field-law "
                       "{spec} --method invariant --scan --scales "
                       "1e-300,1e-200,1/2 --scan-order 1 --steps 200000 "
                       "--burn-in 100",
                       "invariant_formula at eps 1e-300 is nan"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_RUNS))
def test_non_finite_statistic_exits_3_with_one_line(tmp_path, name):
    """A statistic that overflowed is refused: exit 3, one stderr line and
    no numpy warning, nothing printed and no --out file written."""
    spec, blocks = tmp_path / "growing.json", tmp_path / "blocks.json"
    heavy = tmp_path / "heavy.json"
    spec.write_text(json.dumps(GROWING))
    blocks.write_text(json.dumps(GROWING_BLOCKS))
    heavy.write_text(json.dumps(HEAVY_TAIL))
    template, message = NON_FINITE_RUNS[name]
    out_dir = tmp_path / "out"
    argv = template.format(spec=spec, blocks=blocks, heavy=heavy).split()
    proc = subprocess.run(
        [sys.executable, "-m", "lyapexp.cli", *argv, "--out", str(out_dir)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SPECS.parent / "src")))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: TruncationOverflow: ")
    assert proc.stderr.count("\n") == 1 and message in proc.stderr
    assert not out_dir.exists()


def test_non_finite_first_fit_point_starts_no_second_estimate(
        capsys, monkeypatch, tmp_path):
    """The first point of fit's grid overflows (eps = 0, heavy tail): it
    is refused where its estimate is formed, before the next point runs."""
    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps(HEAVY_TAIL))
    calls = []
    simulate = lyapunov.simulate_chain

    def counted(spec, cfg, **kw):
        calls.append(cfg.eps)
        return simulate(spec, cfg, **kw)

    monkeypatch.setattr(lyapunov, "simulate_chain", counted)
    code, out, err = run(capsys, *FIT_NAN.format(heavy=heavy).split())
    assert code == 3 and out == "" and calls == [0.0]
    assert err == ("error: TruncationOverflow: invariant_formula at eps 0 "
                   "is nan +- nan, not finite (the recursion overflowed)\n")


# eps whose square overflows: the invariant chain would step with
# eps^2 = inf and end in NaN, so every entry to it refuses such an eps
SQUARE_OVERFLOWS = {
    "lyap_both": LYAP[:4] + ("1e200", "--steps", "2000"),
    "lyap_invariant": LYAP[:4] + ("1e200", "--steps", "2000", "--method",
                                  "invariant"),
    "chain": ("chain", "--spec", TWO_POINT, "--eps", "1e200", "--steps",
              "2000"),
    "chain_grid": ("chain", "--spec", TWO_POINT, "--eps-grid", "1/4,1e200",
                   "--steps", "2000"),
    "fit": ("fit", "--spec", TWO_POINT, "--order", "1", "--eps-grid",
            "1/4,1/8,1e200", "--steps", "2000"),
    "highdim": ("highdim", "--blocks", BLOCKS_D2, "--eps", "1e170",
                "--steps", "2000"),
    "highdim_extraction": ("highdim", "--blocks", BLOCKS_SCALAR, "--K", "1",
                           "--eps-grid", "1/2,1e200", "--method",
                           "invariant", "--steps", "2000"),
}


@pytest.mark.parametrize("name", sorted(SQUARE_OVERFLOWS))
def test_eps_whose_square_overflows_exits_2_before_any_draw(capsys,
                                                            monkeypatch,
                                                            name):
    from lyapexp import highdim, mc

    def no_draws(*args):
        raise AssertionError("drew before the input was checked")

    monkeypatch.setattr(mc, "philox_generator", no_draws)
    monkeypatch.setattr(highdim, "philox_generator", no_draws)
    code, out, err = run(capsys, *SQUARE_OVERFLOWS[name])
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidParameter: ")
    assert len(err.strip().splitlines()) == 1 and "--method direct" in err


@pytest.mark.parametrize("law, order, grid, steps, no_fit, message", [
    ({"family": "two_point", "atoms": [{"value": "1/2", "weight": "1/2"},
                                       {"value": "3", "weight": "1/2"}]},
     "0", "0.5,0.25", "3e7", True,
     "KNotInA: E[log Z] >= 0: no admissible orders exist"),
    (TWO_POINT, "0", "0.5,0.25", "200000,10", True,
     "InvalidParameter: n_steps must be at least the replica count"),
    (CRITICAL, "1", "1,2^-1,2^-2,2^-3,2^-4", "200000", False,
     "InvalidParameter: a log-corrected fit needs every grid eps below 1 "
     "in size, got eps = 1"),
], ids=["no_bracket", "second_budget", "log_model_at_eps_one"])
def test_fit_refuses_before_its_first_estimate(capsys, monkeypatch,
                                               tmp_path, law, order, grid,
                                               steps, no_fit, message):
    """A law with no theory bracket (E[log Z] > 0), a per-point budget
    below the replica count at the last grid point, and a grid point
    eps = 1 in a fit with the log(1/eps) model (integer alpha) are
    refused before the first grid point's estimate runs, with one line
    and no --out directory."""
    from lyapexp import highdim, mc

    def no_draws(*args):
        raise AssertionError("drew before the input was checked")

    monkeypatch.setattr(mc, "philox_generator", no_draws)
    monkeypatch.setattr(highdim, "philox_generator", no_draws)
    spec = law
    if isinstance(law, dict):
        spec = tmp_path / "growing.json"
        spec.write_text(json.dumps(law))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "fit", "--spec", str(spec), "--order", order,
                         "--eps-grid", grid, "--steps", steps,
                         "--min-points", "3", "--out", str(out_dir),
                         *(("--no-fit",) if no_fit else ()))
    assert code == 2 and out == "" and not out_dir.exists()
    assert err == f"error: {message}\n"


def test_series_at_eps_one_runs_without_the_log_model(capsys):
    """The grid the log model refuses is a fine series with --no-fit."""
    code, out, err = run(capsys, "fit", "--spec", CRITICAL, "--order", "1",
                         "--eps-grid", "1,2^-1,2^-2", "--steps", "20000",
                         "--burn-in", "200", "--no-fit", "--json")
    assert code == 0, err
    assert json.loads(out)["eps_grid"] == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("spec, order, message", [
    (TWO_POINT, "2", "the order-2 regular part at eps 1e+100 is not finite"),
    (UNIFORM, "3", "the order-3 regular part at eps 1e+100 is not finite"),
], ids=["two_point_K2", "uniform_sub_K3"])
def test_fit_refuses_a_regular_part_that_overflows(capsys, monkeypatch,
                                                   tmp_path, spec, order,
                                                   message):
    """eps^4 overflows at eps = 1e100: the regular part is -inf at K = 2,
    and at K = 3 its terms are inf and -inf.  Both are refused before
    the first estimate, with one line and no --out directory."""
    from lyapexp import highdim, mc

    def no_draws(*args):
        raise AssertionError("drew before the regular parts were formed")

    monkeypatch.setattr(mc, "philox_generator", no_draws)
    monkeypatch.setattr(highdim, "philox_generator", no_draws)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "fit", "--spec", spec, "--order", order,
                         "--eps-grid", "1e100,1e120", "--steps", "2000",
                         "--replicas", "4", "--burn-in", "10", "--no-fit",
                         "--out", str(out_dir))
    assert code == 2 and out == "" and not out_dir.exists()
    assert err == f"error: InvalidParameter: {message}\n"


def test_direct_product_runs_where_eps_squared_overflows(capsys):
    for argv in (LYAP[:4] + ("1e160", "--steps", "2000", "--method",
                             "direct"),
                 ("highdim", "--blocks", BLOCKS_D2, "--eps", "1e170",
                  "--steps", "2000", "--method", "direct")):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert math.isfinite(json.loads(out)["direct"]["value"])


def test_power_fit_refuses_a_grid_point_whose_power_overflows(capsys):
    code, _, err = run(capsys, "highdim", "--blocks", BLOCKS_SCALAR, "--K",
                       "1", "--eps-grid", "1e300,1/2", "--method", "direct",
                       "--steps", "20000", "--discard", "100")
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert err.startswith("error: InvalidParameter: ")


OVERSIZED_RUNS = {
    "lyap_steps": LYAP[:6] + ("1e30",),
    "lyap_burn_in": LYAP + ("--burn-in", "1" + "0" * 30),
    "lyap_replicas": LYAP[:6] + ("1e13", "--replicas", "1000000000000",
                                 "--method", "direct"),
    "chain_steps": ("chain", "--spec", TWO_POINT, "--eps", "1/4",
                    "--steps", "1e30"),
    "dominance_steps": ("chain", "--dominance", "--spec", TWO_POINT,
                        "--eps", "1/4", "--eps2", "1/2", "--steps", "1e30",
                        "--seeds", "0"),
    "dominance_one_past": ("chain", "--dominance", "--spec", TWO_POINT,
                           "--eps", "1/4", "--eps2", "1/2", "--steps",
                           str(2 ** 31 + 1), "--seeds", "0"),
    "highdim_steps": ("highdim", "--blocks", BLOCKS_D2, "--eps", "1/4",
                      "--steps", "1e30"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_RUNS))
def test_runs_past_the_size_limits_exit_2(name):
    """More than 2^31 steps per replica or 2^24 replicas is refused with
    one line that names the limit, before the run is scheduled.  The
    child runs under a 2 GiB address-space limit, so that a run that is
    not refused fails for lack of memory instead of filling the machine;
    one BLAS thread keeps numpy's own reservations small."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "lyapexp.cli", *OVERSIZED_RUNS[name]],
        capture_output=True, text=True, timeout=120,
        preexec_fn=limit_memory,
        env=dict(os.environ, PYTHONPATH=str(SPECS.parent / "src"),
                 OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: InvalidParameter: ")
    assert proc.stderr.count("\n") == 1
    assert "exceed the limit of" in proc.stderr


def test_fit_of_a_deterministic_law_exits_3_with_one_line(tmp_path):
    """One atom: every replica agrees, so every lambda_stderr is 0 and no
    point can be weighted."""
    spec = tmp_path / "deterministic.json"
    spec.write_text(json.dumps({"family": "finite_discrete", "atoms": [
        {"value": "1/2", "weight": "1"}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "lyapexp.cli", "fit", "--spec", str(spec),
         "--order", "0", "--eps-grid", "2^-2..2^-6", "--steps", "5000"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SPECS.parent / "src")))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: InsufficientSignal: ")
    assert proc.stderr.count("\n") == 1


def test_extraction_drops_a_zero_error_eps_0_point(tmp_path, capsys):
    """At eps = 0 the estimate is exactly 0 +- 0 and its design row is
    all zero: it carries no information, so the q_2 fit rests on
    eps = 1/2 alone, and no weight overflows (numpy raises if one does).
    One point for one coefficient tests nothing, so r2 is NaN."""
    with np.errstate(all="raise"):
        code, out, err = run(capsys, "highdim", "--blocks", BLOCKS_SCALAR,
                             "--K", "1", "--eps-grid", "0,0.5", "--method",
                             "invariant", "--steps", "20000", "--burn-in",
                             "100", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    zero, half = doc["estimates"]
    assert (zero["eps"], zero["value"], zero["stderr"]) == (0.0, 0.0, 0.0)
    assert half["eps"] == 0.5 and half["stderr"] > 0
    assert doc["coefficients"] == [pytest.approx(half["value"] / 0.25,
                                                 rel=1e-12)]
    assert doc["coefficient_stderrs"] == [
        pytest.approx(half["stderr"] / 0.25, rel=1e-12)]
    assert doc["r2"] == "nan"


@pytest.mark.parametrize("step, argv, message", [
    ("block_chain_steps", ("lyap", "--method", "invariant", "--spec",
                           TWO_POINT), "invariant_formula at eps 0.25 is nan"),
    ("block_chain_steps", ("chain", "--gamma", "1", "--spec", TWO_POINT),
     "E[X^1] at eps 0.25 is nan"),
    ("block_direct_steps", ("lyap", "--method", "direct", "--spec",
                            TWO_POINT), "direct_product at eps 0.25 is nan"),
    ("block_chain_steps", ("highdim", "--method", "invariant",
                           "--blocks", BLOCKS_D2),
     "invariant_formula at eps 0.25 is nan"),
    ("block_direct_steps", ("highdim", "--method", "direct",
                            "--blocks", BLOCKS_D2),
     "direct_product at eps 0.25 is nan"),
], ids=["chain_steps-lyap", "chain_steps-chain", "direct_steps",
        "block_chain_steps", "block_direct_steps"])
def test_rows_a_step_never_writes_are_refused(capsys, monkeypatch, step,
                                              argv, message):
    """Per-block buffers start as NaN: a step kernel that writes nothing
    poisons the statistics instead of reusing the last run's rows, and
    the CLI refuses them with exit 3."""
    from lyapexp import kernels

    argv = (*argv, "--eps", "1/4", "--steps", "3000", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0  # leaves this run's rows in freed memory
    monkeypatch.setattr(kernels, step, lambda *args: None)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and message in err


# -- coeffs ---------------------------------------------------------------------------

def test_coeffs_exact_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--spec", TWO_POINT,
                       "--order", "2", "--exact")
    assert code == 0
    assert "3" in out.split() and "165/2" in out.split()


def test_coeffs_order_zero_is_an_empty_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--spec", TWO_POINT, "--order", "0",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ell_float"] == [] and doc["condition"] == 1.0


def test_coeffs_from_moment_list(capsys):
    code, out, _ = run(capsys, "coeffs", "--moments", "3/4,3/4",
                       "--order", "2", "--exact", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ell_exact"] == ["3", "165/2"]
    assert doc["ell_float"] == [3.0, 82.5]
    assert doc["exact_inputs"] is True


def test_coeffs_critical_first_order(capsys):
    code, out, _ = run(capsys, "coeffs", "--spec", CRITICAL,
                       "--order", "1", "--exact", "--json")
    assert code == 0
    assert json.loads(out)["ell_exact"] == ["4"]


# -- alpha ----------------------------------------------------------------------------

def test_alpha_exact_root(capsys):
    code, out, _ = run(capsys, "alpha", "--spec", CRITICAL, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 2.0
    assert doc["kind"] == "finite"
    assert doc["assumptions_pass"] is True

    code, out, _ = run(capsys, "alpha", "--spec", HEAVY, "--json")
    assert json.loads(out)["alpha"] == 0.5

    code, out, _ = run(capsys, "alpha", "--spec", UNIFORM, "--json")
    doc = json.loads(out)
    assert doc["kind"] == "infinite"
    assert doc["alpha"] == "inf"  # non-finite floats serialize as strings


# -- lyap -----------------------------------------------------------------------------

def test_lyap_both_methods_and_gap(capsys):
    code, out, _ = run(capsys, "lyap", "--spec", TWO_POINT, "--eps", "1/4",
                       "--steps", "30000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps"] == 0.25
    assert set(("direct", "invariant", "gap", "gap_sigma")) <= set(doc)
    assert abs(doc["gap_sigma"]) < 5


def test_lyap_deterministic_oracle(capsys):
    code, out, _ = run(capsys, "lyap", "--spec", CONSTANT, "--eps", "1/2",
                       "--method", "invariant", "--steps", "20000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["invariant"]["value"] - doc["oracle_deterministic"]) < 1e-9


def test_lyap_decoupled_oracle_at_full_damping(capsys):
    code, out, _ = run(capsys, "lyap", "--spec", TWO_POINT, "--eps", "1",
                       "--method", "invariant", "--steps", "50000", "--json")
    doc = json.loads(out)
    spec = dist.load_spec(TWO_POINT)
    assert doc["oracle_decoupled"] == lyapunov.decoupled_exponent(spec)
    se = doc["invariant"]["stderr"]
    assert abs(doc["invariant"]["value"] - doc["oracle_decoupled"]) < 5 * se


# -- chain ----------------------------------------------------------------------------

def test_chain_grid_csv_and_manifest(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "chain", "--spec", TWO_POINT,
                       "--eps-grid", "2^-2..2^-4", "--gamma", "1,2",
                       "--steps", "20000", "--emit-plot",
                       "--out", str(out_dir), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps_grid"] == [0.25, 0.125, 0.0625]

    csv_text = (out_dir / "chain.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ("eps,gamma,moment,moment_stderr,trunc_moment,"
                        "trunc_stderr,max_x,n_kept")
    assert len(lines) == 1 + 3 * 2  # header + grid x gammas

    # 17 significant digits: CSV floats round-trip to the JSON doc exactly
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    assert float(first[6]) == doc["points"][0]["max_x"]
    stats = json.loads((out_dir / "chain.json").read_text())
    assert stats["points"][0]["max_x"] == doc["points"][0]["max_x"]

    assert (out_dir / "moment_g1.dat").exists()
    assert (out_dir / "moment_g2.dat").exists()
    pairs = [ln.split() for ln in
             (out_dir / "moment_g1.dat").read_text().strip().split("\n")]
    assert len(pairs) == 3 and all(len(p) == 2 for p in pairs)

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(("subcommand", "config", "seed", "version", "wall_time_s",
                "peak_rss_mb", "outputs")) <= set(manifest)
    assert manifest["peak_rss_mb"] > 0
    assert manifest["subcommand"] == "chain"
    assert set(manifest["outputs"]) == {"chain.csv", "chain.json",
                                        "moment_g1.dat", "moment_g2.dat"}
    assert all(len(h) == 64 for h in manifest["outputs"].values())


def test_chain_runs_at_abs_eps(capsys, tmp_path):
    """chain runs at |eps|: --eps -1/4 writes the files --eps 1/4 does."""
    files = []
    for eps in ("-1/4", "1/4"):
        out_dir = tmp_path / eps.replace("/", "_")
        code, _, _ = run(capsys, "chain", "--spec", TWO_POINT, "--eps=" + eps,
                         "--gamma", "1,2", "--steps", "4000", "--out",
                         str(out_dir))
        assert code == 0
        files.append([(out_dir / name).read_bytes()
                      for name in ("chain.csv", "chain.json")])
    assert files[0] == files[1]


@pytest.mark.parametrize("argv, name", [
    (("lyap", "--spec", TWO_POINT, "--method", "both"), "lyap.json"),
    (("highdim", "--blocks", BLOCKS_D2, "--method", "both"), "highdim.json"),
])
def test_lyap_and_highdim_list_the_eps_that_ran(capsys, tmp_path, argv,
                                                name):
    """lyap and highdim run at |eps| and say so: --eps -1/4 writes the
    file --eps 1/4 does."""
    files = []
    for eps in ("-1/4", "1/4"):
        out_dir = tmp_path / eps.replace("/", "_")
        code, _, _ = run(capsys, *argv, "--eps=" + eps, "--steps", "2000",
                         "--out", str(out_dir))
        assert code == 0
        files.append((out_dir / name).read_bytes())
    assert files[0] == files[1]
    assert json.loads(files[0])["eps"] == 0.25


def test_chain_dominance_reports_zero_violations(capsys):
    code, out, _ = run(capsys, "chain", "--spec", TWO_POINT, "--dominance",
                       "--eps", "1/4", "--eps2", "1/2", "--steps", "20000",
                       "--seeds", "0..4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations_pair"] == 0
    assert doc["violations_series"] == 0
    assert doc["seeds"] == [0, 1, 2, 3, 4]


def test_chain_dominance_rejects_a_diverging_path(capsys, tmp_path):
    spec = tmp_path / "growing.json"
    spec.write_text(json.dumps({"family": "two_point", "atoms": [
        {"value": "2", "weight": "1/2"}, {"value": "4", "weight": "1/2"}]}))
    code, out, err = run(capsys, "chain", "--spec", str(spec), "--dominance",
                         "--eps", "1/4", "--eps2", "1/2", "--steps", "3000",
                         "--seeds", "0..1", "--json")
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "TruncationOverflow: seed 0: " in err and "from step " in err


@pytest.mark.parametrize("argv", [
    ("chain", "--spec", TWO_POINT, "--dominance", "--eps", "1/4", "--eps2",
     "1/2", "--steps", "1000", "--seeds", "5..3"),
    ("chain", "--spec", TWO_POINT, "--dominance", "--eps", "1/4", "--eps2",
     "1/2", "--steps", "1000", "--seeds", ""),
    ("fit", "--spec", CRITICAL, "--order", "1", "--eps-grid", ",",
     "--steps", "1000", "--no-fit"),
    ("highdim", "--blocks", BLOCKS_D2, "--K", "1", "--eps-grid", ",",
     "--steps", "1000"),
    ("ising", "--range", "1", "--couplings", "1.0", "--T", "1",
     "--field-law", TWO_POINT, "--scan", "--scales", ",", "--steps",
     "1000"),
    ("chain", "--spec", TWO_POINT, "--eps", "1/4", "--gamma", ",",
     "--steps", "1000"),
    ("coeffs", "--moments", " , ", "--order", "1"),
    ("ising", "--range", "1", "--couplings", ",", "--T", "1",
     "--field-law", TWO_POINT, "--steps", "1000"),
    ("ising", "--range", "1", "--couplings", "1.0", "--T", "1",
     "--field-law", TWO_POINT, "--scan", "--scales", "1/2,1/4,1/8",
     "--scan-order", "1", "--ray", ",", "--steps", "1000"),
    ("lyap", "--spec", TWO_POINT, "--eps", "1/4", "--steps", ","),
    # an empty value is an empty list, not an absent option
    ("coeffs", "--moments", "", "--order", "1"),
    ("chain", "--spec", TWO_POINT, "--eps", "1/4", "--eps-grid", "",
     "--steps", "1000"),
    ("highdim", "--blocks", BLOCKS_D2, "--K", "1", "--eps-grid", "",
     "--steps", "1000"),
    ("ising", "--range", "1", "--couplings", "1.0", "--T", "1",
     "--field-law", TWO_POINT, "--scan", "--scales", "", "--steps", "1000"),
    ("ising", "--range", "1", "--couplings", "1.0", "--T", "1",
     "--field-law", TWO_POINT, "--scan", "--scales", "1/2,1/4,1/8",
     "--scan-order", "1", "--ray", "", "--steps", "1000"),
], ids=["seeds_range", "seeds_blank", "fit_grid", "highdim_grid",
        "ising_scales", "chain_gamma", "coeffs_moments", "ising_couplings",
        "ising_ray", "steps", "moments_blank", "chain_grid_blank",
        "highdim_grid_blank", "scales_blank", "ray_blank"])
def test_empty_lists_are_usage_errors(capsys, tmp_path, argv):
    """A list that names no value checks nothing: exit 1, one line, and
    no --out file.  Every comma list is read by one parser, so each says
    so alike."""
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "names no value" in err
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message, draws", [
    (("fit", "--spec", TWO_POINT, "--order", "1", "--eps-grid",
      "0.25,0.25,0.25,0.25,0.25", "--steps", "20000"),
     "2 coefficients need at least 2 distinct grid points; got 1", True),
    (("ising", "--range", "1", "--couplings", "1", "--T", "1",
      "--field-law", UNIFORM, "--scan", "--scales",
      "0.5,0.5,0.5,0.5,0.5", "--steps", "1000"),
     "5 coefficients need at least 5 distinct grid points; got 1", False),
    (("highdim", "--blocks", None, "--K", "2", "--eps-grid",
      "0.5,0.25,0.25", "--steps", "1000"),
     "3 coefficients need at least 3 distinct grid points; got 2", False),
], ids=["fit", "ising_scan", "highdim_K"])
def test_too_few_distinct_grid_points_exit_3(capsys, monkeypatch, tmp_path,
                                             argv, message, draws):
    """A fit of k coefficients on fewer than k distinct grid points has a
    rank-deficient design: exit 3 and one line, not a traceback, with the
    same message from every fit.  ``ising --scan`` and ``highdim --K``
    refuse the grid before any draw; ``fit`` runs its series first,
    because its fit uses only the points that clear the noise floor.
    The highdim case reads the two-point law as a d = 1 block file,
    whose rho(G^(2)) = 3/4 admits K = 2."""
    from lyapexp import highdim, mc

    def no_draws(*args):
        raise AssertionError("drew before the grid was checked")

    if not draws:
        monkeypatch.setattr(mc, "philox_generator", no_draws)
        monkeypatch.setattr(highdim, "philox_generator", no_draws)
    blocks = tmp_path / "two_point_blocks.json"
    blocks.write_text(json.dumps({"d": 1, "triples": [
        {"weight": "3/4", "L": ["1"], "C": ["1/2"], "N": [["1/2"]]},
        {"weight": "1/4", "L": ["1"], "C": ["3/2"], "N": [["3/2"]]}]}))
    argv = [str(blocks) if a is None else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err == f"error: InsufficientSignal: {message}\n"


@pytest.mark.parametrize("blocks, order, grid, message", [
    (BLOCKS_D2, "2", "2^-2..2^-5", "rho(G^(2)) = 1.008 >= 1"),
    (None, "1", "0,1/2", "rho(G^(1)) = 3 >= 1"),
], ids=["blocks_d2_K2", "growing_K1"])
def test_highdim_refuses_an_order_whose_block_moments_diverge(
        capsys, tmp_path, blocks, order, grid, message):
    """An order l <= K with rho(G^(l)) >= 1 has no block moments: on
    blocks_d2 rho(G^(2)) = 1.008, and E[N] = 3 for GROWING_BLOCKS.  Both
    exit 2 with one line, before any estimate runs."""
    if blocks is None:
        blocks = tmp_path / "growing.json"
        blocks.write_text(json.dumps(GROWING_BLOCKS))
    code, out, err = run(capsys, "highdim", "--blocks", str(blocks), "--K",
                         order, "--eps-grid", grid, "--steps", "20000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: KNotInA: " + message)


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_chain_dominance_refuses_fewer_than_one_step(capsys, tmp_path, steps):
    """No steps would pass with 0 violations having checked nothing."""
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "chain", "--spec", TWO_POINT, "--dominance",
                         "--eps", "1/4", "--eps2", "1/2", "--steps", steps,
                         "--seeds", "0..1", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: InvalidParameter: ")
    assert "need at least one step" in err
    assert not out_dir.exists()


def test_chain_dominance_needs_two_eps(capsys):
    code, _, err = run(capsys, "chain", "--spec", TWO_POINT, "--dominance",
                       "--eps", "1/4", "--steps", "1000")
    assert code == 1 and "eps2" in err


# -- fit ------------------------------------------------------------------------------

def test_fit_series_only(capsys, tmp_path):
    out_dir = tmp_path / "fit"
    code, out, _ = run(capsys, "fit", "--spec", TWO_POINT, "--order", "1",
                       "--eps-grid", "2^-2..2^-5", "--steps", "5000",
                       "--no-fit", "--emit-plot", "--out", str(out_dir),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sign"] == -1  # odd number of subtracted terms
    assert doc["ell"] == [3.0]
    assert doc["bracket"]["kind"] == "regular"
    assert "fit" not in doc
    series = (out_dir / "series.csv").read_text().strip().split("\n")
    assert series[0] == "eps,lambda,lambda_stderr,regular,residual"
    assert len(series) == 5
    assert (out_dir / "residual.dat").exists()


# -- highdim --------------------------------------------------------------------------

def test_highdim_estimate_matches_scalar_engine(capsys):
    code, out, _ = run(capsys, "highdim", "--blocks", BLOCKS_SCALAR,
                       "--eps", "1/4", "--method", "invariant",
                       "--steps", "30000", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 1
    assert doc["assumptions"]["passes"] is True
    ref = lyapunov.lyapunov_invariant(dist.load_spec(CRITICAL), 0.25,
                                      n_steps=30000, seed=3)
    assert doc["invariant"]["value"] == ref.value
    assert doc["invariant"]["stderr"] == ref.stderr


def test_highdim_estimate_d2_both_methods(capsys):
    code, out, _ = run(capsys, "highdim", "--blocks", BLOCKS_D2,
                       "--eps", "1/4", "--method", "both",
                       "--steps", "40000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 2
    gap = abs(doc["direct"]["value"] - doc["invariant"]["value"])
    sig = math.hypot(doc["direct"]["stderr"], doc["invariant"]["stderr"])
    assert gap < 5 * sig


def test_highdim_mode_errors(capsys):
    code, _, err = run(capsys, "highdim", "--blocks", BLOCKS_SCALAR,
                       "--steps", "1000")
    assert code == 1 and "--K" in err
    code, _, err = run(capsys, "highdim", "--blocks", BLOCKS_SCALAR,
                       "--K", "1", "--eps-grid", "2^-2..2^-4",
                       "--method", "both", "--steps", "1000")
    assert code == 1 and "single --method" in err
    code, _, err = run(capsys, "highdim", "--blocks", BLOCKS_SCALAR,
                       "--K", "1", "--steps", "1000")
    assert code == 1 and "--eps-grid" in err


# -- ising ----------------------------------------------------------------------------

def test_ising_free_energy_closed_form(capsys):
    code, out, _ = run(capsys, "ising", "--range", "1", "--couplings", "0.9",
                       "--T", "1", "--field-law", CONSTANT,
                       "--method", "invariant", "--steps", "30000", "--json")
    assert code == 0
    doc = json.loads(out)
    z, eps = 1.25, math.exp(-0.9)
    target = math.log(((1 + z) + math.sqrt((1 - z) ** 2
                                           + 4 * eps * eps * z)) / 2)
    assert abs(doc["f"] - target) < 1e-10
    assert doc["eps_l"] == [eps]
    assert doc["dim"] == 2


def test_ising_scan_needs_scales(capsys):
    code, _, err = run(capsys, "ising", "--range", "1", "--couplings", "1.0",
                       "--T", "1", "--field-law", TWO_POINT, "--scan",
                       "--steps", "1000")
    assert code == 1 and "--scales" in err


def test_ising_infinite_coupling_token(capsys):
    code, out, _ = run(capsys, "ising", "--range", "2",
                       "--couplings", "0.9,inf", "--T", "1",
                       "--field-law", CONSTANT, "--method", "invariant",
                       "--steps", "20000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps_l"][1] == 0.0
    assert doc["couplings"][1] == "inf"


@pytest.mark.parametrize("token, code", [
    ("inf", 0), ("INF", 0), (" Infinity ", 0), ("1e400", 0), ("nan", 2),
    ("-1", 2), ("-inf", 2), ("2^5000", 2), ("abc", 1)])
def test_couplings_read_inf_by_one_rule(capsys, token, code):
    """A coupling that ``float`` reads as +inf switches its bond off,
    however it is spelt; NaN, a negative or an overflow that is not
    spelt as +inf is invalid input, and a malformed token a usage
    error."""
    status, out, err = run(capsys, "ising", "--range", "2", "--couplings",
                           f"0.9,{token}", "--T", "1", "--field-law",
                           CONSTANT, "--method", "invariant", "--steps",
                           "2000", "--json")
    assert status == code
    if code:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("usage error: " if code == 1 else "error: ")
    else:
        assert json.loads(out)["eps_l"][1] == 0.0


def test_ising_scan_along_a_given_ray(capsys):
    code, out, _ = run(capsys, "ising", "--range", "2", "--couplings",
                       "1,1.5", "--T", "1", "--field-law", UNIFORM, "--scan",
                       "--scales", "1/2,1/4,1/8", "--scan-order", "1",
                       "--ray", "1, 1/2", "--steps", "2000", "--json")
    assert code == 0
    assert json.loads(out)["scan"]["ray"] == [1.0, 0.5]


def test_ising_range_above_the_cap_exits_2_before_building(capsys):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "ising", "--range", "20",
                           "--couplings", ",".join(["1"] * 20), "--T", "1",
                           "--field-law", TWO_POINT, "--steps", "1000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert "InvalidSpec" in err and "1..8" in err
    assert peak < 1 << 20


# -- selftest -------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "ok" in out
    assert "FAIL" not in out


def test_selftest_failure_exits_3_naming_the_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_selftest_checks",
                        lambda: [("passes", lambda: True),
                                 ("always_fails", lambda: False)])
    code, out, err = run(capsys, "selftest")
    assert code == 3 and out == ""
    assert err == "error: NumericalError: selftest failures: always_fails\n"


# -- manifests and reruns --------------------------------------------------------------

@pytest.fixture()
def lyap_manifest(tmp_path, capsys):
    out_dir = tmp_path / "orig"
    code, _, _ = run(capsys, "lyap", "--spec", TWO_POINT, "--eps", "2^-3",
                     "--steps", "20000", "--out", str(out_dir))
    assert code == 0
    return out_dir


def test_rerun_verifies_checksums(capsys, lyap_manifest, tmp_path):
    manifest = lyap_manifest / "manifest.json"
    code, out, _ = run(capsys, "rerun", "--manifest", str(manifest), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["mismatched"] == []


def test_rerun_reproduces_files_byte_for_byte(capsys, lyap_manifest,
                                              tmp_path):
    manifest = lyap_manifest / "manifest.json"
    replay = tmp_path / "replay"
    code, _, _ = run(capsys, "rerun", "--manifest", str(manifest),
                     "--out", str(replay), "--threads", "8")
    assert code == 0
    original = (lyap_manifest / "lyap.json").read_bytes()
    assert (replay / "lyap.json").read_bytes() == original


def test_rerun_ignores_peak_memory(capsys, lyap_manifest):
    manifest = lyap_manifest / "manifest.json"
    doc = json.loads(manifest.read_text())
    assert doc["peak_rss_mb"] > 0
    assert "peak_rss_mb" not in json.loads(
        (lyap_manifest / "lyap.json").read_text())
    for value in (None, 1e9):
        doc["peak_rss_mb"] = value
        manifest.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "rerun", "--manifest", str(manifest),
                           "--json")
        assert code == 0 and json.loads(out)["match"] is True


def test_manifest_peak_memory_is_null_without_resource(capsys, tmp_path,
                                                       monkeypatch):
    monkeypatch.setitem(sys.modules, "resource", None)
    code, _, _ = run(capsys, *LYAP, "--out", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] is None


def test_rerun_detects_tampering(capsys, lyap_manifest):
    manifest = lyap_manifest / "manifest.json"
    doc = json.loads(manifest.read_text())
    name = next(iter(doc["outputs"]))
    doc["outputs"][name] = "0" * 64
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "rerun", "--manifest", str(manifest))
    assert code == 3
    assert name in err


def test_rerun_rejects_malformed_manifest(capsys, tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"subcommand": "lyap", "config": {}}))
    assert run(capsys, "rerun", "--manifest", str(bad))[0] == 2
    bad.write_text("{not json")
    assert run(capsys, "rerun", "--manifest", str(bad))[0] == 2
    bad.write_bytes(b'{"subcommand": "\xff"}')
    code, _, err = run(capsys, "rerun", "--manifest", str(bad))
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: InvalidSpec: malformed manifest file")
    for doc in ([1], {"subcommand": ["lyap"], "config": {}, "outputs": {}},
                {"subcommand": "lyap", "config": {}, "outputs": []}):
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "rerun", "--manifest", str(bad))
        assert code == 2 and err.count("\n") == 1, doc
    assert run(capsys, "rerun", "--manifest",
               str(tmp_path / "absent.json"))[0] == 2


def test_rerun_fills_missing_config_keys_from_defaults(capsys,
                                                      lyap_manifest):
    manifest = lyap_manifest / "manifest.json"
    doc = json.loads(manifest.read_text())
    assert doc["recursion"] in ("compiled", "numpy")
    for key in ("discard", "burn_in", "method", "threads"):
        del doc["config"][key]  # all at their parser defaults
    manifest.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rerun", "--manifest", str(manifest),
                         "--json")
    assert code == 0, err
    assert json.loads(out)["match"] is True


def test_rerun_rejects_manifest_without_required_key(capsys, lyap_manifest):
    manifest = lyap_manifest / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["config"]["eps"]
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "rerun", "--manifest", str(manifest))
    assert code == 2
    assert err.count("\n") == 1 and "'eps'" in err
    doc["config"] = ["not", "an", "object"]
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "rerun", "--manifest", str(manifest))
    assert code == 2 and err.count("\n") == 1


@pytest.mark.parametrize("key, value, code", [
    ("steps", 1000, 0), ("eps", 0.25, 0), ("burn_in", None, 0),
    ("replicas", 64.5, 2), ("method", 7, 2), ("steps", [1000], 2)])
def test_rerun_parses_config_values(capsys, tmp_path, key, value, code):
    # config values pass the parser's checks like a fresh command line:
    # the original ran with --eps 1/4 --steps 1000 and the default burn-in
    out_dir = tmp_path / "orig"
    assert run(capsys, *LYAP, "--out", str(out_dir))[0] == 0
    manifest = out_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"][key] = value
    manifest.write_text(json.dumps(doc))
    got, out, err = run(capsys, "rerun", "--manifest", str(manifest),
                        "--json")
    assert got == code, err
    if code == 0:
        assert json.loads(out)["match"] is True
    else:
        assert out == "" and err.startswith("error: InvalidSpec:")
        assert err.count("\n") == 1


def test_closed_stdout_keeps_files_and_exits_quietly(tmp_path):
    out_dir = tmp_path / "out"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is printed
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lyapexp.cli", "chain", "--spec",
             TWO_POINT, "--eps", "1/4", "--steps", "2000", "--json",
             "--out", str(out_dir)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SPECS.parent / "src")),
            timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"chain.csv", "chain.json"}
    assert (out_dir / "chain.csv").exists()


def test_reader_that_leaves_early_loses_no_file(tmp_path):
    """README's promise: a reader that closes stdout early (``| head``)
    loses no file, and the run ends quietly with exit code 0."""
    out_dir = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "lyapexp.cli", *LYAP, "--json",
         "--out", str(out_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SPECS.parent / "src")))
    proc.stdout.close()
    try:
        err = proc.communicate(timeout=300)[1]
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"lyap.json"}
    assert (out_dir / "lyap.json").exists()


def test_unwritable_out_dir_exits_two(capsys, tmp_path, lyap_manifest):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, *LYAP, "--out", str(blocker / "sub"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--out" in err
    code, _, err = run(capsys, "rerun", "--manifest",
                       str(lyap_manifest / "manifest.json"),
                       "--out", str(blocker / "sub"))
    assert code == 2 and err.count("\n") == 1


def test_unwritable_manifest_exits_two(capsys, tmp_path):
    out_dir = tmp_path / "out"
    (out_dir / "manifest.json").mkdir(parents=True)
    code, out, err = run(capsys, *LYAP, "--out", str(out_dir))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: InvalidParameter: cannot write to --out")


def test_manifest_config_resolves_paths(capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "rel"
    monkeypatch.chdir(SPECS.parent)
    code, _, _ = run(capsys, "alpha", "--spec", "specs/two_point.json",
                     "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert Path(manifest["config"]["spec"]).is_absolute()


def test_threads_do_not_change_outputs(capsys, tmp_path):
    outs = []
    for threads in ("1", "8"):
        d = tmp_path / f"t{threads}"
        code, _, _ = run(capsys, "chain", "--spec", TWO_POINT,
                         "--eps", "1/4", "--steps", "20000",
                         "--threads", threads, "--out", str(d))
        assert code == 0
        outs.append((d / "chain.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, option, forms", [
    (("chain", "--spec", TWO_POINT, "--eps", "1/4", "--steps", "2000"),
     "--cutoff", ("0.5", "1/2", "2^-1")),
    (("ising", "--range", "1", "--couplings", "1.0", "--field-law",
      TWO_POINT, "--steps", "2000"), "--T", ("0.5", "1/2", "2^-1")),
], ids=["cutoff", "T"])
def test_number_options_share_the_eps_syntax(capsys, tmp_path, argv, option,
                                             forms):
    """--cutoff and --T read numbers as --eps does, and a manifest that
    stores the option as a JSON number still replays."""
    outs = []
    for i, form in enumerate(forms):
        d = tmp_path / str(i)
        code, _, err = run(capsys, *argv, option, form, "--out", str(d))
        assert code == 0, err
        outs.append({p.name: p.read_bytes() for p in d.iterdir()
                     if p.name != "manifest.json"})
    assert outs[1] == outs[0] and outs[2] == outs[0]
    manifest = tmp_path / "1" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"][option.lstrip("-")] = 0.5
    manifest.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rerun", "--manifest", str(manifest),
                         "--json")
    assert code == 0, err
    assert json.loads(out)["match"] is True


def test_thread_environment_steers_nothing(capsys, lyap_manifest,
                                          monkeypatch):
    """--threads is the only thread setting: LYAPEXP_THREADS, which once
    set the default, is not read by a fresh run or a rerun."""
    manifest = str(lyap_manifest / "manifest.json")
    unset = run(capsys, *LYAP), run(capsys, "rerun", "--manifest", manifest)
    monkeypatch.setenv("LYAPEXP_THREADS", "junk")
    fresh = run(capsys, *LYAP)
    replay = run(capsys, "rerun", "--manifest", manifest)
    assert (fresh, replay) == unset
    assert fresh[0] == replay[0] == 0 and fresh[2] == replay[2] == ""
