"""End-to-end acceptance suite.

Each test below is one acceptance criterion, run through the command-line
interface wherever files and manifests are involved; `pytest -v` prints
one pass/fail line per criterion.  Every CLI run leaves a manifest in a
session directory, and the final criterion replays all of them and
demands byte-identical outputs at 1 and 8 worker threads.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lyapexp import cli
from lyapexp import distributions as dist
from lyapexp import highdim, lyapunov
from lyapexp.coefficients import (closed_form_ell1, closed_form_ell2,
                                  ell_coefficients, g_table)
from lyapexp.errors import SingularSystem
from lyapexp.fitting import wls_fit
from lyapexp.mc import philox_generator

SPECS = Path(__file__).resolve().parents[1] / "specs"
TWO_POINT = str(SPECS / "two_point.json")
CRITICAL = str(SPECS / "critical_two.json")
HEAVY = str(SPECS / "heavy_half.json")
UNIFORM = str(SPECS / "uniform_sub.json")
CONSTANT = str(SPECS / "constant_law.json")
BLOCKS_SCALAR = str(SPECS / "blocks_scalar.json")

# out-directories of every CLI run made by criteria 1-9, replayed in 10
MANIFESTS = []


@pytest.fixture(scope="session")
def outbox(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, outbox, label, *argv):
    out_dir = outbox / label
    code, out, err = run(capsys, *argv, "--json", "--out", str(out_dir))
    assert code == 0, f"{label}: exit {code}: {err}"
    MANIFESTS.append((label, out_dir))
    return json.loads(out)


def test_criterion_01_coefficient_exactness(capsys, outbox):
    started = time.perf_counter()
    doc = run_json(capsys, outbox, "c01", "coeffs", "--moments", "3/4,3/4",
                   "--order", "2", "--exact")
    assert doc["ell_exact"] == ["3", "165/2"]
    assert doc["ell_float"] == [3.0, 82.5]
    assert closed_form_ell1(Fraction(3, 4)) == 3
    assert closed_form_ell2(Fraction(3, 4), Fraction(3, 4)) == Fraction(165, 2)

    gen = philox_generator(2024)
    for _ in range(100):
        m1 = Fraction(int(gen.integers(1, 64)), 64)
        m2 = Fraction(int(gen.integers(1, 64)), 64)
        ell = g_table([m1, m2], 2).ell
        assert ell[0] == closed_form_ell1(m1)
        assert ell[1] == closed_form_ell2(m1, m2)
    assert time.perf_counter() - started < 1.0


def test_criterion_02_degeneracy_detection(capsys, outbox):
    started = time.perf_counter()
    code, _, err = run(capsys, "coeffs", "--spec", CRITICAL, "--order", "2")
    assert code == 3
    assert "DegenerateMoment" in err and "2" in err
    doc = run_json(capsys, outbox, "c02", "coeffs", "--spec", CRITICAL,
                   "--order", "1", "--exact")
    assert doc["ell_exact"] == ["4"]
    assert time.perf_counter() - started < 1.0


def test_criterion_03_estimator_cross_validation(capsys, outbox):
    started = time.perf_counter()
    pairs = [
        ("full_damping", TWO_POINT, "1"),
        ("det_half", CONSTANT, "1/2"),
        ("det_eighth", CONSTANT, "2^-3"),
        ("two_point", TWO_POINT, "1/4"),
        ("critical", CRITICAL, "1/2"),
        ("uniform", UNIFORM, "1/4"),
    ]
    for label, spec, eps in pairs:
        doc = run_json(capsys, outbox, f"c03_{label}", "lyap",
                       "--spec", spec, "--eps", eps, "--method", "both",
                       "--steps", "1e6")
        d, i = doc["direct"], doc["invariant"]
        sigma = math.hypot(d["stderr"], i["stderr"])
        assert abs(d["value"] - i["value"]) <= max(4 * sigma, 1e-9), label
        if "oracle_decoupled" in doc:
            oracle = doc["oracle_decoupled"]
            for est in (d, i):
                assert abs(est["value"] - oracle) <= 4 * est["stderr"], label
        if "oracle_deterministic" in doc:
            oracle = doc["oracle_deterministic"]
            for est in (d, i):
                gap = abs(est["value"] - oracle)
                assert gap <= max(4 * est["stderr"], 1e-9), label
    oracles = sum(1 for label, spec, eps in pairs
                  if spec == CONSTANT or eps == "1")
    assert oracles >= 3
    assert time.perf_counter() - started < 120.0


def test_criterion_04_noninteger_singularity(capsys, outbox):
    started = time.perf_counter()
    doc = run_json(capsys, outbox, "c04", "fit", "--spec", HEAVY,
                   "--order", "0", "--eps-grid", "2^-2..2^-9",
                   "--steps", "1e7")
    assert doc["bracket"]["kind"] == "singular"
    assert doc["bracket"]["lower_exp"] == 1.0  # 2 * alpha at alpha = 1/2
    exponent = doc["fit"]["exponent"]
    assert 0.85 <= exponent <= 1.15
    assert time.perf_counter() - started < 900.0


def test_criterion_05_integer_alpha_band(capsys, outbox):
    started = time.perf_counter()
    doc = run_json(capsys, outbox, "c05", "fit", "--spec", CRITICAL,
                   "--order", "1", "--eps-grid", "2^-2..2^-7",
                   "--steps", "3e7,3e7,6e7,1e8,2e8,4.5e8", "--no-fit")
    assert doc["bracket"]["integer_alpha"] is True
    assert doc["bracket"]["log_correction"] is True
    ratios = []
    for eps, res, se in zip(doc["eps_grid"], doc["residual"],
                            doc["lambda_stderr"]):
        assert res > 0, f"residual not positive at eps={eps}"
        assert res > 4 * se, f"residual within noise at eps={eps}"
        ratios.append(res / (eps ** 4 * math.log(1 / eps)))
    assert max(ratios) / min(ratios) <= 10.0
    assert time.perf_counter() - started < 1200.0


def test_criterion_06_moment_divergence_rate(capsys, outbox):
    started = time.perf_counter()
    out_dir = "c06"
    doc = run_json(capsys, outbox, out_dir, "chain", "--spec", CRITICAL,
                   "--eps-grid", "2^-2..2^-7", "--gamma", "2",
                   "--steps", "2e6")
    rows = [ln.split(",") for ln in
            (outbox / out_dir / "chain.csv").read_text().strip().split("\n")]
    header, body = rows[0], rows[1:]
    assert len(body) == 6
    eps = np.array([float(r[0]) for r in body])
    moments = np.array([float(r[2]) for r in body])
    trunc = np.array([float(r[4]) for r in body])
    # bounded Z keeps eps^2 x below the cutoff pathwise: the truncated
    # and untruncated estimators coincide exactly, sample by sample
    assert np.array_equal(moments, trunc)
    assert [r[2] for r in body] == [r[4] for r in body]  # byte equality

    x = np.log(1.0 / eps)
    design = np.vstack([np.ones_like(x), x]).T
    fit = wls_fit(design, moments, np.ones_like(moments))
    a, b = fit.coefficients
    assert b > 0
    assert fit.r2 > 0.95
    assert time.perf_counter() - started < 600.0


def test_criterion_07_pathwise_dominance(capsys, outbox):
    started = time.perf_counter()
    doc = run_json(capsys, outbox, "c07", "chain", "--spec", TWO_POINT,
                   "--dominance", "--eps", "1/4", "--eps2", "1/2",
                   "--steps", "1e5", "--seeds", "0..9")
    assert doc["seeds"] == list(range(10))
    assert doc["steps"] == 100_000
    assert doc["violations_pair"] == 0
    assert doc["violations_series"] == 0
    assert time.perf_counter() - started < 60.0


def test_criterion_08_highdim_reduction(capsys, outbox):
    started = time.perf_counter()
    block_doc = run_json(capsys, outbox, "c08_blocks", "highdim",
                         "--blocks", BLOCKS_SCALAR, "--eps", "1/4",
                         "--method", "both", "--steps", "1e6", "--seed", "3")
    scalar_doc = run_json(capsys, outbox, "c08_scalar", "lyap",
                          "--spec", CRITICAL, "--eps", "1/4",
                          "--method", "both", "--steps", "1e6", "--seed", "3")
    for method in ("direct", "invariant"):
        for field in ("value", "stderr", "n"):
            assert block_doc[method][field] == scalar_doc[method][field], \
                (method, field)

    def rand_frac(gen):
        return Fraction(int(gen.integers(0, 8)), int(gen.integers(1, 8)))

    gen = philox_generator(808)
    for trial in range(20):
        d = 2 + trial % 2
        triples = []
        for _ in range(1 + trial % 3):
            L = [rand_frac(gen) + Fraction(1, 7) for _ in range(d)]
            C = [rand_frac(gen) + Fraction(1, 9) for _ in range(d)]
            N = [[rand_frac(gen) for _ in range(d)] for _ in range(d)]
            triples.append((L, C, N))
        raw = [int(gen.integers(1, 10)) for _ in range(len(triples))]
        weights = [Fraction(r, sum(raw)) for r in raw]
        law = highdim.finite_block_law(triples, weights)
        try:
            g = highdim.g_matrix(law, 1)
        except SingularSystem:
            continue
        for a in range(d):
            for b in range(d):
                mean = sum(w * nmat[a][b]
                           for w, nmat in zip(law.weights, law.ns_exact))
                assert g.exact[a][b] == mean

    for d in range(1, 5):
        for l in range(0, 7):
            assert len(highdim.multi_indices(d, l)) == math.comb(
                l + d - 1, d - 1)
    assert time.perf_counter() - started < 120.0


def test_criterion_09_ising_oracles(capsys, outbox):
    started = time.perf_counter()
    doc = run_json(capsys, outbox, "c09_det", "ising", "--range", "1",
                   "--couplings", "0.9", "--T", "1",
                   "--field-law", CONSTANT, "--method", "invariant",
                   "--steps", "2e5")
    z, eps = 1.25, math.exp(-0.9)
    closed = math.log(((1 + z) + math.sqrt((1 - z) ** 2
                                           + 4 * eps * eps * z)) / 2)
    assert abs(doc["f"] - closed) <= max(4 * doc["stderr"], 1e-12)

    doc = run_json(capsys, outbox, "c09_decoupled", "ising", "--range", "1",
                   "--couplings", "0", "--T", "1", "--field-law", TWO_POINT,
                   "--method", "invariant", "--steps", "1e6")
    oracle = lyapunov.decoupled_exponent(dist.load_spec(TWO_POINT))
    assert doc["eps_l"] == [1.0]
    assert abs(doc["f"] - oracle) <= 4 * doc["stderr"]

    doc = run_json(capsys, outbox, "c09_scan", "ising", "--range", "1",
                   "--couplings", "1.0", "--T", "1", "--field-law", UNIFORM,
                   "--scan", "--scales", "0.02,0.03,0.045,0.065,0.09,0.12",
                   "--scan-order", "4", "--steps", "4e6", "--seed", "11")
    ell1 = ell_coefficients(dist.load_spec(UNIFORM), 1)[0]
    assert ell1 == 1
    c2 = doc["scan"]["coefficients"][2]
    se = doc["scan"]["coefficient_stderrs"][2]
    assert abs(c2 - float(ell1)) <= 4 * se
    assert time.perf_counter() - started < 300.0


def test_criterion_10_manifest_reproducibility(capsys, outbox, tmp_path):
    assert len(MANIFESTS) == 17, "criteria 1-9 must run first"
    for label, out_dir in MANIFESTS:
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for threads in ("1", "8"):
            replay = tmp_path / f"{label}_t{threads}"
            code, _, err = run(capsys, "rerun",
                               "--manifest", str(manifest_path),
                               "--out", str(replay), "--threads", threads)
            assert code == 0, f"{label} t={threads}: {err}"
            for name in manifest["outputs"]:
                assert (replay / name).read_bytes() == \
                    (out_dir / name).read_bytes(), (label, threads, name)
