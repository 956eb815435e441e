"""Command-line front end.

One executable, one subcommand per task:

    coeffs    exact series coefficients from a law or a moment vector
    alpha     critical exponent of the disorder law
    chain     stationary chain statistics across a damping grid
    lyap      Lyapunov exponent of the 2x2 model, both estimators
    fit       residual series on a grid plus decay-exponent fit
    highdim   block-matrix exponent / expansion extraction
    ising     transfer-matrix free energy and strong-coupling scan
    selftest  fast exact self-checks, no Monte Carlo
    rerun     re-execute a RunManifest and verify byte-identical outputs

Conventions shared by every subcommand: results print to stdout (pass
``--json`` for the full machine-readable document); ``--out DIR`` writes
the same document plus CSV series and a ``manifest.json`` capturing the
resolved configuration, package version, wall time, peak memory and the
SHA-256 of every written file.  A manifest can be replayed with
``rerun``, which recomputes the outputs and verifies the checksums --
they are reproducible bit for bit, for any ``--threads`` value, because
all randomness is keyed to (seed, stream) pairs fixed before execution.

Exit codes: 0 success, 1 usage error, 2 invalid input (ValidationError),
3 numerical failure (NumericalError: degenerate moments, singular moment
systems, no signal, a Monte Carlo statistic that is not finite, checksum
mismatch on rerun).

Numeric formatting: CSV and .dat files carry 17 significant digits
(%.17g), enough to round-trip doubles exactly; JSON uses Python's repr,
which is also round-trip exact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import analysis
from . import chain as chain_mod
from . import coefficients as coeffs_mod
from . import distributions as dist
from . import highdim
from . import ising as ising_mod
from . import lyapunov
from .errors import (InvalidParameter, InvalidSpec, NumericalError,
                     TruncationOverflow, ValidationError)
from .mc import chain_eps, finite_eps

_FMT = "%.17g"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


# -- small parsers -------------------------------------------------------

def _finite(text: str, convert):
    """``convert(text)``, checked: a malformed token is a usage error, and
    a value that is not a finite real number is a validation error."""
    try:
        value = convert(text)
        finite = isinstance(value, Fraction) or math.isfinite(value)
    except (OverflowError, ZeroDivisionError, TypeError):
        finite = False
    except ValueError:
        raise _UsageError(f"malformed number {text.strip()!r}") from None
    if not finite:
        raise InvalidParameter(f"{text.strip()!r} is not a finite number")
    return value


def _number_value(text: str) -> float:
    if "^" in text:
        base, _, expo = text.partition("^")
        return float(base) ** float(expo)
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def _parse_number(text: str) -> float:
    """One numeric token: decimal, fraction 'p/q', or power '2^-5'."""
    return _finite(text.strip(), _number_value)


def _parse_grid(text: str):
    """Grid syntax: 'a,b,c' of numbers, or a power range '2^-2..2^-7'."""
    text = text.strip()
    if ".." in text and "^" in text:
        lo, _, hi = text.partition("..")
        base_s, _, e0 = lo.partition("^")
        base2, _, e1 = hi.partition("^")
        if base_s.strip() != base2.strip():
            raise _UsageError(f"grid endpoints must share a base: {text!r}")
        j0, j1 = _finite(e0, int), _finite(e1, int)
        step = 1 if j1 >= j0 else -1
        return [_parse_number(f"{base_s}^{j}")
                for j in range(j0, j1 + step, step)]
    return _parse_list(text, _parse_number)


def _parse_steps(text: str):
    vals = _parse_list(text, _whole)
    return vals[0] if len(vals) == 1 else vals


def _whole(text: str) -> int:
    """A step budget: a finite number, in any form ``float`` reads
    ('1e6'), that is a whole number."""
    value = _finite(text, float)
    if not value.is_integer():
        raise InvalidParameter(f"{text.strip()!r} is not a whole number "
                               "of steps")
    return int(value)


def _parse_int_list(text: str):
    if ".." not in text:
        return _parse_list(text, lambda t: _finite(t, int))
    lo, _, hi = text.partition("..")
    values = list(range(_finite(lo, int), _finite(hi, int) + 1))
    if not values:
        raise _UsageError(f"{text.strip()!r} names no value")
    return values


def _parse_list(text: str, convert) -> list:
    """The comma list ``text``, each token read by ``convert`` and blank
    tokens skipped; a list that names no value is a usage error."""
    values = [convert(t) for t in text.split(",") if t.strip()]
    if not values:
        raise _UsageError(f"{text.strip()!r} names no value")
    return values


def _parse_coupling(text: str) -> float:
    """A bond strength: +inf, however ``float`` spells it ('INF', '1e400'),
    switches the bond off; any other value must be finite."""
    try:
        if float(text) == math.inf:
            return math.inf
    except ValueError:
        pass
    return _parse_number(text)


def _resolve_threads(args) -> int:
    threads = args.threads
    if threads < 0:
        raise InvalidParameter(f"--threads must be >= 0, got {threads}")
    return max(threads, 1)


def _run_size(args, *leads) -> dict:
    """Keyword arguments that size a Monte Carlo run: ``n_steps``,
    ``seed``, ``replicas`` and ``threads``, plus the named ``leads``
    (``burn_in``, ``discard``).  Only ``fit`` takes per-point budgets."""
    steps = _parse_steps(args.steps)
    if isinstance(steps, list) and args.subcommand != "fit":
        raise _UsageError(f"{args.subcommand} takes a single --steps value")
    size = dict(n_steps=steps, seed=args.seed, replicas=args.replicas,
                threads=_resolve_threads(args))
    size.update((lead, getattr(args, lead)) for lead in leads)
    return size


def _clean(obj):
    """Make a result document JSON-safe (non-finite floats to strings)."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(_FMT % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _dat(pairs) -> str:
    return "".join(f"{_FMT % x} {_FMT % y}\n" for x, y in pairs)


def _estimate_doc(est) -> dict:
    return {"value": est.value, "stderr": est.stderr, "n": est.n,
            "method": est.method}


_METHODS = {"direct": lyapunov.DIRECT, "invariant": lyapunov.INVARIANT}


def _estimates(engine, law, eps, method: str, size) -> dict:
    """``{name: estimate document}`` for each estimator ``--method``
    names; ``both`` runs the direct one, then the invariant one.  An eps
    the invariant chain cannot run at is refused before either runs."""
    names = tuple(_METHODS) if method == "both" else (method,)
    if "invariant" in names:
        chain_eps(eps)
    return {name: _estimate_doc(engine(law, eps, _METHODS[name], **size))
            for name in names}


# -- subcommand handlers --------------------------------------------------
# each returns (doc, files): the printable result document and the
# {filename: text} outputs written under --out

def _run_coeffs(args):
    order = args.order
    if args.moments is not None:
        m = _parse_list(args.moments, lambda t: _finite(t, Fraction))
        source = {"moments": [str(v) for v in m]}
    elif args.spec:
        m = dist.load_spec(args.spec)
        source = {"spec": dist.spec_to_dict(m)}
    else:
        raise _UsageError("coeffs needs --spec or --moments")
    table = coeffs_mod.g_table(m, order)
    ell = table.ell
    doc = {
        "order": order,
        "ell_float": [float(e) for e in ell],
        "condition": table.condition,
        "exact_inputs": table.exact,
        **source,
    }
    if args.exact:
        doc["ell_exact"] = [str(e) for e in ell]
    rows = [(k + 1, str(ell[k]), float(ell[k])) for k in range(order)]
    files = {"coeffs.csv": _csv(("k", "ell_exact", "ell_float"), rows),
             "coeffs.json": _doc_json(doc)}
    return doc, files


def _run_alpha(args):
    spec = dist.load_spec(args.spec)
    doc = {**asdict(dist.solve_alpha(spec)),
           "assumptions_pass": dist.assumptions_hold(spec),
           "spec": dist.spec_to_dict(spec)}
    return doc, {"alpha.json": _doc_json(doc)}


def _run_chain(args):
    spec = dist.load_spec(args.spec)
    size = _run_size(args, "burn_in")
    if args.dominance:
        return _run_dominance(args, spec, size["n_steps"])
    grid = _parse_grid(args.eps_grid) if args.eps_grid is not None \
        else [_parse_number(args.eps)] if args.eps else None
    if not grid:
        raise _UsageError("chain needs --eps or --eps-grid")
    gammas = tuple(_parse_list(args.gamma, _parse_number))
    cutoff = _parse_number(args.cutoff) if args.cutoff is not None \
        else chain_mod.default_cutoff(spec)
    rows = []
    stats_docs = []
    # every grid point is checked, and taken to |eps|, before the first runs
    cfgs = [chain_mod.ChainConfig(eps=eps, **size) for eps in grid]
    for cfg in cfgs:
        st = chain_mod.simulate_chain(spec, cfg, gammas=gammas,
                                      b_cutoff=cutoff)
        for i, g in enumerate(gammas):
            rows.append((st.eps, g, st.moments[i], st.moment_stderrs[i],
                         st.trunc_moments[i], st.trunc_stderrs[i],
                         st.max_x, st.n_kept))
        stats_docs.append({"eps": st.eps, "max_x": st.max_x,
                           "log1p_mean": st.log1p_mean,
                           "log1p_stderr": st.log1p_stderr,
                           "n_kept": st.n_kept})
    doc = {"gammas": list(gammas), "eps_grid": [cfg.eps for cfg in cfgs],
           "b_cutoff": cutoff, "steps": size["n_steps"], "seed": args.seed,
           "points": stats_docs, "spec": dist.spec_to_dict(spec)}
    header = ("eps", "gamma", "moment", "moment_stderr", "trunc_moment",
              "trunc_stderr", "max_x", "n_kept")
    files = {"chain.csv": _csv(header, rows), "chain.json": _doc_json(doc)}
    if args.emit_plot:
        for g in gammas:
            pairs = [(r[0], r[2]) for r in rows if r[1] == g]
            files[f"moment_g{g:g}.dat"] = _dat(pairs)
    return doc, files


def _run_dominance(args, spec, steps):
    import numpy as np

    if not args.eps or not args.eps2:
        raise _UsageError("--dominance needs --eps and --eps2")
    eps, eps2 = _parse_number(args.eps), _parse_number(args.eps2)
    # the paths run at |eps|, so a signed pair would be compared wrongly
    if eps < 0 or eps2 < 0:
        raise InvalidParameter(f"--dominance needs eps and eps2 >= 0, got "
                               f"{eps:g} and {eps2:g}")
    if eps > eps2:
        raise _UsageError("--dominance expects eps <= eps2")
    seeds = _parse_int_list(args.seeds)
    law = highdim.from_scalar(spec)
    pair_viol = 0
    series_viol = 0
    for seed in seeds:
        undamped, lo, hi = highdim.coupled_paths(law, (0.0, eps, eps2),
                                                 steps, seed)
        # a NaN compares false, so it would count as agreement
        finite = np.isfinite([undamped, lo, hi]).all(axis=0)
        if not finite.all():
            raise TruncationOverflow(
                f"seed {seed}: a coupled path is not finite from step "
                f"{int(finite.argmin()) + 1} (the perpetuity diverges)")
        pair_viol += int((lo < hi).sum())
        series_viol += int((undamped < lo).sum())
    doc = {"eps": eps, "eps2": eps2, "steps": steps, "seeds": seeds,
           "violations_pair": pair_viol, "violations_series": series_viol,
           "spec": dist.spec_to_dict(spec)}
    return doc, {"dominance.json": _doc_json(doc)}


def _run_lyap(args):
    spec = dist.load_spec(args.spec)
    size = _run_size(args, "burn_in", "discard")
    eps = finite_eps(_parse_number(args.eps))  # the |eps| both engines run
    doc = {"eps": eps, "seed": args.seed, "steps": size["n_steps"],
           "spec": dist.spec_to_dict(spec),
           **_estimates(lyapunov.estimate, spec, eps, args.method, size)}
    if "direct" in doc and "invariant" in doc:
        gap = doc["direct"]["value"] - doc["invariant"]["value"]
        sig = math.hypot(doc["direct"]["stderr"], doc["invariant"]["stderr"])
        doc["gap"] = gap
        doc["gap_sigma"] = gap / sig if sig > 0 else 0.0
    if len(spec.atoms or ()) == 1:
        doc["oracle_deterministic"] = lyapunov.deterministic_exponent(
            float(spec.atoms[0]), eps)
    if spec.is_discrete and eps == 1.0:
        doc["oracle_decoupled"] = lyapunov.decoupled_exponent(spec)
    return doc, {"lyap.json": _doc_json(doc)}


def _run_fit(args):
    spec = dist.load_spec(args.spec)
    size = _run_size(args, "burn_in")
    grid = _parse_grid(args.eps_grid)
    # a law or order with no bracket is refused before any estimate runs
    bracket = analysis.theory_brackets(spec, args.order)
    if not args.no_fit:
        analysis.check_fit_grid(bracket, grid)
    series = analysis.residual_series(spec, args.order, grid, **size)
    doc = {"order": args.order, "eps_grid": list(series.eps),
           "lambda": list(series.lam), "lambda_stderr": list(series.lam_stderr),
           "regular": list(series.regular), "residual": list(series.residual),
           "sign": series.sign, "ell": list(series.ell),
           "bracket": asdict(bracket), "seed": args.seed,
           "spec": dist.spec_to_dict(spec)}
    rows = list(zip(series.eps, series.lam, series.lam_stderr,
                    series.regular, series.residual))
    files = {"series.csv": _csv(
        ("eps", "lambda", "lambda_stderr", "regular", "residual"), rows)}
    if not args.no_fit:
        doc["fit"] = asdict(analysis.fit_exponent(
            series, bracket, min_points=args.min_points))
    files["fit.json"] = _doc_json(doc)
    if args.emit_plot:
        files["residual.dat"] = _dat(zip(series.eps, series.residual))
    return doc, files


def _run_highdim(args):
    law = highdim.load_blocks(args.blocks)
    size = _run_size(args, "burn_in", "discard")
    report = highdim.validate_blocks(law)
    doc = {"d": law.d, "assumptions": {**asdict(report),
                                       "passes": report.passes},
           "seed": args.seed, "steps": size["n_steps"]}
    files = {}
    if args.K is not None:
        if args.eps_grid is None:
            raise _UsageError("extraction mode needs --eps-grid with --K")
        grid = _parse_grid(args.eps_grid)
        if args.method == "both":
            raise _UsageError("extraction mode needs a single --method")
        fit = highdim.extract_expansion(
            law, args.K, grid, method=_METHODS[args.method], **size)
        doc.update({
            "order": fit.order, "powers": list(fit.powers),
            "coefficients": list(fit.coefficients),
            "coefficient_stderrs": list(fit.stderrs), "r2": fit.r2,
            "conditions": {str(l): c for l, c in fit.conditions.items()},
            "estimates": [{"eps": e.eps, **_estimate_doc(e)}
                          for e in fit.estimates],
        })
        rows = [(e.eps, e.value, e.stderr) for e in fit.estimates]
        files["expansion.csv"] = _csv(("eps", "value", "stderr"), rows)
        if args.emit_plot:
            files["expansion.dat"] = _dat((e.eps, e.value)
                                          for e in fit.estimates)
    elif args.eps:
        eps = finite_eps(_parse_number(args.eps))
        doc["eps"] = eps
        doc.update(_estimates(highdim.lyapunov_general, law, eps,
                              args.method, size))
    else:
        raise _UsageError("highdim needs either --K with --eps-grid, or --eps")
    files["highdim.json"] = _doc_json(doc)
    return doc, files


def _run_ising(args):
    field_law = dist.load_spec(args.field_law)
    size = _run_size(args, "burn_in", "discard")
    couplings = tuple(_parse_list(args.couplings, _parse_coupling))
    model = ising_mod.IsingModel(args.range, couplings, _parse_number(args.T),
                                 field_law)
    method = _METHODS[args.method]
    doc = {"range": args.range, "couplings": list(model.couplings),
           "T": model.temperature, "eps_l": list(model.eps),
           "dim": model.dim, "seed": args.seed, "steps": size["n_steps"],
           "z_law": dist.spec_to_dict(field_law)}
    files = {}
    if args.scan:
        if args.scales is None:
            raise _UsageError("--scan needs --scales")
        scales = _parse_grid(args.scales)
        ray = (None if args.ray is None
               else _parse_list(args.ray, _parse_number))
        report = ising_mod.strong_coupling_scan(
            model, scales, order=args.scan_order, ray=ray, method=method,
            **size)
        doc["scan"] = asdict(report)
        rows = list(zip(report.scales, report.values, report.stderrs))
        files["scan.csv"] = _csv(("scale", "f", "stderr"), rows)
        if args.emit_plot:
            files["scan.dat"] = _dat(zip(report.scales, report.values))
    else:
        est = _estimate_doc(ising_mod.free_energy(model, method=method,
                                                  **size))
        doc.update(f=est.pop("value"), **est)
    files["ising.json"] = _doc_json(doc)
    return doc, files


def _selftest_checks():
    import numpy as np

    def multi_index_counts():
        for d in range(1, 5):
            for l in range(0, 7):
                if len(highdim.multi_indices(d, l)) != \
                        highdim.count_multi_indices(d, l):
                    return False
        return highdim.multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def g_base_case():
        t = coeffs_mod.g_table([Fraction(1, 2)], 1)
        # and the block G^(2) of Z uniform on [1/10, 9/10], exactly
        # E[Z^2] = (9^3 - 1^3) / (3 * 8 * 100)
        law = highdim.from_scalar(dist.uniform_interval("1/10", "9/10"))
        return (t.g[0][0] == 1 and t.ell[0] == 1
                and highdim.g_matrix(law, 2).exact == ((Fraction(91, 300),),))

    def moment_at_zero():
        return dist.moment(dist.two_point("1/2", "2", "1/5"), 0) == 1

    def scalar_step_reduction():
        for x, z, e in ((0.0, 0.5, 0.1), (0.7, 1.25, 0.3), (3.0, 2.0, 1.0)):
            v = highdim.vector_chain_step(np.array([x]), np.array([1.0]),
                                          np.array([z]), np.array([[z]]), e)
            if chain_mod.step(x, z, e) != v[0]:
                return False
        return True

    def vector_step_at_zero():
        c = np.array([0.3, 0.1])
        n = np.array([[0.2, 0.0], [0.1, 0.4]])
        out = highdim.vector_chain_step(np.zeros(2), np.ones(2), c, n, 0.5)
        return np.array_equal(out, c)

    def alpha_infinite_when_bounded_by_one():
        res = dist.solve_alpha(dist.uniform_interval("1/10", "9/10"))
        return res.kind == "infinite" and math.isinf(res.alpha)

    def expansion_order_zero_empty():
        law = highdim.from_scalar(dist.two_point("1/2", "5/4", "1/2"))
        fit = highdim.extract_expansion(law, 0, ())
        return fit.powers == () and fit.coefficients == ()

    def ising_structure():
        law = dist.two_point("1/2", "5/4", "1/2")
        m1 = ising_mod.IsingModel(1, (0.9,), 0.7, law)
        eps = m1.eps[0]
        a = ising_mod.transfer_matrix(m1, 1.25)
        ok = np.array_equal(a, np.array([[1.0, eps], [1.25 * eps, 1.25]]))
        m2 = ising_mod.IsingModel(2, (0.9, 1.3), 0.7, law)
        ent = ising_mod.structural_entries(m2)
        rows = [0] * 4
        cols = [0] * 4
        for r, c, _, _ in ent:
            rows[r] += 1
            cols[c] += 1
        return ok and all(v == 2 for v in rows + cols)

    def ising_zero_hamiltonian():
        law = dist.two_point("1/2", "5/4", "1/2")
        m = ising_mod.IsingModel(2, (0.0, 0.0), 1.0, law)
        a = ising_mod.transfer_matrix(m, 1.0)
        ent = ising_mod.structural_entries(m)
        return all(a[r, c] == 1.0 for r, c, _, _ in ent)

    def deterministic_blocks():
        m = ising_mod.IsingModel(1, (0.9,), 0.7, dist.degenerate("5/4"))
        law, _ = ising_mod.map_to_blocks(m)
        return isinstance(law, highdim.FiniteBlockLaw) and len(law.weights) == 1

    def spec_json_roundtrip():
        s = dist.two_point("1/2", "3/2", "1/4")
        return dist.spec_from_dict(dist.spec_to_dict(s)) == s

    return [
        ("multi_index_counts", multi_index_counts),
        ("g_base_case", g_base_case),
        ("moment_at_zero", moment_at_zero),
        ("scalar_step_reduction", scalar_step_reduction),
        ("vector_step_at_zero", vector_step_at_zero),
        ("alpha_infinite_when_bounded_by_one", alpha_infinite_when_bounded_by_one),
        ("expansion_order_zero_empty", expansion_order_zero_empty),
        ("ising_structure", ising_structure),
        ("ising_zero_hamiltonian", ising_zero_hamiltonian),
        ("deterministic_blocks", deterministic_blocks),
        ("spec_json_roundtrip", spec_json_roundtrip),
    ]


def _run_selftest(args):
    checks = []
    all_ok = True
    for name, fn in _selftest_checks():
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append({"name": name, "ok": ok})
        all_ok = all_ok and ok
    doc = {"checks": checks, "all_ok": all_ok}
    if not all_ok:
        failed = ", ".join(c["name"] for c in checks if not c["ok"])
        raise NumericalError(f"selftest failures: {failed}")
    return doc, {"selftest.json": _doc_json(doc)}


def _run_rerun(args):
    manifest = dist.read_json(args.manifest, "manifest")
    if not isinstance(manifest, dict):
        raise InvalidSpec("manifest is not an object")
    for key in ("subcommand", "config", "outputs"):
        if key not in manifest:
            raise InvalidSpec(f"manifest lacks the {key!r} field")
    sub = manifest["subcommand"]
    if not isinstance(sub, str) or sub not in _HANDLERS or sub == "rerun":
        raise InvalidSpec(f"manifest names unknown subcommand {sub!r}")
    config = manifest["config"]
    if not isinstance(config, dict):
        raise InvalidSpec("manifest 'config' is not an object")
    expected = manifest["outputs"]
    if not isinstance(expected, dict):
        raise InvalidSpec("manifest 'outputs' is not an object")
    if args.threads:
        config = {**config, "threads": args.threads}
    parser = build_parser()
    try:
        replay = parser.parse_args(_config_argv(parser, sub, config))
        _, files = _HANDLERS[sub](replay)
    except _UsageError as exc:
        raise InvalidSpec(f"manifest config: {exc}") from None
    if args.out:
        _write_files(args.out, files)
    produced = {name: _sha256(text) for name, text in files.items()}
    mismatched = sorted(set(expected) ^ set(produced)
                        | {n for n in expected
                           if n in produced and expected[n] != produced[n]})
    doc = {"manifest": str(Path(args.manifest).resolve()),
           "subcommand": sub, "match": not mismatched,
           "mismatched": mismatched, "outputs": produced}
    if mismatched:
        raise NumericalError(
            "rerun outputs differ from the manifest: " + ", ".join(mismatched))
    return doc, {}


def _config_argv(parser, sub: str, config: dict) -> list:
    """The command line a manifest's ``config`` stands for: ``sub``, then
    ``--option=value`` for each of its options that ``config`` sets, so
    the values pass the same checks as a fresh command line.  An absent
    or null value leaves the option at its default; a flag is set by
    ``true``.  A required option without a value is invalid input."""
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    argv = [sub]
    for action in subs.choices[sub]._actions:
        if action.default == argparse.SUPPRESS:
            continue  # --help
        option, value = action.option_strings[0], config.get(action.dest)
        if value is None:
            if action.required:
                raise InvalidSpec(
                    f"manifest config lacks the {action.dest!r} key")
        elif action.nargs == 0 and isinstance(value, bool):
            if value:
                argv.append(option)
        else:
            argv.append(f"{option}={value}")
    return argv


# -- plumbing -------------------------------------------------------------

def _doc_json(doc) -> str:
    return json.dumps(_clean(doc), indent=2, sort_keys=True) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_files(out_dir, files):
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (path / name).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InvalidParameter(
            f"cannot write to --out {out_dir}: {exc.strerror or exc}") from exc


_PATH_KEYS = ("spec", "blocks", "field_law")


def _manifest_config(args) -> dict:
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in ("out", "json", "subcommand"):
            continue
        if key in _PATH_KEYS and isinstance(val, str):
            val = str(Path(val).resolve())
        cfg[key] = val
    return cfg


def _write_manifest(out_dir, sub, args, files, wall):
    from . import kernels  # loaded by the first run, not at start-up

    manifest = {
        "subcommand": sub,
        "config": _manifest_config(args),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "recursion": kernels.recursion(),
        "wall_time_s": round(wall, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": {name: _sha256(text) for name, text in files.items()},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_files(out_dir, {"manifest.json": text})


def _peak_rss_mb():
    """This process's peak resident set so far, in MB of 2^20 bytes, or
    None where the ``resource`` module is missing.  ``ru_maxrss`` counts
    bytes on macOS and KiB elsewhere."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1 << (20 if sys.platform == "darwin" else 10)), 1)


def _summary(sub, doc) -> str:
    if sub == "coeffs":
        lines = ["k  ell"]
        exact = doc.get("ell_exact")
        for i, v in enumerate(doc["ell_float"]):
            shown = exact[i] if exact else _FMT % v
            lines.append(f"{i + 1}  {shown}")
        return "\n".join(lines)
    if sub == "selftest":
        # selftest raises before it prints unless every check passed
        return "\n".join([f"ok   {c['name']}" for c in doc["checks"]]
                         + ["all passed"])
    return json.dumps(_clean(doc), indent=2, sort_keys=True)


def _add_common(p):
    p.add_argument("--steps", default="1e6",
                   help="Monte Carlo steps (accepts 1e7 or a comma list "
                        "where per-point budgets make sense)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=10_000, dest="burn_in")
    p.add_argument("--replicas", type=int, default=64)
    p.add_argument("--threads", type=int, default=0,
                   help="worker threads (default 0: one thread); "
                        "results are identical for every value")


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="lyapexp",
                   description="Lyapunov exponents of random 2x2 (and block) "
                               "matrix products, series coefficients, and "
                               "disordered Ising free energies.")
    root.add_argument("--version", action="version", version=__version__)
    subs = root.add_subparsers(dest="subcommand")

    p = subs.add_parser("coeffs", help="exact series coefficients")
    p.add_argument("--spec", help="distribution JSON file")
    p.add_argument("--moments", help="comma list of E[Z^l] as fractions")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="print coefficients as exact rationals")

    p = subs.add_parser("alpha", help="critical moment exponent")
    p.add_argument("--spec", required=True)

    p = subs.add_parser("chain", help="stationary chain statistics")
    p.add_argument("--spec", required=True)
    p.add_argument("--eps")
    p.add_argument("--eps-grid", dest="eps_grid")
    p.add_argument("--gamma", default="1,2", help="comma list of moments")
    p.add_argument("--cutoff",
                   help="truncation level B for E[X^g; eps^2 X <= B] "
                        "(default: twice the essential supremum of Z)")
    p.add_argument("--dominance", action="store_true",
                   help="check pathwise ordering instead of moments")
    p.add_argument("--eps2", help="larger damping for --dominance")
    p.add_argument("--seeds", default="0..9", help="seed list for --dominance")
    _add_common(p)

    p = subs.add_parser("lyap", help="2x2 Lyapunov exponent")
    p.add_argument("--spec", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--method", choices=("direct", "invariant", "both"),
                   default="both")
    p.add_argument("--discard", type=int, default=1000)
    _add_common(p)

    p = subs.add_parser("fit", help="residual series and decay exponent")
    p.add_argument("--spec", required=True)
    p.add_argument("--order", type=int, required=True,
                   help="number of regular terms subtracted (K)")
    p.add_argument("--eps-grid", dest="eps_grid", required=True)
    p.add_argument("--min-points", type=int, default=5, dest="min_points")
    p.add_argument("--no-fit", action="store_true", dest="no_fit",
                   help="emit the series only, skip the exponent fit")
    _add_common(p)

    p = subs.add_parser("highdim", help="block-matrix exponent / expansion")
    p.add_argument("--blocks", required=True, help="block-law JSON file")
    p.add_argument("--K", type=int, default=None,
                   help="expansion order (extraction mode)")
    p.add_argument("--eps-grid", dest="eps_grid")
    p.add_argument("--eps", help="single damping (estimate mode)")
    p.add_argument("--method", choices=("direct", "invariant", "both"),
                   default="invariant")
    p.add_argument("--discard", type=int, default=1000)
    _add_common(p)

    p = subs.add_parser("ising", help="transfer-matrix free energy")
    p.add_argument("--range", type=int, required=True,
                   help="interaction range d")
    p.add_argument("--couplings", required=True,
                   help="comma list of d bond strengths (inf allowed)")
    p.add_argument("--T", required=True)
    p.add_argument("--field-law", dest="field_law", required=True,
                   help="JSON law of the disorder multiplier Z")
    p.add_argument("--method", choices=("direct", "invariant"),
                   default="direct")
    p.add_argument("--discard", type=int, default=1000)
    p.add_argument("--scan", action="store_true",
                   help="strong-coupling scan along a bond-weight ray")
    p.add_argument("--scales", help="comma list of ray scales for --scan")
    p.add_argument("--scan-order", type=int, default=4, dest="scan_order")
    p.add_argument("--ray", help="ray direction (default: model's weights)")
    _add_common(p)

    p = subs.add_parser("selftest", help="fast exact self-checks")

    p = subs.add_parser("rerun", help="replay a manifest, verify checksums")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=0)

    for name, sp in subs.choices.items():
        if name != "rerun":
            sp.add_argument("--out", dest="out", default=None,
                            help="directory for result files and "
                                 "manifest.json")
        sp.add_argument("--json", action="store_true",
                        help="print the full JSON document to stdout")
        if name not in ("rerun", "selftest", "coeffs", "alpha", "lyap"):
            sp.add_argument("--emit-plot", action="store_true",
                            dest="emit_plot",
                            help="also write two-column .dat plot data")
    return root


_HANDLERS = {
    "coeffs": _run_coeffs,
    "alpha": _run_alpha,
    "chain": _run_chain,
    "lyap": _run_lyap,
    "fit": _run_fit,
    "highdim": _run_highdim,
    "ising": _run_ising,
    "selftest": _run_selftest,
    "rerun": _run_rerun,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if not args.subcommand:
        print("usage error: a subcommand is required "
              "(see lyapexp --help)", file=sys.stderr)
        return 1
    handler = _HANDLERS[args.subcommand]
    started = time.perf_counter()
    try:
        # numpy's overflow warnings are noise: a statistic they spoil is
        # refused with one line by mc.batch_means
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            doc, files = handler(args)
        wall = time.perf_counter() - started
        out = getattr(args, "out", None)
        if out and args.subcommand != "rerun":
            _write_files(out, files)
            _write_manifest(out, args.subcommand, args, files, wall)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        if args.json:
            print(json.dumps(_clean(doc), indent=2, sort_keys=True))
        else:
            print(_summary(args.subcommand, doc))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``| head``); the files are written, so end
        # quietly, with stdout on devnull for the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
