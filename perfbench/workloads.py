"""Workload definitions: the generated CLI argv, the exact Monte Carlo step
count of every invocation, and the output check each invocation must pass.

A workload is one closed-loop iteration: its invocations run one after
the other, each as a fresh ``python3 -m lyapexp.cli`` process.  Only the
``--seed`` handed to the CLI depends on the benchmark seed; budgets,
grids and replica counts are fixed, so every iteration does the same
amount of work and the step count is known exactly from the arguments.

Step accounting (one step = one replica advanced by one time step,
burn-in and discarded steps included) follows the engines' layout:
each of ``replicas`` rows runs ``lead + ceil(n / replicas)`` steps,
where ``lead`` is ``--burn-in`` for the invariant-chain engines and
``--discard`` for the direct-product engines, and the CLI reports the
retained count ``replicas * ceil(n / replicas)`` as ``n`` / ``n_kept``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

BURN_IN = 10_000   # CLI default --burn-in
DISCARD = 1_000    # CLI default --discard


def kept_steps(n_steps: int, replicas: int) -> int:
    """Retained samples the engines report for a budget of ``n_steps``."""
    return replicas * -(-int(n_steps) // replicas)


def run_steps(n_steps: int, replicas: int, lead: int) -> int:
    """All steps executed: retained plus ``lead`` burn-in/discard per replica."""
    return kept_steps(n_steps, replicas) + replicas * lead


@dataclass
class Invocation:
    """One CLI process of a workload iteration.

    ``kept`` lists the retained counts the CLI must report, in the order
    the check reads them; ``check(doc, out_dir)`` returns a list of
    problems (empty when the output is correct).
    """

    name: str
    argv: list
    steps: int
    kept: list
    check: object
    rerun_threads: int | None = None


# -- crit_series ------------------------------------------------------------

CRIT_GRID = "2^-2..2^-7"
CRIT_EPS = [2.0 ** -j for j in range(2, 8)]
# Per-point budgets grow toward small eps as in acceptance criterion 5.
# The weakest point (eps = 2^-7) sets the cost: at 4.8e7 steps its
# residual sits about 8.5 standard errors above zero (6.5 at 2.8e7), so
# the 4-sigma check has a wide margin on every seed; the other points
# clear it by 10 to 600 sigma with far smaller budgets.
CRIT_BUDGETS = [500_000, 500_000, 1_000_000, 3_000_000, 8_000_000, 48_000_000]
CRIT_REPLICAS = 64


def _check_crit(doc, out_dir):
    problems = []
    if doc.get("eps_grid") != CRIT_EPS:
        problems.append(f"eps grid {doc.get('eps_grid')} != {CRIT_EPS}")
        return problems
    ratios = []
    for eps, res, se in zip(doc["eps_grid"], doc["residual"],
                            doc["lambda_stderr"]):
        if not res > 0:
            problems.append(f"residual {res} not positive at eps={eps}")
        elif not res > 4 * se:
            problems.append(f"residual {res} within 4 sigma ({se}) at "
                            f"eps={eps}")
        ratios.append(res / (eps ** 4 * math.log(1 / eps)))
    if ratios and min(ratios) > 0 and max(ratios) / min(ratios) > 10.0:
        problems.append(f"R/(eps^4 log(1/eps)) spread "
                        f"{max(ratios) / min(ratios):.3g} > 10")
    return problems


def crit_series(cli_seed: int, scale: float = 1.0) -> list:
    budgets = [max(CRIT_REPLICAS, int(b * scale)) for b in CRIT_BUDGETS]
    burn_in = BURN_IN if scale >= 1.0 else 100
    argv = ["fit", "--spec", "specs/critical_two.json", "--order", "1",
            "--eps-grid", CRIT_GRID,
            "--steps", ",".join(str(b) for b in budgets), "--no-fit",
            "--replicas", str(CRIT_REPLICAS), "--threads", "1",
            "--burn-in", str(burn_in), "--seed", str(cli_seed)]
    steps = sum(run_steps(b, CRIT_REPLICAS, burn_in) for b in budgets)
    # fit prints no sample counts, so ``kept`` is empty here; the traced
    # run cross-checks the step count against the Philox draws instead.
    return [Invocation("fit", argv, steps, [], _check_crit, rerun_threads=2)]


# -- wide_stats -------------------------------------------------------------

WIDE_REPLICAS = 2048
WIDE_STEPS = 1_000_000
WIDE_CHAIN_GRID = "2^-2..2^-4"
WIDE_GAMMAS = "1,2,4.5"


def _check_lyap(doc, out_dir):
    gs = doc.get("gap_sigma")
    if gs is None or not math.isfinite(gs) or abs(gs) > 4.0:
        return [f"direct/invariant gap of {gs} sigma exceeds 4"]
    return []


def _check_chain(doc, out_dir):
    rows = (Path(out_dir) / "chain.csv").read_text().strip().split("\n")[1:]
    cells = [r.split(",") for r in rows]
    problems = []
    if len(cells) != 3 * 3:
        problems.append(f"chain.csv has {len(cells)} rows, expected 9")
    for r in cells:
        # bounded Z: the truncated moment equals the plain one byte for byte
        if r[2] != r[4]:
            problems.append(f"moment {r[2]} != truncated moment {r[4]} at "
                            f"eps={r[0]}, gamma={r[1]}")
    return problems


def wide_stats(cli_seed: int, scale: float = 1.0) -> list:
    n = max(WIDE_REPLICAS, int(WIDE_STEPS * scale))
    burn_in = BURN_IN if scale >= 1.0 else 100
    discard = DISCARD if scale >= 1.0 else 100
    common = ["--spec", "specs/uniform_sub.json", "--replicas",
              str(WIDE_REPLICAS), "--threads", "2", "--steps", str(n),
              "--burn-in", str(burn_in), "--seed", str(cli_seed)]
    lyap = ["lyap", "--eps", "1/4", "--method", "both",
            "--discard", str(discard)] + common
    chain = ["chain", "--eps-grid", WIDE_CHAIN_GRID, "--gamma",
             WIDE_GAMMAS] + common
    kept = kept_steps(n, WIDE_REPLICAS)
    lyap_steps = (run_steps(n, WIDE_REPLICAS, discard)
                  + run_steps(n, WIDE_REPLICAS, burn_in))
    chain_steps = 3 * run_steps(n, WIDE_REPLICAS, burn_in)
    return [Invocation("lyap", lyap, lyap_steps, [kept, kept], _check_lyap,
                       rerun_threads=1),
            Invocation("chain", chain, chain_steps, [kept] * 3,
                       _check_chain)]


# -- blocks -----------------------------------------------------------------

BLOCK_STEPS = 1_000_000
BLOCK_REPLICAS = 64


def _check_highdim(doc, out_dir):
    d, i = doc.get("direct"), doc.get("invariant")
    if not d or not i:
        return ["highdim result lacks an estimator"]
    sig = math.hypot(d["stderr"], i["stderr"])
    gap = d["value"] - i["value"]
    if not (sig > 0 and abs(gap) <= 4.0 * sig):
        return [f"direct {d['value']} and invariant {i['value']} differ "
                f"by more than 4 sigma ({sig})"]
    return []


def _check_ising(doc, out_dir):
    f, se = doc.get("f"), doc.get("stderr")
    if not (isinstance(f, float) and math.isfinite(f)):
        return [f"Ising free energy {f!r} is not finite"]
    if not (isinstance(se, float) and se > 0):
        return [f"Ising stderr {se!r} is not positive"]
    return []


def blocks(cli_seed: int, scale: float = 1.0) -> list:
    n = max(BLOCK_REPLICAS, int(BLOCK_STEPS * scale))
    burn_in = BURN_IN if scale >= 1.0 else 100
    discard = DISCARD if scale >= 1.0 else 100
    budget = ["--steps", str(n), "--burn-in", str(burn_in),
              "--discard", str(discard), "--seed", str(cli_seed)]
    highdim = ["highdim", "--blocks", "specs/blocks_d2.json", "--eps",
               "1/4", "--method", "both"] + budget
    ising = ["ising", "--range", "2", "--couplings", "1.0,0.5", "--T", "1",
             "--field-law", "specs/uniform_sub.json", "--method",
             "direct"] + budget
    kept = kept_steps(n, BLOCK_REPLICAS)
    highdim_steps = (run_steps(n, BLOCK_REPLICAS, discard)
                     + run_steps(n, BLOCK_REPLICAS, burn_in))
    ising_steps = run_steps(n, BLOCK_REPLICAS, discard)
    return [Invocation("highdim", highdim, highdim_steps, [kept, kept],
                       _check_highdim, rerun_threads=2),
            Invocation("ising", ising, ising_steps, [kept], _check_ising)]


BUILDERS = {"crit_series": crit_series, "wide_stats": wide_stats,
            "blocks": blocks}

# Spec files each workload reads, relative to the checkout root.
INPUTS = {"crit_series": ["specs/critical_two.json"],
          "wide_stats": ["specs/uniform_sub.json"],
          "blocks": ["specs/blocks_d2.json", "specs/uniform_sub.json"]}


def invocations(name: str, cli_seed: int, scale: float = 1.0) -> list:
    return BUILDERS[name](cli_seed, scale)


def extract_kept(name: str, doc) -> list:
    """Retained counts the CLI reported, in the order ``Invocation.kept``."""
    if name == "lyap":
        return [doc["direct"]["n"], doc["invariant"]["n"]]
    if name == "chain":
        return [p["n_kept"] for p in doc["points"]]
    if name == "highdim":
        return [doc["direct"]["n"], doc["invariant"]["n"]]
    if name == "ising":
        return [doc["n"]]
    return []
