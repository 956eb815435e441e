"""Tests of the benchmark harness itself: tiny-budget runs of every
workload, the self-time arithmetic of the span tracer, and the exact
step-count formula against what the CLI and the engines report."""

import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"crit_series": 0.001, "wide_stats": 0.01, "blocks": 0.01}


def span(id_, name, parent, start, end, **attrs):
    return {"id": id_, "name": name, "parent": parent, "start": start,
            "end": end, "attrs": attrs}


# engine [0, 10] -> run_blocks [1, 9] -> two overlapping workers on two
# threads, [1, 6] and [2, 9], each calling Philox once
TREE = [
    span(1, "chain.simulate_chain", None, 0.0, 10.0, steps=400, kept=300),
    span(2, "mc.run_blocks", 1, 1.0, 9.0),
    span(3, "mc.run_blocks.worker", 2, 1.0, 6.0),
    span(4, "mc.run_blocks.worker", 2, 2.0, 9.0),
    span(5, "mc.philox", 3, 2.0, 3.0, draws=200),
    span(6, "mc.philox", 4, 4.0, 6.0, draws=200),
]


def test_covered_time_is_a_clipped_union():
    assert spans._covered((0, 10), []) == 0
    assert spans._covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
    assert spans._covered((2, 6), [(0, 3), (5, 9)]) == 2
    assert spans._covered((0, 10), [(1, 4), (1, 4)]) == 3


def test_self_time_with_worker_threads():
    own = spans.self_times(TREE)
    # the workers overlap: run_blocks is fully covered, not covered twice
    assert own == {1: 2.0, 2: 0.0, 3: 4.0, 4: 5.0, 5: 1.0, 6: 2.0}
    # pool plumbing is charged to the engine, summed over threads
    assert spans.attributed_self(TREE)[1] == 2.0 + 0.0 + 4.0 + 5.0


def test_layer_metrics_from_synthetic_tree():
    m = spans.layer_metrics(TREE, import_s=0.25)
    assert set(m) == set(spans.LAYER_UNITS)
    assert m["chain.simulate_chain.calls"] == 1
    assert m["chain.simulate_chain.self_s"] == 11.0
    assert m["chain.simulate_chain.ns_per_step"] == 11.0 / 400 * 1e9
    assert m["chain.kept_frac"] == 0.75
    assert m["mc.philox.draws"] == 400
    assert m["mc.philox.busy_s"] == 3.0
    assert m["mc.run_blocks.blocks"] == 2
    assert m["mc.run_blocks.busy_s"] == 12.0
    assert m["mc.run_blocks.wall_s"] == 8.0
    assert m["mc.run_blocks.concurrency"] == 1.5
    assert m["cli.import_s"] == 0.25
    assert m["highdim.lyapunov_general.calls"] == 0


def test_tracer_links_pool_workers_to_their_parent():
    tracer = spans.Tracer()
    with tracer.span("mc.run_blocks") as rb:
        def work(_):
            with tracer.span("mc.run_blocks.worker", parent=rb["id"]) as w:
                with tracer.span("mc.philox") as p:
                    return threading.get_ident(), w["id"], p["parent"]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(work, range(4)))
    assert all(parent == wid for _, wid, parent in results)
    workers = [s for s in tracer.spans if s["name"] == "mc.run_blocks.worker"]
    assert len(workers) == 4
    assert all(s["parent"] == rb["id"] for s in workers)
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_step_formula():
    assert workloads.kept_steps(1_000_000, 2048) == 489 * 2048
    assert workloads.run_steps(1_000_000, 2048, 1000) == 2048 * (1000 + 489)
    assert workloads.run_steps(128, 64, 0) == 128
    fit, = workloads.invocations("crit_series", 0)
    assert fit.steps == 64_840_064


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_at_tiny_budget(name, tmp_path):
    result, notes = harness.benchmark(name, 3, 0, 0, work=tmp_path,
                                      scale=TINY[name], setup_reps=1)
    metrics = result["metrics"]
    assert set(metrics) == set(harness.E2E_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())
    assert notes["iterations"] == 1
    invs = workloads.invocations(name, 0, TINY[name])
    assert result["attempted"] == len(invs) + 1  # plus one rerun
    # the retained counts the CLI reports match the formula, every process
    # exits 0 and the rerun reproduces the bytes, whatever the budget
    for p in notes["problems"]:
        assert "retained counts" not in p and "exit code" not in p
    if name != "crit_series":
        # crit_series needs its full budget to clear its 4-sigma checks
        assert result["correct"], notes["problems"]


@pytest.mark.parametrize("name", ["crit_series", "wide_stats"])
def test_traced_run_at_tiny_budget(name, tmp_path):
    result, notes = harness.benchmark(name, 5, 0, 1, work=tmp_path,
                                      scale=TINY[name])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(spans.LAYER_UNITS)
    # traced checksums equal the untraced ones, and the engines drew one
    # uniform per step of the formula (fit reports no counts of its own)
    for p in notes["problems"]:
        assert "checksums" not in p and "uniforms" not in p
    invs = workloads.invocations(name, 0, TINY[name])
    assert metrics["mc.philox.draws"] == sum(inv.steps for inv in invs)
    if name == "wide_stats":
        assert result["correct"], notes["problems"]
        assert metrics["chain.simulate_chain.calls"] == 4
        assert metrics["mc.run_blocks.blocks"] == 5 * 4
        assert metrics["mc.run_blocks.speedup_t2"] > 0
    else:
        assert metrics["analysis.residual_series.steps_per_draw"] == 1.0
        assert metrics["mc.run_blocks.blocks"] == 6


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blocks",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
