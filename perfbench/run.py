"""End-to-end and per-module benchmark of the lyapexp command-line tool.

    python3 perfbench/run.py --workload crit_series|wide_stats|blocks|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/lyapexp`` and ``specs/``).
One client runs the workload's CLI invocations in a closed loop, each a
fresh ``python3 -m lyapexp.cli`` process, until ``--seconds`` have passed;
``--seed`` only chooses the ``--seed`` handed to the CLI, so every
iteration does the same, exactly counted, number of Monte Carlo steps.
Every invocation's output is checked after it has been timed, and one
manifest per run is replayed with ``lyapexp rerun`` at another thread
count.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall
time of one iteration), ``steps_per_s``, ``setup_s`` (median over
fresh-interpreter set-ups spread over the run) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced iterations on the same CLI seeds and
reports the per-module metrics of ``spans.py``; the traced outputs must
match the untraced checksums.  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB"}
SETUP_REPS = 11
PROCESS_TIMEOUT_S = 120.0


class Run:
    """Counts and scratch space of one benchmark run of one workload."""

    def __init__(self, root: Path, work: Path, name: str, seed: int,
                 scale: float = 1.0):
        self.root = root
        self.work = work
        self.name = name
        self.scale = scale
        self.rng = random.Random(f"{name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = 0.0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("LYAPEXP_THREADS", None)

    def fail(self, what, problems):
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def process(self, cmd, tag, env=None):
        """Run ``cmd`` in the checkout; return (exit code, wall s, stdout).

        Wall time runs from spawn to reaping.  Peak RSS comes from the
        child's own rusage.  A process past the timeout is killed.
        """
        out_path = self.work / f"{tag}.out"
        err_path = self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=env or self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, wall, out_path.read_text(encoding="utf-8")

    def cli_seed(self):
        return self.rng.randrange(2 ** 31)


def setup_round(run, invs, tag):
    """Summed fresh-interpreter set-up time of the invocations ``invs``."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    total = 0.0
    for j, inv in enumerate(invs):
        env = dict(run.env, PERFBENCH_SPAWN=repr(time.monotonic()))
        rc, _, out = run.process(probe + inv.argv, f"{tag}_{j}", env)
        if rc != 0:
            raise RuntimeError(f"set-up probe failed for {inv.argv}")
        total += json.loads(out)["setup_s"]
    return total


def run_iteration(run, invs, tag, traced=False):
    """Run one iteration; return its wall time and per-invocation records."""
    wall = 0.0
    records = []
    for j, inv in enumerate(invs):
        out_dir = run.work / f"{tag}_{inv.name}"
        argv = inv.argv + ["--out", str(out_dir)]
        span_path = run.work / f"{tag}_{inv.name}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(span_path), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "lyapexp.cli"] + argv
        rc, w, out = run.process(cmd, f"{tag}_{inv.name}")
        wall += w
        records.append({"inv": inv, "rc": rc, "stdout": out,
                        "out_dir": out_dir,
                        "spans": span_path if traced else None})
    return wall, records


def check_records(run, records):
    """Output checks, outside the timed region; failures are counted."""
    for rec in records:
        inv = rec["inv"]
        run.attempted += 1
        what = f"{run.name}/{inv.name} {' '.join(inv.argv)}"
        if rec["rc"] != 0:
            run.fail(what, [f"exit code {rec['rc']}"])
            continue
        try:
            doc = json.loads(rec["stdout"])
            problems = inv.check(doc, rec["out_dir"])
            reported = workloads.extract_kept(inv.name, doc)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems, reported = [f"unreadable output: {exc!r}"], inv.kept
        if reported != inv.kept:
            problems.append(f"CLI reports retained counts {reported}, "
                            f"formula gives {inv.kept}")
        if problems:
            run.fail(what, problems)


def manifest_outputs(rec):
    path = rec["out_dir"] / "manifest.json"
    return json.loads(path.read_text())["outputs"] if path.exists() else None


def compare_outputs(run, records, others, how):
    """Same argv and seed, so the output checksums must be identical."""
    for a, b in zip(records, others):
        if manifest_outputs(a) != manifest_outputs(b):
            run.fail(f"{run.name}/{a['inv'].name} {how}",
                     ["output checksums differ from the untraced run"])


def rerun_check(run, records):
    """Replay one manifest of the workload at another thread count."""
    for rec in records:
        inv = rec["inv"]
        if inv.rerun_threads is None or rec["rc"] != 0:
            continue
        run.attempted += 1
        cmd = [sys.executable, "-m", "lyapexp.cli", "rerun", "--manifest",
               str(rec["out_dir"] / "manifest.json"), "--threads",
               str(inv.rerun_threads)]
        rc, _, _ = run.process(cmd, f"rerun_{inv.name}")
        if rc != 0:
            run.fail(f"{run.name}/rerun {inv.name}",
                     [f"rerun --threads {inv.rerun_threads} exit code {rc}"])
        return


def load_spans(records):
    """Merge the spans of one iteration's processes, making ids unique."""
    merged, import_s = [], 0.0
    for k, rec in enumerate(records):
        doc = json.loads(Path(rec["spans"]).read_text())
        import_s += doc["import_s"]
        base = (k + 1) * 10 ** 9
        for sp in doc["spans"]:
            sp["id"] += base
            if sp["parent"] is not None:
                sp["parent"] += base
            sp["invocation"] = k
            merged.append(sp)
    return merged, import_s


def philox_draws_check(run, records, merged):
    """Each invocation's engine workers must draw one uniform per step.

    Draws outside ``mc.run_blocks`` workers (``highdim.validate_blocks``
    samples 1024 triples) are not engine steps and are not counted.
    """
    by_id = {sp["id"]: sp for sp in merged}
    for k, rec in enumerate(records):
        if rec["rc"] != 0:
            continue
        draws = sum(sp["attrs"]["draws"] for sp in merged
                    if sp["invocation"] == k and sp["name"] == "mc.philox"
                    and any(a["name"] == "mc.run_blocks.worker"
                            for a in spans.ancestors(sp, by_id)))
        if draws != rec["inv"].steps:
            run.fail(f"{run.name}/{rec['inv'].name} traced",
                     [f"engines drew {draws} uniforms, step formula gives "
                      f"{rec['inv'].steps}"])


def with_threads(inv, threads):
    """A copy of ``inv`` run at ``threads`` threads (if it takes the flag)."""
    argv = list(inv.argv)
    if "--threads" in argv:
        argv[argv.index("--threads") + 1] = str(threads)
    return dataclasses.replace(inv, argv=argv)


def measure(run, seconds, setup_reps=SETUP_REPS):
    """Untraced closed loop: the end-to-end metrics.

    Set-up rounds are spread evenly over the run instead of being taken
    in one burst: on a shared machine the start-up time of a fresh
    interpreter moves between levels every second or so, and a burst
    samples only one of them.
    """
    first = workloads.invocations(run.name, 0, run.scale)
    steps = sum(inv.steps for inv in first)
    setup_round(run, first, "warmup")  # byte-compiles the sources
    walls, setups = [], []

    def setup():
        setups.append(setup_round(run, first, f"setup{len(setups)}"))

    started = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - started < seconds:
        invs = workloads.invocations(run.name, run.cli_seed(), run.scale)
        wall, records = run_iteration(run, invs, f"it{k}")
        walls.append(wall)
        check_records(run, records)
        if k == 0:
            first_records = records
        k += 1
        elapsed = time.perf_counter() - started
        due = setup_reps * min(1.0, elapsed / seconds) if seconds else 0
        while len(setups) < due:
            setup()
    while len(setups) < setup_reps:
        setup()
    rerun_check(run, first_records)
    wall_s = statistics.median(walls)
    metrics = {"wall_s": wall_s, "steps_per_s": steps / wall_s,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": run.peak_rss_mb}
    notes = {"iterations": len(walls), "steps_per_iteration": steps,
             "setup_reps": setup_reps}
    return metrics, notes


def measure_traced(run, seconds):
    """Untraced/traced pairs on shared CLI seeds: the per-module metrics."""
    first = workloads.invocations(run.name, 0, run.scale)
    setup_round(run, first, "warmup")
    plain_walls, traced_walls, per_iter = [], [], []
    started = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - started < seconds:
        invs = workloads.invocations(run.name, run.cli_seed(), run.scale)
        wall, plain = run_iteration(run, invs, f"it{k}")
        plain_walls.append(wall)
        check_records(run, plain)
        wall, traced = run_iteration(run, invs, f"tr{k}", traced=True)
        traced_walls.append(wall)
        check_records(run, traced)
        merged, import_s = load_spans(traced)
        philox_draws_check(run, traced, merged)
        compare_outputs(run, plain, traced, "traced")
        per_iter.append(spans.layer_metrics(merged, import_s))
        if k == 0:
            first_records = plain
            t2_spans = merged
        k += 1
    rerun_check(run, first_records)
    metrics = {key: statistics.median(m[key] for m in per_iter)
               for key in spans.LAYER_UNITS}
    # each pair ran back to back, so their ratio cancels the host's speed
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced_walls, plain_walls)) - 1.0
    base = [r["inv"] for r in first_records]
    single = [with_threads(inv, 1) for inv in base]
    if any(a.argv != b.argv for a, b in zip(base, single)):
        # iteration 0 again at one thread: its outputs must not change
        _, recs = run_iteration(run, single, "t1", traced=True)
        check_records(run, recs)
        compare_outputs(run, first_records, recs, "traced at --threads 1")
        t1 = spans.layer_metrics(load_spans(recs)[0])["mc.run_blocks.wall_s"]
        t2 = spans.layer_metrics(t2_spans)["mc.run_blocks.wall_s"]
        metrics["mc.run_blocks.speedup_t2"] = t1 / t2 if t2 else 0.0
    notes = {"iterations": len(per_iter)}
    return metrics, notes


def sandbox():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def benchmark(name, seed, seconds, trace, root=ROOT, work=None, scale=1.0,
              setup_reps=SETUP_REPS):
    """Run one workload; return (result document, notes)."""
    work = work or root / ".bench_work" / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, work, name, seed, scale)
    if trace:
        metrics, notes = measure_traced(run, seconds)
        units = spans.LAYER_UNITS
    else:
        metrics, notes = measure(run, seconds, setup_reps)
        units = E2E_UNITS
    notes.update(workload=name, seed=seed, attempted=run.attempted,
                 failed=run.failed, problems=run.problems, **sandbox())
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    return result, notes


def missing_inputs(root, names):
    need = [root / "src" / "lyapexp" / "cli.py"]
    for name in names:
        need += [root / p for p in workloads.INPUTS[name]]
    return [str(p) for p in need if not p.is_file()]


def report(result, notes):
    print(f"workload {notes['workload']}  seed {notes['seed']}  "
          f"nproc {notes['nproc']}  python {notes['python']}  "
          f"numpy {notes['numpy']}  iterations {notes['iterations']}")
    if "steps_per_iteration" in notes:
        print(f"  steps per iteration {notes['steps_per_iteration']} "
              f"(exact, from the arguments); set-up median of "
              f"{notes['setup_reps']}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:<22.10g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':44s} {frac:<22.10g} 1 "
          f"({result['failed']} of {result['attempted']} invocations)")
    for p in notes["problems"]:
        print(f"  FAILED {p}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = sorted(workloads.BUILDERS) if args.workload == "all" \
        else [args.workload]
    missing = missing_inputs(ROOT, names)
    if missing:
        print("perfbench: not a lyapexp source checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    results = {}
    for name in names:
        result, notes = benchmark(name, args.seed, args.seconds, args.trace)
        report(result, notes)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
