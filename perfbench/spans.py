"""In-memory span tracing of the lyapexp modules, from outside the program.

``install(tracer)`` wraps public calls at the names the calling modules
imported them under (``lyapexp.chain.philox_generator``,
``lyapexp.lyapunov.simulate_chain``, ...), so the program's own code is
unchanged.  Every span records its name, start, end, thread and parent.
The per-thread stack supplies the parent, except for ``mc.run_blocks``
workers on pool threads, which carry their ``mc.run_blocks`` span as an
explicit parent.  Spans stay in a list until the caller writes them out.

``layer_metrics(spans)`` turns the spans of one workload iteration into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

from workloads import kept_steps, run_steps


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, parent=None, **attrs):
        return _Span(self, name, parent, attrs)


class _Span:
    def __init__(self, tracer, name, parent, attrs):
        self.tracer = tracer
        self.record = {"id": next(tracer._ids), "name": name,
                       "parent": parent, "attrs": attrs}

    def __enter__(self):
        stack = self.tracer._stack()
        rec = self.record
        if rec["parent"] is None and stack:
            rec["parent"] = stack[-1]
        rec["thread"] = threading.get_ident()
        stack.append(rec["id"])
        rec["start"] = self.tracer._clock()
        return rec

    def __exit__(self, *exc):
        rec = self.record
        rec["end"] = self.tracer._clock()
        self.tracer._stack().pop()
        self.tracer.spans.append(rec)
        return False


# -- self time ----------------------------------------------------------------

def _covered(interval, children):
    """Length of the part of ``interval`` that the child intervals cover."""
    lo, hi = interval
    parts = sorted((max(lo, s), min(hi, e)) for s, e in children)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in parts:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover.

    Children on other threads may overlap each other; the covered time is
    the union of their intervals, so overlap is not subtracted twice.
    """
    children = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(
                (sp["start"], sp["end"]))
    return {sp["id"]: (sp["end"] - sp["start"])
            - _covered((sp["start"], sp["end"]), children.get(sp["id"], ()))
            for sp in spans}


# Thread-pool plumbing is charged to the engine that called it: an engine's
# self time includes its block workers' own time (summed over threads, so
# it is busy time) but not the layers they call (Philox, sampler, Kahan).
TRANSPARENT = ("mc.run_blocks", "mc.run_blocks.worker")


def attributed_self(spans):
    """Span id -> self time plus that of its transparent descendants."""
    by_id = {sp["id"]: sp for sp in spans}
    own = self_times(spans)
    out = dict(own)
    for sp in spans:
        if sp["name"] not in TRANSPARENT:
            continue
        up = by_id.get(sp["parent"])
        while up is not None and up["name"] in TRANSPARENT:
            up = by_id.get(up["parent"])
        if up is not None:
            out[up["id"]] += own[sp["id"]]
    return out


def ancestors(span, by_id):
    up = by_id.get(span["parent"])
    while up is not None:
        yield up
        up = by_id.get(up["parent"])


# -- patching -------------------------------------------------------------------

def _replace(orig, wrapper):
    """Rebind every lyapexp module-level name that refers to ``orig``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "lyapexp" or modname.startswith("lyapexp."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def _traced(tracer, name, fn, counts=None):
    """Wrap ``fn`` in a span; ``counts(bound_args)`` adds span attributes."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {}
        if counts is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = counts(bound.arguments)
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)
    return wrapper


class _TimedGenerator:
    """Philox generator whose ``random`` draws are spans."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        with self._tracer.span("mc.philox") as rec:
            out = self._gen.random(size, *args, **kwargs)
        rec["attrs"]["draws"] = int(getattr(out, "size", 1))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def install(tracer):
    """Patch the lyapexp modules (already imported) to record spans."""
    import lyapexp.analysis as analysis
    import lyapexp.chain as chain
    import lyapexp.cli as cli
    import lyapexp.coefficients as coefficients
    import lyapexp.distributions as dist
    import lyapexp.highdim as highdim
    import lyapexp.ising as ising
    import lyapexp.lyapunov as lyapunov
    import lyapexp.mc as mc

    def chain_counts(a):
        cfg = a["cfg"]
        return {"steps": run_steps(cfg.n_steps, cfg.replicas, cfg.burn_in),
                "kept": kept_steps(cfg.n_steps, cfg.replicas)}

    def direct_counts(a):
        return {"steps": run_steps(a["n_steps"], a["replicas"], a["discard"]),
                "kept": kept_steps(a["n_steps"], a["replicas"])}

    def general_counts(a):
        lead = a["discard"] if a["method"] == lyapunov.DIRECT \
            else a["burn_in"]
        return {"steps": run_steps(a["n_steps"], a["replicas"], lead)}

    plain = [
        (chain.simulate_chain, "chain.simulate_chain", chain_counts),
        (lyapunov.lyapunov_direct, "lyapunov.lyapunov_direct",
         direct_counts),
        (analysis.residual_series, "analysis.residual_series", None),
        (coefficients.ell_coefficients, "coefficients", None),
        (coefficients.regular_part, "coefficients", None),
        (highdim.lyapunov_general, "highdim.lyapunov_general",
         general_counts),
        (ising.map_to_blocks, "ising.map_to_blocks", None),
        (mc.batch_means, "mc.batch_means", None),
        (cli._csv, "cli.output", None),
        (cli._doc_json, "cli.output", None),
        (cli._dat, "cli.output", None),
        (cli._write_files, "cli.output", None),
        (cli._write_manifest, "cli.output", None),
        (cli._summary, "cli.output", None),
    ]
    for fn, name, counts in plain:
        _replace(fn, _traced(tracer, name, fn, counts))

    law_draws = highdim._chunk_blocks

    def chunk_blocks(law, eps, gen, span, width):
        with tracer.span("highdim.law", draws=span * width):
            return law_draws(law, eps, gen, span, width)
    _replace(law_draws, chunk_blocks)

    orig_add = mc.KahanSum.add

    def kahan_add(self, values):
        with tracer.span("mc.kahan"):
            return orig_add(self, values)
    mc.KahanSum.add = kahan_add

    orig_philox = mc.philox_generator

    def philox_generator(seed, stream=0):
        return _TimedGenerator(orig_philox(seed, stream), tracer)
    _replace(orig_philox, philox_generator)

    orig_sampler = dist.sampler

    def sampler(spec):
        draw = orig_sampler(spec)

        def timed_draw(u):
            with tracer.span("distributions.sampler",
                             draws=int(getattr(u, "size", 1))):
                return draw(u)
        return timed_draw
    _replace(orig_sampler, sampler)

    orig_run_blocks = mc.run_blocks

    def run_blocks(worker, n_replicas, threads=1):
        with tracer.span("mc.run_blocks", threads=threads) as rb:
            def traced_worker(b, start, stop):
                with tracer.span("mc.run_blocks.worker", parent=rb["id"]):
                    return worker(b, start, stop)
            return orig_run_blocks(traced_worker, n_replicas, threads)
    _replace(orig_run_blocks, run_blocks)

    orig_build = cli.build_parser

    def build_parser():
        with tracer.span("cli.parse"):
            parser = orig_build()
        orig_parse = parser.parse_args

        def parse_args(*args, **kwargs):
            with tracer.span("cli.parse"):
                return orig_parse(*args, **kwargs)
        parser.parse_args = parse_args
        return parser
    _replace(orig_build, build_parser)


# -- per-layer metrics -------------------------------------------------------------

# Name and unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "chain.simulate_chain.calls": "count",
    "chain.simulate_chain.steps": "count",
    "chain.simulate_chain.self_s": "s",
    "chain.simulate_chain.ns_per_step": "ns",
    "chain.kept_frac": "1",
    "lyapunov.lyapunov_direct.steps": "count",
    "lyapunov.lyapunov_direct.self_s": "s",
    "lyapunov.lyapunov_direct.ns_per_step": "ns",
    "lyapunov.kept_frac": "1",
    "distributions.sampler.draws": "count",
    "distributions.sampler.busy_s": "s",
    "distributions.sampler.ns_per_draw": "ns",
    "mc.philox.draws": "count",
    "mc.philox.busy_s": "s",
    "mc.philox.ns_per_draw": "ns",
    "mc.run_blocks.blocks": "count",
    "mc.run_blocks.busy_s": "s",
    "mc.run_blocks.wall_s": "s",
    "mc.run_blocks.concurrency": "1",
    "mc.run_blocks.speedup_t2": "1",
    "mc.kahan.busy_s": "s",
    "mc.batch_means.busy_s": "s",
    "analysis.residual_series.s": "s",
    "analysis.residual_series.steps_per_draw": "1",
    "coefficients.busy_s": "s",
    "highdim.lyapunov_general.calls": "count",
    "highdim.lyapunov_general.steps": "count",
    "highdim.lyapunov_general.self_s": "s",
    "highdim.lyapunov_general.ns_per_step": "ns",
    "highdim.law.draws": "count",
    "highdim.law.busy_s": "s",
    "ising.map_to_blocks.s": "s",
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.output_s": "s",
    "trace.overhead_frac": "1",
}


def _ratio(num, den, factor=1.0):
    return num / den * factor if den else 0.0


def layer_metrics(spans, import_s=0.0):
    """Per-layer metrics of one workload iteration (all its invocations).

    ``spans`` may hold the spans of several processes; span ids must be
    unique across them.  A layer the iteration never calls reads 0.
    ``mc.run_blocks.speedup_t2`` and ``trace.overhead_frac`` need a second
    run and are filled in by the caller.
    """
    by_id = {sp["id"]: sp for sp in spans}
    selfs = attributed_self(spans)

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def dur(name):
        return sum(sp["end"] - sp["start"] for sp in named(name))

    def total(name, key):
        return sum(sp["attrs"].get(key, 0) for sp in named(name))

    def self_s(name):
        return sum(selfs[sp["id"]] for sp in named(name))

    m = {}
    for engine in ("chain.simulate_chain", "lyapunov.lyapunov_direct",
                   "highdim.lyapunov_general"):
        steps = total(engine, "steps")
        m[f"{engine}.calls"] = len(named(engine))
        m[f"{engine}.steps"] = steps
        m[f"{engine}.self_s"] = self_s(engine)
        m[f"{engine}.ns_per_step"] = _ratio(self_s(engine), steps, 1e9)
    m["chain.kept_frac"] = _ratio(total("chain.simulate_chain", "kept"),
                                  m["chain.simulate_chain.steps"])
    m["lyapunov.kept_frac"] = _ratio(total("lyapunov.lyapunov_direct", "kept"),
                                     m["lyapunov.lyapunov_direct.steps"])
    for layer in ("distributions.sampler", "mc.philox"):
        draws = total(layer, "draws")
        m[f"{layer}.draws"] = draws
        m[f"{layer}.busy_s"] = dur(layer)
        m[f"{layer}.ns_per_draw"] = _ratio(dur(layer), draws, 1e9)
    m["mc.run_blocks.blocks"] = len(named("mc.run_blocks.worker"))
    m["mc.run_blocks.busy_s"] = dur("mc.run_blocks.worker")
    m["mc.run_blocks.wall_s"] = dur("mc.run_blocks")
    m["mc.run_blocks.concurrency"] = _ratio(dur("mc.run_blocks.worker"),
                                            dur("mc.run_blocks"))
    m["mc.run_blocks.speedup_t2"] = 0.0
    m["mc.kahan.busy_s"] = dur("mc.kahan")
    m["mc.batch_means.busy_s"] = dur("mc.batch_means")

    series = {sp["id"] for sp in named("analysis.residual_series")}

    def under_series(name, key):
        return sum(sp["attrs"].get(key, 0) for sp in named(name)
                   if any(a["id"] in series for a in ancestors(sp, by_id)))
    m["analysis.residual_series.s"] = dur("analysis.residual_series")
    m["analysis.residual_series.steps_per_draw"] = _ratio(
        under_series("chain.simulate_chain", "steps"),
        under_series("mc.philox", "draws"))
    m["coefficients.busy_s"] = dur("coefficients")
    m["highdim.law.draws"] = total("highdim.law", "draws")
    m["highdim.law.busy_s"] = dur("highdim.law")
    m["ising.map_to_blocks.s"] = dur("ising.map_to_blocks")
    m["cli.import_s"] = import_s
    m["cli.parse_s"] = dur("cli.parse")
    m["cli.output_s"] = dur("cli.output")
    m["trace.overhead_frac"] = 0.0
    return {k: m[k] for k in LAYER_UNITS}
