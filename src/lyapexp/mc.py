"""Monte Carlo plumbing: counter-based RNG streams, compensated
accumulators, batch-means error bars, and the one chunk/block driver
every Lyapunov and chain engine runs on.

Reproducibility contract
------------------------
Every stochastic routine in the package is keyed by ``(seed, stream)``.
Streams are realised as Philox generators with ``key = seed * 2^64 + stream``,
so distinct streams are independent by construction and a (seed, stream)
pair always reproduces the same draws regardless of how many worker
threads consume them.  ``(seed, stream)`` keys numpy's Philox state
whether or not the library of :mod:`.kernels` loads: its C fill of
``random`` reads that state and writes it back, so a stream gives the
same numbers, and ends in the same state, as numpy's own
``Generator.random``.  Replicas are grouped into fixed-width blocks
(:data:`BLOCK_WIDTH` columns, block ``b`` drawing from stream ``b``) and
the time axis is processed in pieces of :data:`TIME_CHUNK` steps for
every engine; these constants are part of the layout, never derived from
the thread count, so results are bit-identical for any ``threads``
setting.

:func:`run_chunked` owns that layout.  An engine supplies only a kernel,
a generator that draws each piece in row slices and runs its recursion
on each; the driver keeps the slices past the burn-in, takes the logs of
their growth factors in place, folds them into one column sum per piece
and returns one mean per replica.  How a kernel slices a piece is its
own affair, within the cuts :func:`run_chunked` states: a stream gives
the same numbers however its draws are split (see
:data:`.highdim.DRAW_CELLS`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, TruncationOverflow

# Fixed layout constants.  Changing any changes the draws assigned to a
# replica, so they are deliberately module-level and not configurable.
BLOCK_WIDTH = 512
TIME_CHUNK = 2048

# Largest run :func:`check_run_size` admits.  They bound what a run
# schedules before it draws: :func:`run_chunked` lists one piece per
# TIME_CHUNK steps of a replica (64 MiB at MAX_STEPS), and
# :func:`replica_blocks` one block per BLOCK_WIDTH replicas.  A run past
# either would fail for lack of memory, or not end, rather than refuse.
MAX_STEPS = 1 << 31  # steps per replica, burn-in or discard included
MAX_REPLICAS = 1 << 24

# Batch count for batch-means standard errors.
N_BATCHES = 64

_MASK64 = (1 << 64) - 1


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for a (seed, stream) pair: numpy's, on a
    Philox bit generator, with the float64 ``random`` of
    :class:`.kernels.PhiloxGenerator`."""
    # kernels, and numpy.random with it, load with the first generator,
    # not at start-up
    from . import kernels

    key = ((int(seed) & _MASK64) << 64) | (int(stream) & _MASK64)
    return kernels.PhiloxGenerator(np.random.Philox(key=key))


def replica_blocks(n_replicas: int):
    """Partition replica indices into fixed-width contiguous blocks.

    Returns a list of ``(block_index, start, stop)`` triples.  Block
    ``b`` always draws from stream ``b``, independent of threading.
    """
    blocks = []
    b = 0
    for start in range(0, n_replicas, BLOCK_WIDTH):
        blocks.append((b, start, min(start + BLOCK_WIDTH, n_replicas)))
        b += 1
    return blocks


def run_blocks(worker, n_replicas: int, threads: int = 1):
    """Run ``worker(block_index, start, stop)`` over all replica blocks.

    Results come back in block order.  With ``threads > 1`` a thread
    pool's ``map`` runs the blocks, and returns results, or raises the
    first error, in that order; every block owns its generator and
    accumulators, so scheduling order cannot affect the result.
    """
    blocks = replica_blocks(n_replicas)
    if threads <= 1 or len(blocks) == 1:
        return [worker(*block) for block in blocks]
    # imported here, so that a run on one thread, the default, does not
    # pay for concurrent.futures (and logging) at start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, *zip(*blocks)))


class KahanSum:
    """Vector Kahan (compensated) accumulator.

    Chunk totals are added in a fixed order; the compensation term keeps
    the running sums accurate over ~1e9 additions, which matters when the
    accumulated quantity is O(eps^2) per step.
    """

    def __init__(self, n: int):
        self.total = np.zeros(n)
        self._comp = np.zeros(n)

    def add(self, values: np.ndarray) -> None:
        y = values - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


def batch_means(per_replica_means: np.ndarray, label: str):
    """Mean and batch-means standard error from per-replica averages.

    Replicas are grouped into ``min(N_BATCHES, R)`` contiguous batches
    (replicas are independent streams, so batches are independent).  The
    returned mean is the plain average over replicas; the standard error
    is ``std(batch means, ddof=1) / sqrt(#batches)``.  Every Monte Carlo
    statistic is formed here, so here a mean or error bar that is not
    finite is refused, with ``label`` naming the statistic and its eps.
    """
    r = np.asarray(per_replica_means, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two replica means for an error bar")
    nb = min(N_BATCHES, r.size)
    groups = np.array_split(r, nb)
    # a statistic that is not finite is refused below, without a warning
    with np.errstate(all="ignore"):
        bmeans = np.array([g.mean() for g in groups])
        mean = float(r.mean())
        stderr = float(bmeans.std(ddof=1) / np.sqrt(nb))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise TruncationOverflow(
            f"{label} is {mean} +- {stderr}, not finite (the recursion "
            "overflowed)")
    return mean, stderr


def check_run_size(n_steps: int, replicas: int, lead: int) -> None:
    """Reject run sizes no engine can give an error bar for, and runs
    past :data:`MAX_REPLICAS` or :data:`MAX_STEPS`."""
    if replicas < 2:
        raise InvalidParameter("need at least two replicas for error bars")
    if replicas > MAX_REPLICAS:
        raise InvalidParameter(f"{replicas} replicas exceed the limit of "
                               f"{MAX_REPLICAS}")
    if n_steps < replicas:
        raise InvalidParameter("n_steps must be at least the replica count")
    if lead < 0:
        raise InvalidParameter("burn-in and discard must be >= 0")
    check_steps(lead + kept_per_replica(n_steps, replicas))


def check_steps(steps: int) -> None:
    """Refuse a replica of more than :data:`MAX_STEPS` steps."""
    if steps > MAX_STEPS:
        raise InvalidParameter(
            f"{steps} steps per replica (burn-in or discard included) "
            f"exceed the limit of {MAX_STEPS}")


def finite_eps(eps) -> float:
    """|eps| as a float, which every engine runs on; a non-finite eps is
    refused."""
    eps = abs(float(eps))
    if not eps < math.inf:
        raise InvalidParameter(f"eps must be finite, got {eps}")
    return eps


def chain_eps(eps) -> float:
    """:func:`finite_eps` for the invariant chain, which steps with
    eps^2: an eps whose square overflows is refused too."""
    eps = finite_eps(eps)
    if eps * eps == math.inf:
        raise InvalidParameter(
            f"eps = {eps:g} squares to inf, so the invariant chain cannot "
            "run; the direct product can (--method direct)")
    return eps


def kept_per_replica(n_steps: int, replicas: int) -> int:
    """Retained rows per replica for a budget of ``n_steps`` in total."""
    return -(-n_steps // replicas)


def run_chunked(kernel, n_steps: int, replicas: int, lead: int, seed: int,
                threads: int = 1):
    """Run ``kernel`` over every replica block of the fixed layout.

    Each replica runs ``lead`` steps whose growth factors are dropped
    (burn-in or discard), then ``kept_per_replica(n_steps, replicas)``
    steps whose factors are kept.  ``kernel(gen, width, pieces)`` is a
    generator: ``pieces`` lists ``(span, keep0)`` for consecutive time
    pieces of at most :data:`TIME_CHUNK` steps, where rows ``keep0:``
    of a piece are those whose post-step index exceeds ``lead``.  The
    kernel draws each piece from ``gen`` in row slices, in order, runs
    its recursion on each and yields its ``(rows, width)`` growth
    factors.  A slice lies within one piece and is all burn-in or all
    kept: a kernel cuts each piece at ``keep0``.

    The driver takes the logs of a kept slice's factors in place, so a
    kernel must not read them again, and adds them to the piece's column
    sum; each piece's sum makes one :class:`KahanSum` addition.  It is
    done with a slice before it asks for the next, so a kernel may yield
    views of one buffer that it refills.  numpy sums a ``(rows, width)``
    array along axis 0 row by row when ``width >= 2``, so adding the
    running sum to a slice's first row before reducing it gives the same
    bits as one sum over the piece.  At ``width == 1`` it sums pairwise,
    so a one-wide block must yield a piece's kept rows in one slice.

    Returns the per-replica mean log growth, in replica order, and the
    kernels' own return values, in block order.
    """
    check_run_size(n_steps, replicas, lead)
    kept = kept_per_replica(n_steps, replicas)
    total = lead + kept
    pieces = [(min(TIME_CHUNK, total - c0), max(lead - c0, 0))
              for c0 in range(0, total, TIME_CHUNK)]

    def worker(block, start, stop):
        width = stop - start
        acc = KahanSum(width)
        steps = kernel(philox_generator(seed, block), width, pieces)
        for span, keep0 in pieces:
            a, col = 0, None
            while a < span:
                rows = next(steps)
                b = a + len(rows)
                if a < keep0 < b or b > span:
                    raise RuntimeError("kernel yielded a slice across the "
                                       "first kept row or a piece's end")
                if a >= keep0:
                    np.log(rows, out=rows)
                    if col is not None:
                        rows[0] += col
                    col = rows.sum(axis=0)
                a = b
            if col is not None:
                acc.add(col)
        try:
            next(steps)
        except StopIteration as end:
            return acc.total / kept, end.value
        raise RuntimeError("kernel yielded more slices than scheduled")

    results = run_blocks(worker, replicas, threads)
    return (np.concatenate([r[0] for r in results]),
            [r[1] for r in results])
