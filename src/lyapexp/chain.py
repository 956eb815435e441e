"""Simulation of the invariant-measure chain  x' = Z (1 + x) / (1 + eps^2 x).

The chain is the workhorse behind the invariant-formula Lyapunov
estimator and all moment studies: its stationary law is the fixed point
X_eps of the random map, E[log(1 + eps^2 X_eps)] is the top exponent,
and its moments E[X_eps^gamma] control the residual terms of the
small-eps expansion.

Numerical layout
----------------
``replicas`` independent chains run in parallel as numpy rows; replicas
are grouped into fixed 512-wide blocks, each owning its own Philox
stream (see :mod:`.mc`), and the time axis is processed in 2048-step
chunks, each drawn in slices of at most 1 MiB of uniforms.  One uniform
is consumed per step per replica, so runs with the same (seed, replicas)
see identical disorder regardless of eps, thread count, or which
statistics are requested -- the basis for the common-random-number
comparisons across an eps grid.

The step is evaluated as ``(z + z*x) / (1 + eps^2 * x)``: numerator and
denominator are kept monotone in x floating-point-wise, which makes the
pathwise domination results of :func:`.highdim.coupled_paths` hold
exactly in simulation.  This module has no loop of its own: the chain
is the vector chain of :func:`.highdim.from_scalar`,
``(L, C, N) = (1, Z, Z)``, whose pieces :func:`.highdim._block_kernel`
draws and steps, slice by slice, through the loops of :mod:`.kernels`
at d = 1, compiled or in numpy with bitwise equal results.
:func:`.mc.run_chunked` folds each slice's log growth as it is stepped,
and :func:`simulate_chain` folds its moments once per piece, over the
post-step states of the piece's kept rows, the only states it stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import highdim
from .errors import TruncationOverflow
from .mc import (KahanSum, batch_means, chain_eps, check_run_size,
                 kept_per_replica, philox_generator, run_blocks, run_chunked)

# Moments with gamma above this cutoff are accumulated in log space
# (log-sum-exp) to avoid overflow of x**gamma at small eps.
LOG_SPACE_GAMMA = 4.0


@dataclass(frozen=True)
class ChainConfig:
    """Run layout for the invariant chain.

    ``eps`` is held as |eps|, by :func:`.mc.chain_eps`: the chain depends
    on it only through eps^2.  ``n_steps`` is the total number of retained
    samples across all replicas; each replica runs ``burn_in`` discarded
    steps followed by ``ceil(n_steps / replicas)`` retained ones.
    """

    eps: float
    n_steps: int = 10 ** 6
    seed: int = 0
    burn_in: int = 10_000
    replicas: int = 64
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "eps", chain_eps(self.eps))
        check_run_size(self.n_steps, self.replicas, self.burn_in)


@dataclass(frozen=True)
class ChainStats:
    """Stationary statistics of one chain run.

    ``moments[i]`` estimates E[X^gamma] over retained samples for the
    i-th gamma passed to :func:`simulate_chain`,
    ``trunc_moments[i]`` the truncated version E[X^gamma; eps^2 X <= B]
    with B the ``b_cutoff`` passed to :func:`simulate_chain`.
    ``log1p_mean`` is the invariant-formula Lyapunov estimate
    E[log(1 + eps^2 X)].  All standard errors are batch means over 64
    replica groups.
    """

    eps: float
    n_kept: int
    moments: tuple
    moment_stderrs: tuple
    trunc_moments: tuple
    trunc_stderrs: tuple
    log1p_mean: float
    log1p_stderr: float
    max_x: float


def step(x, z, eps):
    """One move of the chain; accepts scalars or aligned arrays.

    Identical operation order to the simulation engine, so scalar
    re-checks of engine trajectories match bitwise.
    """
    e2 = eps * eps
    num = z * x
    num = z + num
    den = e2 * x
    den = 1.0 + den
    return num / den


def default_cutoff(spec: dist.DistributionSpec) -> float:
    """Truncation level B: twice the essential supremum of Z.

    Bounded disorder gives eps^2 X <= ||Z||_inf pathwise, so with this
    default the truncated and plain statistics coincide and the
    truncation only bites for laws where it is informative.
    """
    return 2.0 * float(spec.ess_sup())


def simulate_chain(spec: dist.DistributionSpec, cfg: ChainConfig,
                   gammas=(1.0, 2.0), b_cutoff=None) -> ChainStats:
    """Run the chain and collect stationary moment / Lyapunov statistics.

    The kernel passes :func:`.highdim._block_kernel`'s slices through to
    :func:`.mc.run_chunked`, which folds their growth factors.  The
    post-step states are stored and folded only when ``gammas`` is not
    empty, and only for the kept rows, once per piece, so a block's
    state buffer has as many rows as the most any piece keeps; with no
    gammas, no state buffer reaches the kernels and ``max_x`` is NaN.
    The Lyapunov statistics, which :func:`.lyapunov.lyapunov_invariant`
    reads, are the same bits either way.
    """
    gammas = tuple(float(g) for g in gammas)
    if b_cutoff is None:
        b_cutoff = default_cutoff(spec)
    b_cutoff = float(b_cutoff)
    law = highdim.from_scalar(spec)
    eps = cfg.eps
    e2 = eps * eps
    kept = kept_per_replica(cfg.n_steps, cfg.replicas)

    def kernel(gen, width, pieces):
        # per gamma one accumulator pair: the plain and the truncated
        # statistic, which sees its masked entries as the pair's zero
        accs = [[(_LogSum if g > LOG_SPACE_GAMMA else _Sum)(width)
                 for _ in range(2)] for g in gammas]
        xmax = np.zeros(width)

        def fold(xk):
            # the post-step states of a piece's kept rows, whose growth
            # factors (the denominators) run_chunked folds slice by slice
            xk = xk[:, :, 0]
            np.maximum(xmax, xk.max(axis=0), out=xmax)
            wmask = e2 * xk <= b_cutoff
            for g, (plain, trunc) in zip(gammas, accs):
                vals = g * np.log(xk) if g > LOG_SPACE_GAMMA \
                    else xk if g == 1.0 else xk ** g
                plain.fold(vals)
                trunc.fold(np.where(wmask, vals, plain.zero))

        yield from highdim._block_kernel(law, eps, highdim.INVARIANT, gen,
                                         width, pieces,
                                         fold if gammas else None)
        return [[acc.mean(kept) for acc in pair] for pair in accs], xmax

    lyap_rep, results = run_chunked(kernel, cfg.n_steps, cfg.replicas,
                                    cfg.burn_in, cfg.seed, cfg.threads)
    # per gamma, the (mean, stderr) of the plain and the truncated statistic
    plain, trunc = ([batch_means(np.concatenate([r[0][i][j] for r in results]),
                                 f"{kind}E[X^{g:g}] at eps {eps:g}")
                     for i, g in enumerate(gammas)]
                    for j, kind in enumerate(("", "truncated ")))
    lmean, lse = batch_means(lyap_rep, f"{highdim.INVARIANT} at eps {eps:g}")
    max_x = float(max(r[1].max() for r in results)) if gammas else math.nan
    return ChainStats(eps=eps, n_kept=kept * cfg.replicas,
                      moments=tuple(m for m, _ in plain),
                      moment_stderrs=tuple(se for _, se in plain),
                      trunc_moments=tuple(m for m, _ in trunc),
                      trunc_stderrs=tuple(se for _, se in trunc),
                      log1p_mean=lmean, log1p_stderr=lse, max_x=max_x)


class _Sum(KahanSum):
    """Column sums of x^gamma, one Kahan addition per piece."""

    zero = 0.0

    def fold(self, vals):
        self.add(vals.sum(axis=0))

    def mean(self, n):
        return self.total / n


class _LogSum:
    """:class:`_Sum` in log space, for gamma above LOG_SPACE_GAMMA: it
    folds gamma log x, adding each piece's column log-sum-exp, safe
    against -inf columns, to the running one."""

    zero = -np.inf

    def __init__(self, width):
        self.total = np.full(width, -np.inf)

    def fold(self, vals):
        top = vals.max(axis=0)
        top = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            piece = np.log(np.exp(vals - top).sum(axis=0)) + top
        self.total = np.logaddexp(self.total, piece)

    def mean(self, n):
        return np.exp(self.total - math.log(n))


# -- perpetuity sampler ----------------------------------------------------

def sample_x0(spec: dist.DistributionSpec, n: int, seed: int,
              max_terms: int = 100_000) -> np.ndarray:
    """Draw ``n`` samples of the perpetuity X_0 = sum_k Z_1 ... Z_k.

    Partial sums are accumulated until the running product stays below
    1e-12 times the partial sum for 50 consecutive terms; if a
    sample fails to converge within ``max_terms`` terms (drift E[log Z]
    at or above 0), TruncationOverflow is raised.
    """
    draw = dist.sampler(spec)

    def run_block(block_idx, start, stop):
        width = stop - start
        gen = philox_generator(seed, block_idx)
        prod = np.ones(width)
        total = np.zeros(width)
        consec = np.zeros(width, dtype=np.int64)
        for _ in range(max_terms):
            z = draw(gen.random(width))
            prod *= z
            total += prod
            small = prod < 1e-12 * total
            consec = np.where(small, consec + 1, 0)
            if consec.min() >= 50:
                return total
        raise TruncationOverflow(
            f"perpetuity did not converge within {max_terms} terms; "
            "E[log Z] may be too close to 0 for the requested tolerance")

    return np.concatenate(run_blocks(run_block, n))

