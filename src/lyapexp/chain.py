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
from .errors import InvalidParameter, TruncationOverflow
from .mc import (KahanSum, batch_means, chain_eps, check_run_size,
                 kept_per_replica, philox_generator, run_blocks, run_chunked)

# Moments with gamma above this cutoff are accumulated in log space
# (log-sum-exp) to avoid overflow of x**gamma at small eps.
LOG_SPACE_GAMMA = 4.0


@dataclass(frozen=True)
class ChainConfig:
    """Run layout for the invariant chain.

    ``n_steps`` is the total number of retained samples across all
    replicas; each replica runs ``burn_in`` discarded steps followed by
    ``ceil(n_steps / replicas)`` retained ones.
    """

    eps: float
    n_steps: int
    seed: int
    burn_in: int = 10_000
    replicas: int = 64
    threads: int = 1

    def __post_init__(self):
        if not 0 <= self.eps < math.inf:
            raise InvalidParameter("eps must be finite and nonnegative")
        chain_eps(self.eps)
        check_run_size(self.n_steps, self.replicas, self.burn_in)

    @property
    def kept_per_replica(self) -> int:
        return kept_per_replica(self.n_steps, self.replicas)


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
    eps = abs(float(cfg.eps))
    e2 = eps * eps
    kept = cfg.kept_per_replica
    log_space = [g > LOG_SPACE_GAMMA for g in gammas]

    def kernel(gen, width, pieces):
        moment_acc = [KahanSum(width) for _ in gammas]
        trunc_acc = [KahanSum(width) for _ in gammas]
        logsum = [np.full(width, -np.inf) for _ in gammas]
        trunc_logsum = [np.full(width, -np.inf) for _ in gammas]
        xmax = np.zeros(width)

        def fold(xk):
            # the post-step states of a piece's kept rows, whose growth
            # factors (the denominators) run_chunked folds slice by slice
            xk = xk[:, :, 0]
            np.maximum(xmax, xk.max(axis=0), out=xmax)
            wmask = e2 * xk <= b_cutoff
            for i, g in enumerate(gammas):
                if log_space[i]:
                    vals = g * np.log(xk)
                    logsum[i] = np.logaddexp(logsum[i], _logsumexp0(vals))
                    tvals = np.where(wmask, vals, -np.inf)
                    trunc_logsum[i] = np.logaddexp(trunc_logsum[i],
                                                   _logsumexp0(tvals))
                else:
                    vals = xk if g == 1.0 else xk ** g
                    moment_acc[i].add(vals.sum(axis=0))
                    trunc_acc[i].add(np.where(wmask, vals, 0.0).sum(axis=0))

        yield from highdim._block_kernel(law, eps, highdim.INVARIANT, gen,
                                         width, pieces,
                                         fold if gammas else None)
        out_m = []
        out_t = []
        for i in range(len(gammas)):
            if log_space[i]:
                out_m.append(np.exp(logsum[i] - math.log(kept)))
                out_t.append(np.exp(trunc_logsum[i] - math.log(kept)))
            else:
                out_m.append(moment_acc[i].total / kept)
                out_t.append(trunc_acc[i].total / kept)
        return out_m, out_t, xmax

    lyap_rep, results = run_chunked(kernel, cfg.n_steps, cfg.replicas,
                                    cfg.burn_in, cfg.seed, cfg.threads)

    moments, stderrs, truncs, tstderrs = [], [], [], []
    for i in range(len(gammas)):
        per_rep = np.concatenate([r[0][i] for r in results])
        m, se = batch_means(per_rep)
        moments.append(m)
        stderrs.append(se)
        per_rep_t = np.concatenate([r[1][i] for r in results])
        mt, set_ = batch_means(per_rep_t)
        truncs.append(mt)
        tstderrs.append(set_)
    lmean, lse = batch_means(lyap_rep)
    max_x = float(max(r[2].max() for r in results)) if gammas else math.nan

    return ChainStats(eps=eps, n_kept=kept * cfg.replicas,
                      moments=tuple(moments), moment_stderrs=tuple(stderrs),
                      trunc_moments=tuple(truncs),
                      trunc_stderrs=tuple(tstderrs), log1p_mean=lmean,
                      log1p_stderr=lse, max_x=max_x)


def _logsumexp0(vals: np.ndarray) -> np.ndarray:
    """log(sum(exp(vals), axis=0)) without scipy, safe against -inf rows."""
    top = vals.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(vals - top).sum(axis=0)) + top


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

