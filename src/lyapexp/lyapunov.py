"""Top Lyapunov exponent of products of  [[1, eps], [eps Z, Z]].

Two estimators are provided and cross-checked against each other
throughout the test-suite:

``direct_product``
    Iterate the vector (1, 1) through the random matrices, renormalising
    by the max-norm at every step and averaging the log of the
    normalisers (Furstenberg--Kesten).  Needs no assumption on the sign
    of E[log Z]; an initial stretch of increments is discarded so the
    direction can forget the start vector.

``invariant_formula``
    Average log(1 + eps^2 x_n) along the invariant chain of
    :mod:`.chain`; valid in the contracting regime E[log Z] < 0 where
    the chain equilibrates.

Both run on the block engine of :mod:`.highdim` at d = 1, with the law
``(L, C, N) = (1, Z, Z)`` of :func:`.highdim.from_scalar`, and step
through its one loop over time pieces, :func:`.highdim._block_kernel`:
the direct product through :func:`.highdim.lyapunov_general`, the
invariant formula through :func:`.chain.simulate_chain` with no moments,
so that no post-step state is stored or folded.  Their kernels read the
Philox uniforms and apply the quantile map of Z themselves.  Both
refuse a non-finite eps.  The method names and the result type
:class:`.highdim.LyapunovEstimate` are those of :mod:`.highdim`,
re-exported here, so that imports run one way.

Both estimates depend on eps only through |eps| (conjugating by
diag(-1, 1) flips the sign), so engines normalise the sign on entry and
runs at +/-eps are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import distributions as dist
from .chain import ChainConfig, simulate_chain
from .highdim import (DIRECT, INVARIANT, LyapunovEstimate, from_scalar,
                      lyapunov_general)


def lyapunov_invariant(spec: dist.DistributionSpec, eps: float,
                       **size) -> LyapunovEstimate:
    """E[log(1 + eps^2 X)] along the chain ``ChainConfig(eps, **size)``."""
    cfg = ChainConfig(eps=eps, **size)
    stats = simulate_chain(spec, cfg, gammas=())
    return LyapunovEstimate(eps=cfg.eps, method=INVARIANT,
                            value=stats.log1p_mean,
                            stderr=stats.log1p_stderr, n=stats.n_kept)


def lyapunov_direct(spec: dist.DistributionSpec, eps: float,
                    n_steps: int = 10 ** 6, seed: int = 0,
                    replicas: int = 64, discard: int = 1000,
                    threads: int = 1) -> LyapunovEstimate:
    """Renormalised vector iteration through the matrix product.

    ``n_steps`` counted log-increments are split across ``replicas``
    independent trajectories, each started from the vector (1, 1); each
    trajectory additionally runs ``discard`` initial steps whose
    increments are not averaged (the direction of the iterated vector
    forgets its start at a rate set by the gap between the two
    exponents, so the default is generous).
    """
    return lyapunov_general(from_scalar(spec), eps, DIRECT, n_steps=n_steps,
                            seed=seed, replicas=replicas, discard=discard,
                            threads=threads)


def estimate(spec: dist.DistributionSpec, eps: float, method: str = DIRECT,
             **kwargs) -> LyapunovEstimate:
    """Either estimator, sized by ``kwargs`` as that method names its
    run size.  Each reads its own unaveraged lead, ``discard`` for the
    direct one and ``burn_in`` for the invariant one, and drops the
    other's, so one set of sizes serves both, as for
    :func:`.highdim.lyapunov_general`."""
    if method == DIRECT:
        kwargs.pop("burn_in", None)
        return lyapunov_direct(spec, eps, **kwargs)
    if method == INVARIANT:
        kwargs.pop("discard", None)
        return lyapunov_invariant(spec, eps, **kwargs)
    raise ValueError(f"unknown method {method!r}")


# -- exact special cases -----------------------------------------------------

def deterministic_exponent(z: float, eps: float) -> float:
    """log of the Perron eigenvalue of [[1, eps], [eps z, z]] (Z == z)."""
    z = float(z)
    e2 = float(eps) * float(eps)
    disc = math.sqrt((1.0 - z) ** 2 + 4.0 * e2 * z)
    return math.log(0.5 * ((1.0 + z) + disc))


def decoupled_exponent(spec: dist.DistributionSpec) -> float:
    """Exact exponent at eps = 1: E[log(1 + Z)] (finite sum for atoms)."""
    if spec.is_discrete:
        return math.fsum(float(w) * math.log(1.0 + float(a))
                         for a, w in zip(spec.atoms, spec.weights))
    raise ValueError("closed form available for discrete laws only")


# -- inversion symmetry ------------------------------------------------------

@dataclass(frozen=True)
class FactorizationReport:
    """Check of the exact identity  Lam_Z(eps) = E[log Z] + Lam_{1/Z}(eps).

    Both sides are estimated with the direct method on common random
    numbers (the reciprocal law consumes the same uniforms, so its
    matrices are the inverses' conjugates pathwise); ``gap`` should
    vanish within ``4 * gap_stderr``.
    """

    eps: float
    lam: LyapunovEstimate
    lam_reciprocal: LyapunovEstimate
    log_moment: float
    gap: float
    gap_stderr: float

    @property
    def ok(self) -> bool:
        return abs(self.gap) <= 4.0 * self.gap_stderr


def factorization_check(spec: dist.DistributionSpec, eps: float,
                        **size) -> FactorizationReport:
    """Both sides by :func:`lyapunov_direct`, each sized by ``size``."""
    lam = lyapunov_direct(spec, eps, **size)
    lam_r = lyapunov_direct(dist.reciprocal(spec), eps, **size)
    elog = dist.log_moment(spec)
    gap = lam.value - (elog + lam_r.value)
    gap_stderr = math.hypot(lam.stderr, lam_r.stderr)
    return FactorizationReport(eps=lam.eps, lam=lam, lam_reciprocal=lam_r,
                               log_moment=elog, gap=gap, gap_stderr=gap_stderr)
