"""Disordered one-dimensional Ising chains with interactions of range d.

A transfer-matrix step couples the spin window (sigma_t, ..., sigma_{t+d-1})
to the shifted window one site to the right, so the quenched free energy
per site f(T) = lim (1/N) log Tr(A_N ... A_1) is the top Lyapunov exponent
of a product of random 2^d x 2^d nonneg matrices.  Each matrix is a
perturbation of Diag(1, 0, ..., 0, Z) whose off-diagonal structure is set
by the bond weights eps_l = exp(-coupling_l / T); splitting off the
leading 1 turns it into exactly the block form handled by `highdim`,
which is how the estimators are reused here.

Spins live in {0, 1}; a bond of range l contributes when the two spins it
joins disagree, so each matrix entry is Z^{tau_1} times the product of
eps_l over the disagreeing ranges, subject to the window-shift constraint.
At d = 1 this is exactly the 2x2 model [[1, eps], [Z eps, Z]].

The per-site disorder enters through ``field_law``, the distribution of
the multiplier Z (that is, exp(-h/T) for a random field h).  Keeping the
law of Z itself -- rather than the law of h -- is what lets a d = 1 model
share one disorder stream with the scalar chain: it follows the scalar
chain's per-step path, and gives its estimates, bit for bit (see
:mod:`.highdim`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec
from .errors import InvalidParameter, InvalidSpec, KNotInA
from .fitting import power_design, wls_fit
from .highdim import (DIRECT, LyapunovEstimate, lyapunov_general,
                      scalar_driven)
from .mc import philox_generator

# largest range: its law builds in ~0.14 s; a step costs ~4x range 7's
MAX_RANGE = 8


@dataclass(frozen=True)
class IsingModel:
    """Range-d Ising chain at temperature T with random field multiplier.

    ``couplings`` are the bond strengths for ranges 1..d; nonnegative,
    with inf meaning a switched-off bond (eps_l = 0) and 0 a bond at full
    strength (eps_l = 1).  ``field_law`` is the law of Z.
    """

    interaction_range: int
    couplings: tuple
    temperature: float
    field_law: DistributionSpec

    def __post_init__(self):
        d = self.interaction_range
        if not 1 <= d <= MAX_RANGE:
            raise InvalidSpec(f"interaction range must lie in 1..{MAX_RANGE}")
        coup = tuple(float(a) for a in self.couplings)
        object.__setattr__(self, "couplings", coup)
        if len(coup) != d:
            raise InvalidSpec(f"need exactly {d} couplings, got {len(coup)}")
        if any(math.isnan(a) or a < 0 for a in coup):
            raise InvalidSpec("couplings must be nonnegative (inf allowed)")
        t = float(self.temperature)
        object.__setattr__(self, "temperature", t)
        if not (t > 0) or math.isinf(t):
            raise InvalidSpec("temperature must be a positive finite number")
        if not isinstance(self.field_law, DistributionSpec):
            raise InvalidSpec("field_law must be a DistributionSpec")

    @property
    def eps(self) -> tuple:
        """Bond weights eps_l = exp(-coupling_l / T), each in [0, 1]."""
        return tuple(math.exp(-a / self.temperature) for a in self.couplings)

    @property
    def dim(self) -> int:
        return 2 ** self.interaction_range


def structural_entries(model: IsingModel):
    """Positions and factors of the nonzero entries of one transfer step.

    Returns a list of (row, col, z_power, const): the entry at (row, col)
    equals Z^z_power * const, where const multiplies eps_l over the
    ranges l at which the two windows disagree.  Rows and columns index
    spin windows in lexicographic order, first spin most significant; an
    entry is structurally present iff the trailing d-1 spins of the row
    window equal the leading d-1 spins of the column window.
    """
    d = model.interaction_range
    eps = model.eps
    mask = 2 ** (d - 1) - 1
    entries = []
    for r in range(2 ** d):
        for c in (2 * (r & mask), 2 * (r & mask) + 1):
            const = 1.0
            for l in range(1, d + 1):
                if ((r >> (d - l)) & 1) != ((c >> (d - l)) & 1):
                    const *= eps[l - 1]
            entries.append((r, c, r >> (d - 1), const))
    return entries


def transfer_matrix(model: IsingModel, z: float) -> np.ndarray:
    """One 2^d x 2^d transfer step for a given disorder value z."""
    if not z > 0:
        raise InvalidSpec("disorder multiplier z must be positive")
    return transfer_matrices(model, z)


def transfer_matrices(model: IsingModel, zs) -> np.ndarray:
    """Stack of transfer steps for an array of disorder values."""
    zs = np.asarray(zs, dtype=float)
    out = np.zeros(zs.shape + (model.dim, model.dim))
    for r, c, zp, const in structural_entries(model):
        out[..., r, c] = const if zp == 0 else zs * const
    return out


def map_to_blocks(model: IsingModel):
    """Split the transfer matrix into the [[1, eps L'], [eps C, N]] form.

    Returns ``(law, eps)``: the law of the blocks (L, C, N), from
    :func:`.highdim.scalar_driven`, and the scale eps, the largest bond
    weight.  The single-site row and column of the matrix are divided by
    it once, z-independently, so that at d = 1 the blocks are exactly
    (1, Z, Z) -- the scalar model -- with no rounding (eps/eps is
    performed as one float division).
    """
    scale = max(model.eps)
    if not scale > 0:
        raise InvalidSpec("at least one coupling must be finite "
                          "(all bond weights are zero)")
    db = model.dim - 1
    l_vec = np.zeros(db)
    c_ratio = np.zeros(db)
    c_pow = np.zeros(db)
    n_const = np.zeros((db, db))
    n_pow = np.zeros((db, db))
    for r, c, zp, const in structural_entries(model):
        if r == 0 and c == 0:
            continue
        if r == 0:
            l_vec[c - 1] = const / scale
        elif c == 0:
            c_ratio[r - 1] = const / scale
            c_pow[r - 1] = zp
        else:
            n_const[r - 1, c - 1] = const
            n_pow[r - 1, c - 1] = zp
    return scalar_driven(l_vec, c_ratio, n_const, c_pow, n_pow,
                         model.field_law), scale


def free_energy(model: IsingModel, method: str = DIRECT,
                **size) -> LyapunovEstimate:
    """Free energy per site, as the growth rate of the transfer product.

    Computed by mapping to block form and running the requested Lyapunov
    estimator, sized by the keywords ``size`` of
    :func:`.highdim.lyapunov_general`; the returned value is the
    log-growth rate itself (the trace and any matrix norm give the same
    limit).
    """
    law, eps = map_to_blocks(model)
    return lyapunov_general(law, eps, method, **size)


def trace_growth(model: IsingModel, n: int, seed: int = 0) -> float:
    """(1/n) log Tr of an n-step transfer product, for cross-checking.

    Multiplies the sampled matrices directly, 4096 at a time, with
    periodic renormalisation -- the honest trace route, independent of
    the block estimators.
    """
    gen = philox_generator(seed, 0)
    draw = dist.sampler(model.field_law)
    p = np.eye(model.dim)
    logscale = 0.0
    done = 0
    while done < n:
        m = min(4096, n - done)
        mats = transfer_matrices(model, draw(gen.random(m)))
        for t in range(m):
            p = mats[t] @ p
            s = p.max()
            if s < 1e-100 or s > 1e100:
                p /= s
                logscale += math.log(s)
        done += m
    s = p.max()
    return (logscale + math.log(s) + math.log(np.trace(p / s))) / n


@dataclass(frozen=True)
class ScanReport:
    """Fit of the free energy against powers of the bond-weight scale."""

    order: int
    ray: tuple
    scales: tuple
    values: tuple
    stderrs: tuple
    powers: tuple
    coefficients: tuple
    coefficient_stderrs: tuple
    r2: float


def strong_coupling_scan(model: IsingModel, scales, order: int = 2,
                         ray=None, method: str = DIRECT,
                         **size) -> ScanReport:
    """Scan the free energy along a ray of bond weights eps_l = t * r_l.

    As t -> 0 every bond stiffens; the free energy then admits a power
    expansion in t whose coefficients are estimated here by a weighted
    fit of f against t^0..t^order, each point a :func:`free_energy` run
    sized by ``size``.  Requires E[Z^(order//2)] < 1 -- the moment
    condition under which the expansion to that order exists.
    """
    if order < 1:
        raise InvalidParameter(f"order must be >= 1, got {order}")
    k = order // 2
    if k >= 1 and dist.moment(model.field_law, k) >= 1:
        raise KNotInA(f"E[Z^{k}] >= 1: expansion to order {order} "
                      "is not available for this field law")
    eps_model = model.eps
    if ray is None:
        top = max(eps_model)
        if not top > 0:
            raise InvalidSpec("model has no finite coupling to set a ray")
        ray = tuple(e / top for e in eps_model)
    else:
        ray = tuple(float(r) for r in ray)
        if len(ray) != model.interaction_range:
            raise InvalidSpec("ray length must equal the interaction range")
        if any(r < 0 or r > 1 for r in ray) or max(ray) <= 0:
            raise InvalidSpec("ray entries must lie in [0, 1], not all zero")
    scales = tuple(float(t) for t in scales)
    if any(not 0 < t <= 1 for t in scales):
        raise InvalidSpec("scales must lie in (0, 1]")
    powers = tuple(range(order + 1))
    design = power_design(np.array(scales), powers)

    t_temp = model.temperature
    values, stderrs = [], []
    for t in scales:
        coup = tuple(math.inf if r == 0.0 else -t_temp * math.log(t * r)
                     for r in ray)
        model_t = IsingModel(model.interaction_range, coup, t_temp,
                             model.field_law)
        est = free_energy(model_t, method, **size)
        values.append(est.value)
        stderrs.append(est.stderr)

    fit = wls_fit(design, np.array(values), np.array(stderrs))
    return ScanReport(order=order, ray=ray, scales=scales,
                      values=tuple(values), stderrs=tuple(stderrs),
                      powers=powers, coefficients=fit.coefficients,
                      coefficient_stderrs=fit.stderrs, r2=fit.r2)
