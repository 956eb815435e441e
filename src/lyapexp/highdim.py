"""Block generalisation: products of (d+1) x (d+1) matrices

    M_eps = [[1,       eps * L^T],
             [eps * C,  N       ]]

with random nonnegative blocks (L, C, N).  The invariant vector chain is
x' = (C + N x) / (1 + eps^2 L.x), the exponent is
E[log(1 + eps^2 L.X_eps)], and the role of the moment conditions
E[Z^l] != 1 is taken by the invertibility of I - G^(l), where G^(l) acts
on the multi-index moments of order l.

A block law is data in one of two forms, which are also the two forms
of block piece the kernels take (see :mod:`.kernels`): a finite law's
atom tables, one picked per step by a uniform against the law's
thresholds, or a scalar-driven law's one-row tables and 0/1 masks,
whose masked C and N entries are multiplied by one Z per step, an
affine map of a uniform.  Each law builds its quantile map once, on
first use, and the kernels apply it as they step.  Every law driven by
one Z comes from :func:`scalar_driven`, a discrete Z as atom tables.
Either way G^(l) is exact.

Everything here reduces to the scalar theory at d = 1 with
(L, C, N) = (1, Z, Z), and the scalar engines are these engines at
d = 1, on the law :func:`from_scalar` gives.  Their pieces run the
kernels' loops compiled for d = 1, of either form (the loops are also
compiled for d = 2 and 3); embedded in d = 4 with coordinates that
stay zero, the same law runs the general loop, which serves every
d >= 4, to the same bits.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import distributions as dist
from .distributions import as_fraction
from .errors import InvalidParameter, InvalidSpec, KNotInA, SingularSystem
from .fitting import power_design, wls_fit
from .mc import (batch_means, chain_eps, check_steps, finite_eps,
                 kept_per_replica, philox_generator, run_chunked)

COND_LIMIT = 1e12

# Most cells stepped at once: a time piece is drawn and stepped in row
# slices of at most this many cells (1 MiB of float64), and a block's
# uniforms and growth factors are each one slice, so a wide block never
# holds a whole piece of either.  A Philox stream gives the same numbers
# however its draws are split, and run_chunked folds the slices to the
# same bits, so this is no layout constant: every result is the same at
# any value >= TIME_CHUNK.  That bound lets a block one replica wide
# step a piece's kept rows in one slice, as run_chunked needs.  A block
# 64 wide or narrower draws each TIME_CHUNK piece at once.
DRAW_CELLS = 1 << 17

DIRECT = "direct_product"
INVARIANT = "invariant_formula"


@dataclass(frozen=True)
class LyapunovEstimate:
    eps: float
    method: str
    value: float
    stderr: float
    n: int


# -- block laws --------------------------------------------------------------

@dataclass(frozen=True)
class FiniteBlockLaw:
    """Finitely supported law of the block triple (L, C, N).

    ``ls``/``cs`` have shape (m, d), ``ns`` shape (m, d, d); atom k is
    drawn with probability ``weights[k]``.  Exact rational copies of the
    N blocks and weights are kept so that the limit moments E[N^omega]
    can be computed in exact arithmetic.
    """

    d: int
    weights: tuple
    ls: np.ndarray
    cs: np.ndarray
    ns: np.ndarray
    ns_exact: tuple

    @functools.cached_property
    def quantile(self) -> np.ndarray:
        """The kernels' map from a uniform to an atom: the thresholds of
        :func:`.distributions.atom_thresholds`."""
        return dist.atom_thresholds(self.weights)

    def moment(self, omega) -> Fraction:
        """E[N^omega], exactly."""
        total = Fraction(0)
        for w, nmat in zip(self.weights, self.ns_exact):
            term = w
            for i, row in enumerate(omega):
                for j, p in enumerate(row):
                    if p:
                        term *= nmat[i][j] ** p
            total += term
        return total


def finite_block_law(triples, weights) -> FiniteBlockLaw:
    """Build a finite block law from (L, C, N) triples.

    Entries may be Fractions, "p/q" strings, ints or floats; all blocks
    must be nonnegative and share one dimension d.
    """
    if not triples or len(triples) != len(weights):
        raise InvalidSpec("need matching non-empty triples and weights")
    w = tuple(as_fraction(x) for x in weights)
    if any(x <= 0 for x in w) or sum(w, Fraction(0)) != 1:
        raise InvalidSpec("weights must be positive and sum to 1 exactly")
    ls, cs, ns, ns_exact = [], [], [], []
    d = None
    for L, C, N in triples:
        lrow = [as_fraction(v) for v in L]
        crow = [as_fraction(v) for v in C]
        nmat = [[as_fraction(v) for v in row] for row in N]
        if d is None:
            d = len(lrow)
            if d < 1:
                raise InvalidSpec("dimension d must be >= 1")
        if len(lrow) != d or len(crow) != d or len(nmat) != d \
                or any(len(r) != d for r in nmat):
            raise InvalidSpec("all blocks must share one dimension d")
        if any(v < 0 for v in lrow + crow) \
                or any(v < 0 for row in nmat for v in row):
            raise InvalidSpec("block entries must be nonnegative")
        ls.append([float(v) for v in lrow])
        cs.append([float(v) for v in crow])
        ns.append([[float(v) for v in row] for row in nmat])
        ns_exact.append(tuple(tuple(row) for row in nmat))
    return FiniteBlockLaw(d=d, weights=w, ls=np.array(ls), cs=np.array(cs),
                          ns=np.array(ns), ns_exact=tuple(ns_exact))


@dataclass(frozen=True)
class ScalarBlockLaw:
    """Block law driven by one positive scalar Z per step:
    (L, C, N) = (L0, C0 * Z^cpow, N0 * Z^npow), entrywise.

    ``ls`` (1, d), ``cs`` (1, d) and ``ns`` (1, d, d) hold L0, C0 and N0;
    the 0/1 masks ``cpow`` (d,) and ``npow`` (d, d) mark the entries
    that Z multiplies, and ``spec`` is the law of Z.  Every moment is a
    constant times a moment of Z.
    """

    d: int
    spec: dist.DistributionSpec
    ls: np.ndarray
    cs: np.ndarray
    ns: np.ndarray
    cpow: np.ndarray
    npow: np.ndarray

    @functools.cached_property
    def quantile(self):
        """The kernels' map from a uniform to Z, as ``(pre, q)``: the
        numpy part of :func:`.distributions.affine_quantile`, None when
        there is none, and its affine part (a, s) as an array."""
        pre, affine = dist.affine_quantile(self.spec)
        return pre, np.array(affine)

    def moment(self, omega):
        """E[N^omega] = N0^omega E[Z^k], k the powers omega puts on masked
        entries: a Fraction when E[Z^k] is exact, else a float."""
        const, k = Fraction(1), 0
        for i, row in enumerate(omega):
            for j, p in enumerate(row):
                if p:
                    const *= Fraction(float(self.ns[0, i, j])) ** p
                    k += p * int(self.npow[i, j])
        return const * dist.moment(self.spec, k)


def scalar_driven(ls, cs, ns, cpow, npow, spec: dist.DistributionSpec):
    """Law of (L0, C0 * Z^cpow, N0 * Z^npow) for Z of law ``spec``, from
    the tables and masks of ScalarBlockLaw less its leading axis.  A
    discrete Z gives a finite law, one atom per value of Z in the
    sampler's order, with exact N tables Fraction(N0) * Z^npow (the rule
    of :meth:`ScalarBlockLaw.moment`); any other Z a ScalarBlockLaw."""
    if not spec.is_discrete:
        return ScalarBlockLaw(d=len(ls), spec=spec, ls=ls[None],
                              cs=cs[None], ns=ns[None], cpow=cpow,
                              npow=npow)
    z = np.array([float(a) for a in spec.atoms])
    n0 = [[Fraction(v) for v in row] for row in ns.tolist()]
    # every mask entry is 0 or 1, and z**0 = 1, z**1 = z exactly
    return FiniteBlockLaw(
        d=len(ls), weights=spec.weights, ls=np.tile(ls, (len(z), 1)),
        cs=cs * np.where(cpow == 1, z[:, None], 1.0),
        ns=ns * np.where(npow == 1, z[:, None, None], 1.0),
        ns_exact=tuple(tuple(tuple(v * a if p else v
                                   for v, p in zip(row, prow))
                             for row, prow in zip(n0, npow.tolist()))
                       for a in spec.atoms))


def from_scalar(spec: dist.DistributionSpec):
    """d = 1 embedding (L, C, N) = (1, Z, Z) of a scalar disorder law, a
    discrete Z as atom tables: the law the scalar engines run."""
    return scalar_driven(np.ones(1), np.ones(1), np.ones((1, 1)),
                         np.ones(1), np.ones((1, 1)), spec)


# -- multi-index machinery ----------------------------------------------------

def multi_indices(d: int, l: int):
    """All d-part compositions of l, in descending lexicographic order."""
    return list(_bounded_compositions(l, (l,) * d))


def count_multi_indices(d: int, l: int) -> int:
    return math.comb(l + d - 1, d - 1)


def _contingency_tables(row_sums, col_sums):
    """Nonnegative integer matrices with the given row and column sums."""
    d = len(col_sums)

    def fill(i, cols_left, rows):
        if i == len(row_sums):
            if all(c == 0 for c in cols_left):
                yield tuple(rows)
            return
        for row in _bounded_compositions(row_sums[i], cols_left):
            yield from fill(i + 1,
                            tuple(c - r for c, r in zip(cols_left, row)),
                            rows + [row])

    yield from fill(0, tuple(col_sums), [])


def _bounded_compositions(total, bounds):
    """Compositions of ``total`` into len(bounds) parts, part j <= bounds[j]."""
    d = len(bounds)

    def rec(j, left):
        if j == d - 1:
            if left <= bounds[j]:
                yield (left,)
            return
        for v in range(min(left, bounds[j]), -1, -1):
            for rest in rec(j + 1, left - v):
                yield (v,) + rest

    yield from rec(0, total)


@dataclass(frozen=True)
class GMatrix:
    """Moment-transfer matrix G^(l) on multi-indices of norm l.

    entry(lam, lam') = sum over contingency tables omega with row sums
    lam and column sums lam' of the multinomial weight
    prod_i lam_i! / prod_ij omega_ij! times E[N^omega], with
    N^omega = prod N_ij^omega_ij.  It is the matrix of the transfer
    E[(N x)^lam] = sum_lam' G[lam, lam'] x^lam' for every fixed x, so a
    single atom's G^(l) is the l-th symmetric power of N.  Every weight
    is 1 at l = 1 and at d = 1.  ``exact`` holds the same entries as
    Fractions when every moment the law gives is exact.
    """

    indices: tuple
    matrix: np.ndarray
    condition: float
    exact: tuple | None = None


def g_matrix(law, l: int) -> GMatrix:
    """Compute G^(l) from the law's exact moments E[N^omega], each
    weighted by the multinomial factor of :class:`GMatrix`.

    Raises SingularSystem when I - G^(l) has 2-norm condition number
    above 1e12, which is the block analogue of E[Z^l] == 1.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    idx = tuple(multi_indices(law.d, l))

    def weight(lam, omega):
        # an integer: a product of one multinomial coefficient per row
        return math.prod(map(math.factorial, lam)) // math.prod(
            math.factorial(p) for row in omega for p in row)

    # equal norms: at least one table exists
    ex = [[sum((weight(lam, omega) * law.moment(omega)
                for omega in _contingency_tables(lam, lam2)), Fraction(0))
           for lam2 in idx] for lam in idx]
    mat = np.array([[float(v) for v in row] for row in ex])
    exact = tuple(tuple(row) for row in ex) \
        if all(isinstance(v, Fraction) for row in ex for v in row) else None
    condition = float(np.linalg.cond(np.eye(len(idx)) - mat))
    if not np.isfinite(condition) or condition > COND_LIMIT:
        raise SingularSystem(
            f"I - G^({l}) is numerically singular (cond ~ {condition:.3g})")
    return GMatrix(indices=idx, matrix=mat, condition=condition, exact=exact)


# -- vector chain -------------------------------------------------------------

def vector_chain_step(x, L, C, N, eps):
    """One move of the vector chain x' = (C + N x) / (1 + eps^2 L.x) from
    a state (d,) or a batch (width, d) with matching leading dimensions
    on the blocks."""
    from . import kernels  # loaded by the first run, not at start-up

    x = np.array(x, dtype=float)
    width, d = np.atleast_2d(x).shape
    tables = [np.ascontiguousarray(b, dtype=float).reshape(shape)
              for b, shape in ((L, (width, d)), (C, (width, d)),
                               (N, (width, d, d)))]
    # row j of the tables is the one picked by u = j against the
    # thresholds 1, ..., width - 1
    rows = np.arange(width, dtype=float)
    kernels.block_chain_steps(*tables, rows[None], rows[1:], None, None,
                              x.reshape(width, d), np.empty((1, width)),
                              float(eps) * float(eps))
    return x


def _chunk_blocks(law, eps, gen, span, width):
    """Draw one time piece as the kernels' ``(ls, cs, ns, u, q, cpow,
    npow)``: the law's tables, (span, width) uniforms, one per cell, and
    its quantile map, built once per law: a finite law's thresholds, or
    a scalar-driven law's affine map of Z and masks.  A law of Z whose
    map is not affine has the rest of it applied here, in numpy.

    ``eps`` is unused; ``perfbench/spans.py`` wraps this function by its
    signature."""
    u = gen.random((span, width))
    if isinstance(law, FiniteBlockLaw):
        return law.ls, law.cs, law.ns, u, law.quantile, None, None
    pre, q = law.quantile
    return (law.ls, law.cs, law.ns, u if pre is None else pre(u), q,
            law.cpow, law.npow)


def lyapunov_general(law, eps: float, method: str = DIRECT,
                     n_steps: int = 10 ** 6, seed: int = 0,
                     burn_in: int = 10_000, replicas: int = 64,
                     discard: int = 1000,
                     threads: int = 1) -> LyapunovEstimate:
    """Top exponent of the block product, by either estimator.

    ``direct_product`` renormalises a positive (d+1)-vector through the
    full matrices; ``invariant_formula`` runs the vector chain and
    averages log(1 + eps^2 L.x).  Layout, burn-in/discard conventions
    and error bars mirror the scalar estimators exactly.
    """
    leads = {DIRECT: discard, INVARIANT: burn_in}
    if method not in leads:
        raise ValueError(f"unknown method {method!r}")
    eps = chain_eps(eps) if method == INVARIANT else finite_eps(eps)
    per_replica, _ = run_chunked(
        functools.partial(_block_kernel, law, eps, method),
        n_steps, replicas, leads[method], seed, threads)
    value, stderr = batch_means(per_replica, f"{method} at eps {eps:g}")
    return LyapunovEstimate(eps=eps, method=method, value=value,
                            stderr=stderr,
                            n=kept_per_replica(n_steps, replicas) * replicas)


def _block_kernel(law, eps, method, gen, width, pieces, fold=None):
    """Block recursion by either estimator, a kernel of
    :func:`.mc.run_chunked`; yields each slice's growth factors.  The
    one loop that draws pieces and steps them through the kernels, in
    slices of at most :data:`DRAW_CELLS` cells cut at each piece's
    ``keep0``.  Given ``fold``, it stores the post-step states of each
    piece's kept rows, row ``keep0`` of the piece in row 0 of a
    (rows, width, d) buffer, and calls ``fold`` on them once the piece
    is stepped; burn-in rows store none."""
    from . import kernels  # loaded by the first run, not at start-up

    if method == INVARIANT:
        step, scale = kernels.block_chain_steps, eps * eps
        state = (np.zeros((width, law.d)),)
    else:
        step, scale = kernels.block_direct_steps, eps
        state = (np.ones(width), np.ones((width, law.d)))
    rows = max(1, DRAW_CELLS // width)
    # one buffer per block, one slice high: run_chunked folds a slice
    # before the next is stepped; a row the step never writes stays NaN
    buf = np.full((min(rows, pieces[0][0]), width), np.nan)
    if fold is not None:
        xbuf = np.full((max(span - keep0 for span, keep0 in pieces), width,
                        law.d), np.nan)
    for span, keep0 in pieces:
        # a slice is all burn-in or all kept, so it stores states for
        # all its rows or none
        cuts = sorted({*range(0, span, rows), min(keep0, span), span})
        for a, b in zip(cuts, cuts[1:]):
            xrows = () if fold is None or a < keep0 \
                else (xbuf[a - keep0:b - keep0],)
            # no name holds a slice's uniforms, so they are freed before
            # the next slice is drawn: less memory, and fewer page faults
            # than keeping the old slice alive while the new one is drawn
            step(*_chunk_blocks(law, eps, gen, b - a, width), *state,
                 buf[:b - a], scale, *xrows)
            yield buf[:b - a]
        if fold is not None and keep0 < span:
            fold(xbuf[:span - keep0])


def coupled_paths(law, epss, n: int, seed: int):
    """Vector chains driven by the same blocks, one per eps in ``epss``.

    Returns the post-step trajectories, each of shape (n, d), every one
    drawn afresh from stream 0 of ``seed``.  At eps = 0 a path follows
    the undamped recursion y' = C + N y, whose time-n value matches the
    n-term partial sum of the matrix perpetuity in law, and dominates
    the path at any other eps coordinatewise.  The scalar chain's paths
    are those of :func:`from_scalar`; there a smaller eps gives a path
    that dominates that of a larger one.  A path needs n >= 1 steps,
    and at most :data:`.mc.MAX_STEPS`.  Each path is one piece of one
    replica, stepped in slices whose growth factors are dropped.
    """
    if n < 1:
        raise InvalidParameter(
            f"coupled paths need at least one step, got {n}")
    check_steps(n)
    paths = []
    for eps in [chain_eps(eps) for eps in epss]:
        # drain the slices, holding none: the last would keep its buffer
        # alive while the next path is stepped
        collections.deque(_block_kernel(
            law, eps, INVARIANT, philox_generator(seed, 0), 1, [(n, 0)],
            lambda x: paths.append(x[:, 0])), maxlen=0)
    return tuple(paths)


# -- expansion extraction ------------------------------------------------------

@dataclass(frozen=True)
class ExpansionFit:
    """Least-squares coefficients of Lambda(eps) ~ sum q_k eps^k, k = 2..2K."""

    order: int
    powers: tuple
    coefficients: tuple
    stderrs: tuple
    r2: float
    estimates: tuple
    conditions: dict


def extract_expansion(law, order: int, eps_grid, method: str = INVARIANT,
                      **size) -> ExpansionFit:
    """Fit the regular expansion of the block exponent on an eps grid.

    Takes every grid point to |eps| (refusing a non-finite one, and for
    the invariant method one whose square overflows), builds the design
    (refusing a grid with fewer distinct points than coefficients) and
    checks, for l <= order, that I - G^(l) is invertible and that
    rho(G^(l)) < 1 (the existence condition for the expansion, the block
    analogue of E[Z^l] < 1) first.  Then it estimates the exponent at
    every grid point with common random numbers, each a
    :func:`lyapunov_general` run sized by ``size``, and solves for the
    monomial coefficients eps^2 .. eps^(2K) by weighted least squares.
    """
    if order < 0:
        raise InvalidParameter(f"order must be >= 0, got {order}")
    if order == 0:
        return ExpansionFit(order=0, powers=(), coefficients=(), stderrs=(),
                            r2=math.nan, estimates=(), conditions={})
    valid = chain_eps if method == INVARIANT else finite_eps
    eps_grid = tuple(valid(e) for e in eps_grid)
    powers = tuple(range(2, 2 * order + 1))
    design = power_design(np.array(eps_grid), powers)
    conditions = {}
    for l in range(1, order + 1):
        g = g_matrix(law, l)
        rho = float(np.abs(np.linalg.eigvals(g.matrix)).max())
        if rho >= 1:
            raise KNotInA(f"rho(G^({l})) = {rho:.4g} >= 1: order {order} "
                          "is outside the admissible moment interval")
        conditions[l] = g.condition

    estimates = tuple(lyapunov_general(law, eps, method, **size)
                      for eps in eps_grid)
    fit = wls_fit(design, np.array([e.value for e in estimates]),
                  np.array([e.stderr for e in estimates]))
    return ExpansionFit(order=order, powers=powers,
                        coefficients=fit.coefficients, stderrs=fit.stderrs,
                        r2=fit.r2, estimates=estimates,
                        conditions=conditions)


# -- empirical assumption checks ------------------------------------------------

@dataclass(frozen=True)
class BlockReport:
    """Check of the block assumptions on the atoms or a sample of triples."""

    nonnegative: bool
    coupling_nonzero: bool
    feed_nonzero: bool
    irreducible: bool
    primitive: bool

    @property
    def passes(self) -> bool:
        return (self.nonnegative and self.coupling_nonzero
                and self.feed_nonzero and self.primitive)


def validate_blocks(law) -> BlockReport:
    """Test nonnegativity and a primitivity witness on the triples.

    The law's tables are checked: a finite law's atoms, every one of
    positive weight, or a scalar-driven law's one row, whose zero
    entries stay zero and positive ones positive since Z > 0.  The
    witness checks that the union support S of the N blocks is strongly
    connected ((I + S)^d fully positive) and that some power S^k, k up
    to the Wielandt bound, is fully positive.
    """
    d = law.d
    ls, cs, ns = law.ls, law.cs, law.ns
    nonneg = bool((ls >= 0).all() and (cs >= 0).all() and (ns >= 0).all())
    support = (ns > 0).any(axis=0)
    adj = support.astype(np.int64)
    reach = np.eye(d, dtype=np.int64) + adj
    power = reach.copy()
    for _ in range(d - 1):
        power = np.minimum(power @ reach, 1)
    irreducible = bool((power > 0).all())
    sk = adj.copy()
    primitive = bool((sk > 0).all())
    for _ in range((d - 1) ** 2 + 1):
        if primitive:
            break
        sk = np.minimum(sk @ adj, 1)
        primitive = bool((sk > 0).all())
    return BlockReport(nonnegative=nonneg,
                       coupling_nonzero=bool((ls > 0).any()),
                       feed_nonzero=bool((cs > 0).any()),
                       irreducible=irreducible, primitive=primitive)


# -- JSON interchange -----------------------------------------------------------

def blocks_from_dict(data: dict) -> FiniteBlockLaw:
    """Parse {"d": ..., "triples": [{"weight","L","C","N"}, ...]}: L and
    C lists, N a list of lists, d (if given) an integer."""
    if not isinstance(data, dict) or "triples" not in data:
        raise InvalidSpec("block JSON must be an object with a 'triples' list")
    entries = data["triples"]
    if not isinstance(entries, list) or not entries:
        raise InvalidSpec("'triples' must be a non-empty list")
    try:
        triples = [(e["L"], e["C"], e["N"]) for e in entries]
        weights = [e["weight"] for e in entries]
    except (KeyError, TypeError) as exc:
        raise InvalidSpec("each triple needs 'weight', 'L', 'C', 'N'") from exc
    if not all(isinstance(N, list) and all(isinstance(t, list)
                                           for t in (L, C, *N))
               for L, C, N in triples):
        raise InvalidSpec("each triple's 'L' and 'C' must be lists and "
                          "its 'N' a list of lists")
    d = data.get("d")
    if "d" in data and (not isinstance(d, int) or isinstance(d, bool)):
        raise InvalidSpec(f"'d' must be an integer, got {d!r}")
    law = finite_block_law(triples, weights)
    if "d" in data and d != law.d:
        raise InvalidSpec(f"declared d={d} but blocks have d={law.d}")
    return law


def load_blocks(path) -> FiniteBlockLaw:
    return blocks_from_dict(dist.read_json(path, "blocks"))
