"""Exact coefficients of the small-coupling series of the top exponent.

The regular part of the expansion is sum_k (-1)^(k+1) ell_k eps^(2k),
where the ell_k are determined by the integer moments m_l = E[Z^l] of the
disorder law through a two-index recursion: starting from the base row
g[0][0] = 1, g[0][k] = 0 (k >= 1),

    g[l][s] = m_l / (1 - m_l) *
              sum_{0<=r<=l, 0<=i, i+k=s, (i,r) != (0,l)}
                  C(l, r) * C(l+i-1, i) * g[i+r][k]

and then ell_s = sum_{j+k=s, j>=1} g[j][k] / j.  Everything is carried
out in exact rational arithmetic; float moment inputs are converted to
exact binary rationals first, so the recursion itself never loses
precision and the only sensitivity left is the conditioning of the
1/(1 - m_l) prefactors, reported alongside the table.

The moments come from a DistributionSpec or as a plain sequence
(m_1, m_2, ...); a negative order, a moment that is not positive and a
sequence shorter than the order raise InvalidParameter.  Coefficients
requested up to order K exist when m_l < 1 for every l <= K; m_l == 1
raises DegenerateMoment(l) and m_l > 1 raises UnstableMoment(l).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateMoment, InvalidParameter, UnstableMoment
from . import distributions as dist


def _moments(m, order: int):
    """The moments (m_1, m_2, ...) of a spec or a sequence ``m`` as
    Fractions, and whether they were exact rationals rather than
    converted floats (a spec's are exact when the law is discrete)."""
    if order < 0:
        raise InvalidParameter(f"order must be >= 0, got {order}")
    raw = [dist.moment(m, l) for l in range(1, order + 1)] \
        if isinstance(m, dist.DistributionSpec) else list(m)
    ms = tuple(Fraction(v) for v in raw)
    if any(v <= 0 for v in ms):
        raise InvalidParameter("moments must be strictly positive")
    if len(ms) < order:
        raise InvalidParameter(f"need {order} moments, got {len(ms)}")
    return ms, all(isinstance(v, (int, Fraction)) for v in raw)


@dataclass(frozen=True)
class CoefficientTable:
    """Exact g-table and series coefficients up to order K.

    ``g[l][k]`` (l + k <= K) and ``ell[s-1]`` = ell_s are Fractions.
    ``condition`` is 1 / min_l |1 - m_l|, the natural amplification scale
    of the recursion; ``exact`` records whether the moment inputs were
    exact rationals rather than converted floats.
    """

    order: int
    g: tuple
    ell: tuple
    exact: bool
    condition: float


def _check_moments(ms: tuple, order: int) -> None:
    for l in range(1, order + 1):
        if ms[l - 1] == 1:
            raise DegenerateMoment(l)
        if ms[l - 1] > 1:
            raise UnstableMoment(l)


def _entry_sum(g, l: int, s: int) -> Fraction:
    """Right-hand side of the recursion for g[l][s], a sum over i + k = s."""
    acc = Fraction(0)
    for i in range(0, s + 1):
        k = s - i
        w_i = math.comb(l + i - 1, i)
        for r in range(0, l + 1):
            if i == 0 and r == l:
                continue
            acc += math.comb(l, r) * w_i * g[i + r][k]
    return acc


def g_table(m, order: int) -> CoefficientTable:
    """Build the coefficient table up to total order K = ``order``.

    ``m`` may be a DistributionSpec or a plain sequence of the first K
    integer moments.
    """
    ms, exact = _moments(m, order)
    _check_moments(ms, order)

    # g[l] holds entries for k = 0..K-l; row 0 is the base case.
    g = [[Fraction(0)] * (order + 1 - l) for l in range(order + 1)]
    g[0][0] = Fraction(1)
    for s in range(0, order + 1):
        for l in range(1, order + 1 - s):
            ml = ms[l - 1]
            g[l][s] = ml / (1 - ml) * _entry_sum(g, l, s)

    ell = tuple(
        sum((g[j][s - j] / j for j in range(1, s + 1)), Fraction(0))
        for s in range(1, order + 1)
    )
    if order >= 1:
        condition = float(1 / min(abs(1 - v) for v in ms[:order]))
    else:
        condition = 1.0
    return CoefficientTable(order=order, g=tuple(tuple(row) for row in g),
                            ell=ell, exact=exact, condition=condition)


def ell_coefficients(m, order: int) -> tuple:
    """Series coefficients (ell_1, ..., ell_K) as exact Fractions."""
    return g_table(m, order).ell


# -- closed forms for the first two orders --------------------------------

def closed_form_ell1(m1) -> Fraction:
    m1 = Fraction(m1)
    return m1 / (1 - m1)


def closed_form_ell2(m1, m2) -> Fraction:
    m1, m2 = Fraction(m1), Fraction(m2)
    return ((1 + m1) ** 2 * m2 + 2 * m1 ** 2 * (1 - m2)) \
        / (2 * (1 - m1) ** 2 * (1 - m2))


# -- evaluation ------------------------------------------------------------

def regular_part(ell, eps: float) -> float:
    """Alternating partial sum  sum_{k<=K} (-1)^(k+1) ell_k eps^(2k).

    ``ell`` is the sequence (ell_1, ..., ell_K), such as a
    CoefficientTable's ``ell``.  Terms are combined with exact
    compensated summation (math.fsum); each term itself is one float
    multiply of ell_k and eps^(2k).  A sum that is not finite, one whose
    terms overflow or run past the float range, is refused.
    """
    e2 = float(eps) * float(eps)
    terms = []
    p = 1.0
    for k, coeff in enumerate(ell, start=1):
        p *= e2
        terms.append((1.0 if k % 2 == 1 else -1.0) * float(coeff) * p)
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise InvalidParameter(f"the order-{len(terms)} regular part at eps "
                               f"{float(eps):g} is not finite")
    return total
