"""Coefficient recursion: frozen exact values, closed forms, stability."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapexp import coefficients as coeffs
from lyapexp import distributions as dist
from lyapexp.errors import (DegenerateMoment, InvalidParameter,
                            UnstableMoment)
from lyapexp.mc import philox_generator


M34 = (Fraction(3, 4), Fraction(3, 4))


# -- frozen values ---------------------------------------------------------
# The table below for m = (3/4, 3/4) was derived by hand from the recursion
# (each entry re-derivable in a few lines) before the implementation ran:
#   g[1][0] = 3 * C(1,0) g[0][0]                     = 3
#   g[2][0] = 3 * (C(2,0) g[0][0] + C(2,1) g[1][0])  = 21
#   g[1][1] = 3 * (g[0][1] + C(1,0) g[1][0] + C(1,1) g[2][0]) = 72
#   ell_1 = g[1][0] = 3,  ell_2 = g[1][1] + g[2][0]/2 = 165/2

def test_base_row():
    t = coeffs.g_table(M34, 2)
    assert t.g[0][0] == 1
    assert t.g[0][1] == 0


def test_frozen_g_entries_m34():
    t = coeffs.g_table(M34, 2)
    assert t.g[1][0] == 3
    assert t.g[2][0] == 21
    assert t.g[1][1] == 72


def test_frozen_ell_m34():
    t = coeffs.g_table(M34, 2)
    assert t.ell == (Fraction(3), Fraction(165, 2))
    assert isinstance(t.ell[1], Fraction)
    assert t.exact


def test_table_from_spec_matches_table_from_moments():
    s = dist.two_point("1/2", "3/2", "1/4")  # m1 = m2 = 3/4
    assert coeffs.g_table(s, 2).ell == coeffs.g_table(M34, 2).ell


def test_ell1_for_critical_law():
    # E[Z] = 4/5 -> ell_1 = 4; order 1 stays clear of the m2 = 1 pole
    s = dist.two_point("1/2", "2", "1/5")
    assert coeffs.ell_coefficients(s, 1) == (Fraction(4),)


# -- closed forms ----------------------------------------------------------

def _random_unit_fraction(gen, max_den=50):
    den = int(gen.integers(2, max_den + 1))
    num = int(gen.integers(1, den))
    return Fraction(num, den)


def test_recursion_equals_closed_forms_100_random_vectors():
    gen = philox_generator(2024)
    for _ in range(100):
        m1 = _random_unit_fraction(gen)
        m2 = _random_unit_fraction(gen)
        ell = coeffs.ell_coefficients((m1, m2), 2)
        assert ell[0] == coeffs.closed_form_ell1(m1)
        assert ell[1] == coeffs.closed_form_ell2(m1, m2)


@given(st.fractions(min_value="1/100", max_value="99/100"),
       st.fractions(min_value="1/100", max_value="99/100"))
@settings(max_examples=100, deadline=None)
def test_closed_form_property(m1, m2):
    ell = coeffs.ell_coefficients((m1, m2), 2)
    assert ell[0] == coeffs.closed_form_ell1(m1)
    assert ell[1] == coeffs.closed_form_ell2(m1, m2)


def test_closed_forms_exact_values():
    assert coeffs.closed_form_ell1(Fraction(3, 4)) == 3
    assert coeffs.closed_form_ell2(Fraction(3, 4), Fraction(3, 4)) \
        == Fraction(165, 2)
    assert coeffs.closed_form_ell1(Fraction(4, 5)) == 4


# -- degeneracy and stability ----------------------------------------------

def test_degenerate_moment_raises_with_order():
    s = dist.two_point("1/2", "2", "1/5")  # E[Z^2] = 1 exactly
    with pytest.raises(DegenerateMoment) as exc:
        coeffs.g_table(s, 2)
    assert exc.value.order == 2


def test_unstable_moment_raises_with_order():
    s = dist.two_point("1/2", "2", "1/4")  # E[Z^2] = 35/32 > 1
    with pytest.raises(UnstableMoment) as exc:
        coeffs.g_table(s, 2)
    assert exc.value.order == 2
    # order 1 still fine: E[Z] = 7/8 < 1
    assert coeffs.ell_coefficients(s, 1) == (Fraction(7),)


def test_moment_vector_rejects_nonpositive():
    with pytest.raises(ValueError, match="strictly positive"):
        coeffs.g_table((0, 1/2), 2)


def test_condition_number_reported():
    t = coeffs.g_table(M34, 2)
    assert t.condition == 4.0  # 1 / (1 - 3/4)
    near = coeffs.g_table((Fraction(99, 100),), 1)
    assert near.condition == 100.0


# -- structural properties -------------------------------------------------

def test_prefix_stability():
    """Lower-order coefficients do not move when the order grows."""
    m = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5), Fraction(3, 20),
         Fraction(1, 8), Fraction(1, 10))
    tables = [coeffs.g_table(m, k) for k in range(1, 7)]
    for k, t in enumerate(tables, start=1):
        assert t.ell == tables[-1].ell[:k]


def test_ell_positive_for_admissible_moments():
    gen = philox_generator(77)
    for _ in range(25):
        m = tuple(sorted((_random_unit_fraction(gen) for _ in range(3)),
                         reverse=True))
        ell = coeffs.ell_coefficients(m, 3)
        assert all(e > 0 for e in ell)


def test_float_moments_marked_inexact_but_close():
    exact = coeffs.g_table(M34, 2)
    fl = coeffs.g_table((0.75, 0.75), 2)
    assert fl.exact is False or fl.ell == exact.ell
    # 0.75 is dyadic, so the float path is in fact exactly 3/4
    assert fl.ell == exact.ell


def test_monte_carlo_cross_check_ell1():
    """ell_1 = E[X_0] where X_0 = sum of products of iid Z.

    Independent estimate of the series coefficient from
    the perpetuity it sums: X_0 = Z_1 + Z_1 Z_2 + ... has mean
    m1 / (1 - m1) exactly.
    """
    s = dist.two_point("1/2", "3/2", "1/4")
    gen = philox_generator(123)
    n, depth = 200_000, 120
    zs = dist.sampler(s)(gen.random((depth, n)))
    partial = zs.cumprod(axis=0).sum(axis=0)
    est = partial.mean()
    sd = partial.std(ddof=1) / math.sqrt(n)
    assert abs(est - 3.0) < 5 * sd + 3e-3


# -- evaluation -------------------------------------------------------------

def test_regular_part_alternates_signs():
    table = coeffs.g_table(M34, 2)
    eps = 0.1
    val = coeffs.regular_part(table.ell, eps)
    expect = 3.0 * eps ** 2 - 82.5 * eps ** 4
    assert val == pytest.approx(expect, rel=1e-15)


def test_regular_part_accepts_plain_sequences():
    assert coeffs.regular_part((Fraction(3),), 0.5) \
        == pytest.approx(0.75, rel=1e-15)


def test_regular_part_empty_is_zero():
    assert coeffs.regular_part((), 0.3) == 0.0


@pytest.mark.parametrize("ell, eps", [
    ((3, 82.5), 1e100), ((1, 1, 1), 1e100), ((1e308, 0, 1e308), 1.0),
], ids=["minus_inf", "inf_minus_inf", "past_range"])
def test_regular_part_refuses_a_sum_that_is_not_finite(ell, eps):
    """eps^4 overflows at eps = 1e100, so the terms run to -inf, or to
    inf and -inf, which fsum cannot add; at eps = 1 two finite terms
    add past the float range."""
    with pytest.raises(InvalidParameter, match="regular part at eps"):
        coeffs.regular_part(ell, eps)
