"""Distribution layer: exact moments, alpha solving, sampling, JSON."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapexp import distributions as dist
from lyapexp.errors import InvalidSpec, NoUpcrossing
from lyapexp.mc import philox_generator


# -- construction and validation ------------------------------------------

def test_two_point_basic():
    s = dist.two_point("1/2", "3/2", "1/4")
    assert s.is_discrete
    assert s.atoms == (Fraction(1, 2), Fraction(3, 2))
    assert s.weights == (Fraction(3, 4), Fraction(1, 4))
    assert min(s.atoms) == Fraction(1, 2)
    assert s.ess_sup() == Fraction(3, 2)


def test_two_point_rejects_bad_inputs():
    with pytest.raises(InvalidSpec):
        dist.two_point("0", "2", "1/2")        # zero atom
    with pytest.raises(InvalidSpec):
        dist.two_point("-1/2", "2", "1/2")     # negative atom
    with pytest.raises(InvalidSpec):
        dist.two_point("1/2", "2", "0")        # degenerate weight
    with pytest.raises(InvalidSpec):
        dist.two_point("1/2", "2", "1")
    with pytest.raises(InvalidSpec):
        dist.two_point("1/2", "2", "3/2")      # weight > 1


def test_finite_discrete_weight_normalization_is_rejected_not_silent():
    with pytest.raises(InvalidSpec):
        dist.finite_discrete(["1/2", "2"], ["1/2", "1/4"])  # sums to 3/4


def test_finite_discrete_duplicate_atoms_rejected():
    with pytest.raises(InvalidSpec):
        dist.finite_discrete(["1/2", "1/2"], ["1/2", "1/2"])


def test_uniform_interval_bounds():
    u = dist.uniform_interval("1/10", "9/10")
    assert not u.is_discrete
    assert u.lower == Fraction(1, 10)
    assert u.ess_sup() == Fraction(9, 10)
    with pytest.raises(InvalidSpec):
        dist.uniform_interval("1/2", "1/2")
    with pytest.raises(InvalidSpec):
        dist.uniform_interval("3/4", "1/4")
    with pytest.raises(InvalidSpec):
        dist.uniform_interval("0", "1")  # support must stay positive


@pytest.mark.parametrize("fields, message", [
    (dict(family="finite_discrete"), "matching atoms and weights"),
    (dict(family="finite_discrete", atoms=(Fraction(1, 2), Fraction(2)),
          weights=(Fraction(1),)), "matching atoms and weights"),
    (dict(family="two_point", atoms=(Fraction(1, 2), Fraction(1), Fraction(2)),
          weights=(Fraction(1, 3),) * 3), "exactly two atoms"),
    (dict(family="finite_discrete", atoms=(Fraction(5, 4),),
          weights=(Fraction(1),)), "degenerate"),
    (dict(family="uniform_interval", lower=Fraction(1, 2)),
     "lower and upper endpoints"),
    (dict(family="gamma"), "unknown family"),
])
def test_spec_invariants_are_refused(fields, message):
    with pytest.raises(InvalidSpec, match=message):
        dist.DistributionSpec(**fields)


@pytest.mark.parametrize("value", ["abc", "1/0", None, [1],
                                   math.inf, -math.inf, math.nan,
                                   "1e400", "-1e400", 10 ** 400,
                                   Fraction(-10 ** 400, 3), "1e-400",
                                   "2e-324", Fraction(1, 10 ** 400),
                                   "1/1" + "0" * 400,
                                   # would expand 10 ** (10 ** 12) exactly
                                   "1e999999999999", "-1e-999999999999"])
def test_as_fraction_refuses_what_is_no_number(value):
    """And a number whose float is not finite, or is 0 though it is not."""
    with pytest.raises(InvalidSpec, match="cannot parse number"):
        dist.as_fraction(value)


def test_as_fraction_accepts_the_ends_of_the_float_range():
    top, least = sys.float_info.max, 5e-324
    assert float(dist.as_fraction(repr(top))) == top
    assert float(dist.as_fraction(int(-top))) == -top
    assert float(dist.as_fraction(repr(least))) == least
    assert dist.as_fraction(least) == Fraction("5e-324")
    for zero in ("0", "-0.0", "0e-999999999999", " .000e999999999999 "):
        assert dist.as_fraction(zero) == 0


def test_degenerate_law():
    d = dist.degenerate("5/4")
    assert d.atoms == (Fraction(5, 4),)
    assert d.weights == (Fraction(1),)
    assert d.ess_sup() == Fraction(5, 4)


def test_as_fraction_accepts_floats_and_numpy_scalars():
    assert dist.as_fraction(0.5) == Fraction(1, 2)
    assert dist.as_fraction(np.float64(0.25)) == Fraction(1, 4)
    assert dist.as_fraction("7/3") == Fraction(7, 3)
    assert dist.as_fraction(2) == Fraction(2)
    # repr round-trip: arbitrary doubles convert losslessly
    x = 0.1234567890123456
    assert float(dist.as_fraction(x)) == x


# -- moments ---------------------------------------------------------------

def test_integer_moments_are_exact_fractions():
    s = dist.two_point("1/2", "3/2", "1/4")
    assert dist.moment(s, 1) == Fraction(3, 4)
    assert dist.moment(s, 2) == Fraction(3, 4)
    assert dist.moment(s, 3) == Fraction(15, 16)
    assert isinstance(dist.moment(s, 2), Fraction)


def test_moment_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        dist.moment(dist.two_point("1/2", "2", "1/5"), -1)


def test_moment_at_zero_is_one():
    for s in (dist.two_point("1/2", "2", "1/5"),
              dist.uniform_interval("1/10", "9/10"),
              dist.log_uniform("1/4", "4")):
        assert dist.moment(s, 0) == 1


def test_critical_law_second_moment_is_exactly_one():
    s = dist.two_point("1/2", "2", "1/5")
    assert dist.moment(s, 2) == 1
    assert dist.moment(s, 1) == Fraction(4, 5)


def test_half_power_moment_exact_when_atoms_are_perfect_squares():
    # atoms 1/4 and 4 have exact square roots, so E[Z^(1/2)] is rational
    s = dist.two_point("1/4", "4", "1/3")
    m = dist.moment(s, Fraction(1, 2))
    assert m == Fraction(2, 3) * Fraction(1, 2) + Fraction(1, 3) * 2
    assert m == 1  # this law sits exactly at alpha = 1/2


def test_uniform_moment_closed_form():
    # E[Z^g] on [a,b] = (b^(g+1) - a^(g+1)) / ((g+1)(b-a))
    u = dist.uniform_interval("1/10", "9/10")
    m2 = dist.moment(u, 2)
    expect = (Fraction(9, 10) ** 3 - Fraction(1, 10) ** 3) \
        / (3 * Fraction(8, 10))
    assert m2 == expect


def test_uniform_moment_at_a_non_integer_power():
    """A non-integer power takes the float closed form; it matches a
    2e6-point midpoint rule."""
    n = 2_000_000
    z = 0.1 + 0.8 * (np.arange(n) + 0.5) / n
    got = dist.moment(dist.uniform_interval("1/10", "9/10"), 0.3)
    assert isinstance(got, float)
    assert got == pytest.approx(float(np.mean(z ** 0.3)), abs=1e-12)


def test_log_uniform_moment_closed_form():
    lu = dist.log_uniform("1/4", "4")
    # E[Z^g] = (b^g - a^g) / (g (log b - log a))
    g = 2
    got = float(dist.moment(lu, g))
    expect = (4.0 ** g - 0.25 ** g) / (g * (math.log(4) - math.log(0.25)))
    assert got == pytest.approx(expect, rel=1e-14)


def test_log_moment_matches_quadrature():
    u = dist.uniform_interval("1/10", "9/10")
    xs = np.linspace(0.1, 0.9, 2_000_001)
    approx = np.trapezoid(np.log(xs), xs) / 0.8
    assert dist.log_moment(u) == pytest.approx(approx, abs=1e-9)


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=50, deadline=None)
def test_moment_log_convexity(a_num, b_num, p_num):
    """gamma -> log E[Z^gamma] is convex (Hoelder)."""
    a = Fraction(a_num, 10)
    b = Fraction(b_num + 10, 10)
    p = Fraction(p_num, 10)
    s = dist.two_point(a, b, p)
    m1, m2, m3 = (float(dist.moment(s, g)) for g in (1, 2, 3))
    assert math.log(m2) <= 0.5 * (math.log(m1) + math.log(m3)) + 1e-12


# -- alpha -----------------------------------------------------------------

def test_alpha_exact_integer_root():
    res = dist.solve_alpha(dist.two_point("1/2", "2", "1/5"))
    assert res.kind == "finite"
    assert res.alpha == 2.0
    assert res.residual == 0.0
    assert res.moment_at_alpha == 1.0


def test_alpha_exact_half_root():
    res = dist.solve_alpha(dist.two_point("1/4", "4", "1/3"))
    assert res.alpha == 0.5
    assert res.residual == 0.0


def test_alpha_exact_root_at_the_first_midpoint():
    """E[Z^(3/4)] = 1 exactly; bisection between 1/2 and 1 meets the
    root at its first midpoint."""
    res = dist.solve_alpha(dist.two_point("1/16", "16", "1/9"))
    assert (res.kind, res.alpha, res.residual) == ("finite", 0.75, 0.0)


def test_alpha_refuses_a_law_whose_moments_never_reach_one():
    """A law barely above 1 keeps E[Z^gamma] < 1 past the gamma cap."""
    with pytest.raises(NoUpcrossing, match="stays below 1 up to gamma=512"):
        dist.solve_alpha(dist.two_point("1/2", "1000001/1000000",
                                        "1/1000000"))


def test_alpha_infinite_for_sub_unit_support():
    res = dist.solve_alpha(dist.uniform_interval("1/10", "9/10"))
    assert res.kind == "infinite"
    assert math.isinf(res.alpha)


def test_alpha_zero_boundary_when_log_drift_nonnegative():
    s = dist.two_point("1/2", "2", "1/2")  # E[log Z] = 0 exactly
    res = dist.solve_alpha(s)
    assert res.kind == "zero_boundary"
    assert res.alpha == 0.0


def test_alpha_generic_law_converges():
    s = dist.two_point("2/5", "7/4", "3/10")
    res = dist.solve_alpha(s)
    assert res.kind == "finite"
    m = float(dist.moment(s, res.alpha))
    assert abs(m - 1.0) < 1e-8
    # the solver's own residual agrees with a recomputation
    assert res.residual == pytest.approx(abs(m - 1.0), abs=1e-15)


def test_alpha_bisection_monotone_envelope():
    # E[Z^g] < 1 strictly below alpha, > 1 strictly above
    s = dist.two_point("2/5", "7/4", "3/10")
    a = dist.solve_alpha(s).alpha
    assert float(dist.moment(s, a - 0.01)) < 1.0
    assert float(dist.moment(s, a + 0.01)) > 1.0


# -- sampling --------------------------------------------------------------

def test_sample_reproducible_and_stream_separated():
    s = dist.two_point("1/2", "3/2", "1/4")
    a = dist.sampler(s)(philox_generator(7, 0).random(1000))
    b = dist.sampler(s)(philox_generator(7, 0).random(1000))
    c = dist.sampler(s)(philox_generator(7, 1).random(1000))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_discrete_hits_only_atoms_with_right_frequencies():
    s = dist.two_point("1/2", "3/2", "1/4")
    zs = dist.sampler(s)(philox_generator(3, 0).random(200_000))
    assert set(np.unique(zs)) == {0.5, 1.5}
    frac_hi = float(np.mean(zs == 1.5))
    assert abs(frac_hi - 0.25) < 0.005  # ~4.5 sigma at n = 2e5


def test_sample_uniform_respects_bounds_and_mean():
    u = dist.uniform_interval("1/10", "9/10")
    zs = dist.sampler(u)(philox_generator(5, 0).random(100_000))
    assert zs.min() >= 0.1 and zs.max() <= 0.9
    assert abs(zs.mean() - 0.5) < 0.004


@pytest.mark.parametrize("spec", [
    dist.two_point("1/2", "2", "1/5"),
    dist.two_point("1/4", "4", "1/3"),
    dist.finite_discrete(["3", "1/7"], ["1/10", "9/10"]),
    dist.degenerate("3/4"),
    dist.finite_discrete(["1/2", "2", "3"], ["1/3", "1/3", "1/3"]),
    dist.finite_discrete(["1/5", "1/2", "2", "3"],
                         ["1/10", "1/5", "3/10", "2/5"]),
    dist.finite_discrete(["1/5", "1/2", "2", "3", "7"],
                         ["1/7", "1/7", "2/7", "2/7", "1/7"]),
])
def test_two_atom_sampler_matches_searchsorted_bitwise(spec):
    """pick_atoms on atom_thresholds, and the sampler, match a search on
    the cumulative float weights bit for bit, for 1 to 5 atoms, also at
    every inner edge and its neighbours; a NaN uniform picks the last
    atom, however many there are."""
    cum = np.cumsum([float(w) for w in spec.weights])
    cum[-1] = 1.0
    atoms = np.array([float(a) for a in spec.atoms])
    inner = cum[:-1]
    edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], inner,
                            np.nextafter(inner, 0.0),
                            np.nextafter(inner, 1.0)])
    u = np.concatenate([philox_generator(5, 0).random(10 ** 6), edges])
    want = np.searchsorted(cum, u, side="right")
    q = dist.atom_thresholds(spec.weights)
    assert q.dtype == np.float64 and np.array_equal(q, inner)
    assert dist.pick_atoms(q, u).dtype == np.int64
    assert np.array_equal(dist.pick_atoms(q, u), want)
    got = dist.sampler(spec)(u)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), atoms[want].view(np.int64))
    # u == cum[k] picks atom k + 1
    assert np.array_equal(dist.pick_atoms(q, inner), np.arange(1, len(atoms)))
    assert dist.sampler(spec)(np.array([np.nan])).tolist() == [atoms[-1]]


def test_single_uniform_consumed_per_draw():
    """Two laws sampled on one (seed, stream) see identical randomness.

    This is the common-random-number contract: the quantile maps consume
    exactly one uniform per draw, so coupling holds across laws.
    """
    lo = dist.two_point("1/2", "3/2", "1/4")
    hi = dist.two_point("3/4", "7/4", "1/4")  # same weights, shifted atoms
    a = dist.sampler(lo)(philox_generator(11, 0).random(500))
    b = dist.sampler(hi)(philox_generator(11, 0).random(500))
    # the hi draw is large exactly when the lo draw is large
    assert np.array_equal(a == 1.5, b == 1.75)


# -- assumptions -----------------------------------------------------------

def test_assumption_report_standard_law_passes():
    spec = dist.two_point("1/2", "2", "1/5")
    assert dist.log_moment(spec) < 0
    assert dist.assumptions_hold(spec) is True
    # an interval law has no atoms, and is non-degenerate by construction
    assert dist.assumptions_hold(dist.uniform_interval("1/10", "9/10"))


def test_assumption_report_flags_positive_drift_without_raising():
    spec = dist.two_point("1/2", "4", "1/2")
    assert dist.log_moment(spec) > 0
    assert dist.assumptions_hold(spec) is False
    assert dist.assumptions_hold(dist.log_uniform("1/2", "4")) is False


def test_assumption_report_flags_degenerate():
    # E[log Z] < 0, so only the single atom fails the predicate
    assert dist.assumptions_hold(dist.degenerate("3/4")) is False
    assert dist.assumptions_hold(dist.two_point("1/2", "3/4", "1/2"))


# -- reciprocal ------------------------------------------------------------

def test_reciprocal_swaps_and_inverts_atoms():
    s = dist.two_point("1/2", "2", "1/5")
    r = dist.reciprocal(s)
    assert set(r.atoms) == {Fraction(1, 2), Fraction(2)}
    # weight of atom 1/2 in r equals weight of atom 2 in s
    w = dict(zip(r.atoms, r.weights))
    assert w[Fraction(1, 2)] == Fraction(1, 5)
    inv_mean = sum(wt / at for at, wt in zip(s.atoms, s.weights))
    assert dist.moment(r, 1) == inv_mean


def test_reciprocal_of_log_uniform_inverts_the_interval():
    r = dist.reciprocal(dist.log_uniform("1/4", "2"))
    assert r == dist.log_uniform("1/2", "4")


def test_log_moment_of_log_uniform_is_the_log_midpoint():
    assert dist.log_moment(dist.log_uniform("1/4", "2")) == \
        0.5 * (math.log(0.25) + math.log(2.0))


def test_reciprocal_of_uniform_is_rejected():
    with pytest.raises((InvalidSpec, NotImplementedError)):
        dist.reciprocal(dist.uniform_interval("1/10", "9/10"))


# -- JSON ------------------------------------------------------------------

def test_json_round_trip_all_families():
    for s in (dist.two_point("1/2", "3/2", "1/4"),
              dist.finite_discrete(["1/3", "1", "5/2"], ["1/2", "1/3", "1/6"]),
              dist.uniform_interval("1/10", "9/10"),
              dist.log_uniform("1/4", "4"),
              dist.degenerate("5/4")):
        assert dist.spec_from_dict(json.loads(dist.spec_to_json(s))) == s


def test_json_exact_rational_text():
    s = dist.two_point("1/2", "3/2", "1/4")
    data = json.loads(dist.spec_to_json(s))
    assert data["atoms"][0]["value"] == "1/2"
    assert data["atoms"][0]["weight"] == "3/4"


def test_json_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "law.json"
    bad.write_text("not json at all {")
    with pytest.raises(InvalidSpec, match="malformed spec file"):
        dist.load_spec(bad)
    with pytest.raises(InvalidSpec):
        dist.spec_from_dict({"family": "no_such_family"})
    with pytest.raises(InvalidSpec):
        dist.spec_from_dict({"family": "two_point", "atoms": []})


@pytest.mark.parametrize("data, message", [
    (["two_point"], "must be an object with a 'family' key"),
    ({"atoms": []}, "must be an object with a 'family' key"),
    ({"family": "two_point", "atoms": [{"value": "1/2"}]},
     "each atom needs 'value' and 'weight'"),
    ({"family": "two_point", "atoms": ["1/2", "2"]},
     "each atom needs 'value' and 'weight'"),
    ({"family": "log_uniform", "lower": "1/2"},
     "needs 'lower' and 'upper'"),
])
def test_spec_from_dict_refuses_incomplete_documents(data, message):
    with pytest.raises(InvalidSpec, match=message):
        dist.spec_from_dict(data)


def test_load_spec_from_file(tmp_path):
    s = dist.two_point("1/2", "2", "1/5")
    p = tmp_path / "law.json"
    p.write_text(dist.spec_to_json(s))
    assert dist.load_spec(p) == s
