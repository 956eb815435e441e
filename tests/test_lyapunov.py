"""Lyapunov estimators: oracles, cross-method agreement, symmetries."""

import math

import pytest

from lyapexp import chain
from lyapexp import distributions as dist
from lyapexp import lyapunov as lyap
from lyapexp.errors import InvalidParameter


TP = dist.two_point("1/2", "3/2", "1/4")
CRIT = dist.two_point("1/2", "2", "1/5")
ONE = dist.degenerate("1")


# -- exact oracles -----------------------------------------------------------

def test_deterministic_exponent_z_equal_one():
    # [[1, e], [e, 1]] has top eigenvalue 1 + e
    assert lyap.deterministic_exponent(1.0, 0.2) \
        == pytest.approx(math.log(1.2), rel=1e-15)


def test_deterministic_exponent_decoupled_limit():
    # eps = 0: matrix is triangular, exponent is log max(1, z)
    assert lyap.deterministic_exponent(0.5, 0.0) == 0.0
    assert lyap.deterministic_exponent(2.0, 0.0) \
        == pytest.approx(math.log(2.0), rel=1e-15)


def test_deterministic_exponent_matches_eigensolver():
    import numpy as np
    for z, e in ((0.7, 0.3), (1.25, 0.5), (2.0, 1.0), (0.5, 0.05)):
        m = np.array([[1.0, e], [e * z, z]])
        top = max(abs(np.linalg.eigvals(m)))
        assert lyap.deterministic_exponent(z, e) \
            == pytest.approx(math.log(top), rel=1e-12)


def test_decoupled_exponent_finite_sum():
    got = lyap.decoupled_exponent(CRIT)
    expect = 0.8 * math.log(1.5) + 0.2 * math.log(3.0)
    assert got == pytest.approx(expect, rel=1e-15)
    with pytest.raises(ValueError):
        lyap.decoupled_exponent(dist.uniform_interval("1/10", "9/10"))


# -- estimator vs oracle -------------------------------------------------------

def test_degenerate_z_one_both_methods_hit_log():
    target = math.log(1.2)
    inv = lyap.lyapunov_invariant(ONE, 0.2, n_steps=100_000)
    dirc = lyap.lyapunov_direct(ONE, 0.2, n_steps=100_000)
    # no randomness at all: stderr collapses and value is exact to rounding
    assert inv.stderr == 0.0
    assert abs(inv.value - target) < 1e-9
    assert abs(dirc.value - target) < 1e-9


def test_deterministic_law_both_methods():
    z, e = 1.25, 0.4
    target = lyap.deterministic_exponent(z, e)
    law = dist.degenerate("5/4")
    for method in (lyap.DIRECT, lyap.INVARIANT):
        est = lyap.estimate(law, e, method=method, n_steps=100_000)
        assert abs(est.value - target) < 1e-10


def test_full_damping_matches_decoupled_oracle():
    target = lyap.decoupled_exponent(CRIT)
    est = lyap.lyapunov_direct(CRIT, 1.0, n_steps=400_000, seed=2)
    assert abs(est.value - target) < 4 * est.stderr
    est2 = lyap.lyapunov_invariant(CRIT, 1.0, n_steps=400_000, seed=2)
    assert abs(est2.value - target) < 4 * est2.stderr


def test_methods_agree_on_random_law():
    a = lyap.lyapunov_direct(TP, 0.25, n_steps=400_000, seed=5)
    b = lyap.lyapunov_invariant(TP, 0.25, n_steps=400_000, seed=5)
    sig = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= 4 * sig
    assert a.method == lyap.DIRECT
    assert b.method == lyap.INVARIANT


def test_estimate_dispatch_and_unknown_method():
    est = lyap.estimate(TP, 0.5, method=lyap.INVARIANT, n_steps=64_000)
    assert est.method == lyap.INVARIANT
    with pytest.raises(ValueError):
        lyap.estimate(TP, 0.5, method="nope")


def test_estimate_passes_each_method_its_own_lead():
    """Given both leads, as the CLI passes them, each method runs with
    its own and drops the other's."""
    size = dict(n_steps=6400, seed=3, burn_in=70, discard=30)
    got = [lyap.estimate(TP, 0.5, method=m, **size)
           for m in (lyap.DIRECT, lyap.INVARIANT)]
    want = [lyap.lyapunov_direct(TP, 0.5, n_steps=6400, seed=3, discard=30),
            lyap.lyapunov_invariant(TP, 0.5, n_steps=6400, seed=3,
                                    burn_in=70)]
    assert got == want
    assert got[0] != lyap.lyapunov_direct(TP, 0.5, n_steps=6400, seed=3)
    assert got[1] != lyap.lyapunov_invariant(TP, 0.5, n_steps=6400, seed=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_estimators_refuse_a_non_finite_eps(bad):
    for method in (lyap.DIRECT, lyap.INVARIANT):
        with pytest.raises(InvalidParameter, match="eps must be finite"):
            lyap.estimate(TP, bad, method=method, n_steps=128)


# -- structure of the estimates -------------------------------------------------

def test_sign_of_eps_is_irrelevant_bitwise():
    a = lyap.lyapunov_direct(TP, 0.3, n_steps=64_000, seed=7)
    b = lyap.lyapunov_direct(TP, -0.3, n_steps=64_000, seed=7)
    assert a == b
    c = lyap.lyapunov_invariant(TP, 0.3, n_steps=64_000, seed=7)
    d = lyap.lyapunov_invariant(TP, -0.3, n_steps=64_000, seed=7)
    assert c == d
    e, f = (chain.simulate_chain(TP, chain.ChainConfig(eps=eps,
                                                      n_steps=64_000, seed=7),
                                 gammas=(1.0, 2.0, 6.0))
            for eps in (0.3, -0.3))
    assert e == f and e.eps == 0.3


def test_thread_count_does_not_change_bits():
    a = lyap.lyapunov_direct(TP, 0.25, n_steps=128_000, seed=1, threads=1)
    b = lyap.lyapunov_direct(TP, 0.25, n_steps=128_000, seed=1, threads=8)
    assert a == b
    c = lyap.lyapunov_invariant(TP, 0.25, n_steps=128_000, seed=1, threads=1)
    d = lyap.lyapunov_invariant(TP, 0.25, n_steps=128_000, seed=1, threads=8)
    assert c == d


def test_positive_exponent_for_positive_disorder():
    # Lambda(eps) > 0 for eps > 0: coupling always helps growth here
    est = lyap.lyapunov_invariant(TP, 0.125, n_steps=100_000)
    assert est.value > 0
    assert est.value > 5 * est.stderr


def test_monotone_in_eps_with_common_randomness():
    vals = [lyap.lyapunov_invariant(TP, e, n_steps=100_000, seed=4).value
            for e in (0.0625, 0.125, 0.25, 0.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# -- inversion symmetry ---------------------------------------------------------

def test_factorization_identity():
    """Lam_Z = E[log Z] + Lam_{1/Z} exactly; estimated gap ~ 0."""
    rep = lyap.factorization_check(CRIT, 0.5, n_steps=200_000, seed=6)
    assert rep.ok
    assert rep.log_moment == pytest.approx(
        0.8 * math.log(0.5) + 0.2 * math.log(2.0), rel=1e-12)


def test_factorization_on_symmetric_law_is_self_dual():
    # Z and 1/Z share the law when atoms are (1/2, 2) with swapped weights
    s = dist.two_point("1/2", "2", "1/2")
    rep = lyap.factorization_check(s, 0.25, n_steps=100_000, seed=8)
    # E[log Z] = 0 and the reciprocal law equals the law itself
    assert rep.log_moment == 0.0
    assert rep.ok
