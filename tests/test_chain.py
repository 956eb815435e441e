"""Damped multiplicative chain: single steps, stationary statistics,
pathwise coupling, and the perpetuity limit."""

import math

import numpy as np
import pytest

from lyapexp import chain, highdim, kernels, lyapunov
from lyapexp import distributions as dist
from lyapexp.errors import TruncationOverflow
from lyapexp.mc import kept_per_replica, philox_generator


TP = dist.two_point("1/2", "3/2", "1/4")        # m1 = m2 = 3/4, ell1 = 3
CRIT = dist.two_point("1/2", "2", "1/5")        # E[Z^2] = 1, ell1 = 4


def _cfg(eps, n=100_000, seed=0, **kw):
    return chain.ChainConfig(eps=eps, n_steps=n, seed=seed, **kw)


# -- single step ------------------------------------------------------------

def test_step_from_zero_gives_z():
    assert chain.step(0.0, 0.7, 0.3) == 0.7


def test_step_no_damping_is_affine():
    # eps = 0: x' = z (1 + x)
    assert chain.step(3.0, 0.5, 0.0) == 2.0


def test_step_full_damping_forgets_state():
    # eps = 1: x' = z (1 + x) / (1 + x) = z for every x
    for x in (0.0, 0.5, 7.0, 123.456):
        assert chain.step(x, 1.25, 1.0) == 1.25


def test_step_hand_value():
    # x=2, z=3/2, eps=1/2: 1.5 * 3 / (1 + 0.25 * 2) = 3.0
    assert chain.step(2.0, 1.5, 0.5) == pytest.approx(3.0, rel=1e-15)


def test_step_vectorized_matches_scalar():
    xs = np.array([0.0, 0.3, 2.0, 11.0])
    zs = np.array([0.5, 1.5, 2.0, 0.25])
    out = chain.step(xs, zs, 0.3)
    for i in range(len(xs)):
        assert out[i] == chain.step(xs[i], zs[i], 0.3)


def test_step_monotone_in_x():
    # x -> step(x) is increasing for eps < 1 (d/dx > 0)
    xs = np.linspace(0.0, 50.0, 200)
    out = chain.step(xs, 1.5, 0.25)
    assert np.all(np.diff(out) > 0)


# -- configuration ------------------------------------------------------------

def test_config_validation():
    assert _cfg(-0.5).eps == 0.5  # the chain runs at |eps|
    with pytest.raises(ValueError):
        _cfg(math.nan)
    with pytest.raises(ValueError):
        chain.ChainConfig(eps=0.5, n_steps=100, seed=0, replicas=1)
    with pytest.raises(ValueError):
        chain.ChainConfig(eps=0.5, n_steps=10, seed=0, replicas=64)


def test_default_cutoff_twice_ess_sup():
    assert chain.default_cutoff(TP) == 3.0
    assert chain.default_cutoff(CRIT) == 4.0


# -- stationary statistics ----------------------------------------------------

def test_full_damping_reproduces_z_moments():
    """At eps = 1 the chain is the iid Z sequence itself."""
    st = chain.simulate_chain(TP, _cfg(1.0, n=400_000), gammas=(1.0, 2.0))
    assert abs(st.moments[0] - 0.75) < 5 * st.moment_stderrs[0]
    assert abs(st.moments[1] - 0.75) < 5 * st.moment_stderrs[1]
    # and every retained value is one of the two atoms
    assert st.max_x == 1.5


def test_mean_grows_toward_perpetuity_mean_as_damping_fades():
    # E[X_eps] increases to E[X_0] = m1 / (1 - m1) = 3 as eps -> 0
    means = []
    for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):
        st = chain.simulate_chain(TP, _cfg(eps, n=200_000), gammas=(1.0,))
        means.append(st.moments[0])
    assert all(a < b for a, b in zip(means, means[1:]))
    gaps = [3.0 - m for m in means]
    assert all(g > 0 for g in gaps)
    # each halving of eps cuts the remaining gap (the correction is
    # quadratic in eps, so the decay is eventually fourfold per step)
    assert gaps[-1] < gaps[0] / 8


def test_state_bound_from_bounded_disorder():
    # x <= ||Z||_inf / eps^2 pathwise (after the first step)
    for eps in (0.5, 0.25):
        st = chain.simulate_chain(TP, _cfg(eps, n=50_000), gammas=(1.0,))
        assert st.max_x <= 1.5 / eps ** 2


def test_chain_without_states_keeps_the_lyapunov_bits():
    """With no gammas no post-step state is stored, so max_x is NaN; the
    growth factors, and so the Lyapunov statistics, are those of a run
    that folds a moment, and of lyapunov_invariant, bit for bit."""
    cfg = _cfg(0.3, n=20_000, threads=2)
    bare = chain.simulate_chain(CRIT, cfg, gammas=())
    full = chain.simulate_chain(CRIT, cfg, gammas=(1.0,))
    inv = lyapunov.lyapunov_invariant(CRIT, 0.3, n_steps=20_000, seed=0,
                                      threads=2)
    assert math.isnan(bare.max_x) and full.max_x > 0
    assert (bare.log1p_mean, bare.log1p_stderr, bare.n_kept) \
        == (full.log1p_mean, full.log1p_stderr, full.n_kept) \
        == (inv.value, inv.stderr, inv.n)


def test_truncated_equals_plain_for_bounded_z():
    """eps^2 x' <= z <= ||Z||_inf pathwise, so the default cutoff
    B = 2 ||Z||_inf never triggers and both statistics coincide exactly."""
    st = chain.simulate_chain(CRIT, _cfg(0.25, n=150_000),
                              gammas=(1.0, 2.0))
    assert st.trunc_moments == st.moments
    assert st.trunc_stderrs == st.moment_stderrs


def test_tight_cutoff_depresses_moment():
    st = chain.simulate_chain(TP, _cfg(0.25, n=150_000), gammas=(2.0,),
                              b_cutoff=0.05)
    assert st.trunc_moments[0] < st.moments[0]


def test_reproducible_and_thread_invariant():
    a = chain.simulate_chain(TP, _cfg(0.25, n=64_000, seed=9))
    b = chain.simulate_chain(TP, _cfg(0.25, n=64_000, seed=9))
    c = chain.simulate_chain(TP, _cfg(0.25, n=64_000, seed=9, threads=4))
    assert a == b
    assert a == c


def test_two_seeds_agree_within_error():
    a = chain.simulate_chain(TP, _cfg(0.25, n=200_000, seed=1),
                             gammas=(1.0,))
    b = chain.simulate_chain(TP, _cfg(0.25, n=200_000, seed=2),
                             gammas=(1.0,))
    sig = math.hypot(a.moment_stderrs[0], b.moment_stderrs[0])
    assert abs(a.moments[0] - b.moments[0]) < 5 * sig


def test_large_gamma_uses_log_space_and_stays_finite():
    st = chain.simulate_chain(TP, _cfg(0.25, n=100_000), gammas=(6.0,))
    assert math.isfinite(st.moments[0])
    assert st.moments[0] > 0


def test_log1p_mean_positive_and_small():
    st = chain.simulate_chain(TP, _cfg(0.125, n=100_000))
    # Lambda(eps) ~ ell_1 eps^2 = 3/64 here; the estimate sits nearby
    assert 0.5 * 3 / 64 < st.log1p_mean < 2 * 3 / 64


def test_n_kept_accounting():
    cfg = _cfg(0.5, n=100_000, replicas=64)
    st = chain.simulate_chain(TP, cfg)
    assert st.n_kept == kept_per_replica(cfg.n_steps, cfg.replicas) * 64
    assert st.n_kept >= 100_000


# -- coupled paths ------------------------------------------------------------

def _coupled(spec, eps_a, eps_b, n, seed):
    """The scalar chain's coupled paths, as 1-d arrays."""
    return tuple(p[:, 0] for p in highdim.coupled_paths(
        highdim.from_scalar(spec), (eps_a, eps_b), n, seed))


def test_coupling_monotone_in_damping():
    for seed in range(3):
        lo, hi = _coupled(TP, 0.125, 0.5, 20_000, seed)
        assert np.all(lo >= hi)


def test_coupling_against_undamped_majorant():
    for seed in range(3):
        undamped, damped = _coupled(TP, 0.0, 0.25, 20_000, seed)
        assert np.all(undamped >= damped)


def test_equal_damping_paths_identical():
    a, b = _coupled(TP, 0.25, 0.25, 5_000, seed=3)
    assert np.array_equal(a, b)


def test_coupled_path_matches_scalar_replay():
    path, _ = _coupled(TP, 0.3, 0.3, 64, seed=5)
    zs = dist.sampler(TP)(philox_generator(5, 0).random(64))
    x = 0.0
    for i in range(64):
        x = (zs[i] + zs[i] * x) / (1.0 + 0.09 * x)
        assert path[i] == x


def test_coupled_paths_on_numpy_fallback(monkeypatch):
    monkeypatch.setattr(kernels, "_library", lambda: None)
    test_coupling_monotone_in_damping()
    test_coupling_against_undamped_majorant()
    test_equal_damping_paths_identical()
    test_coupled_path_matches_scalar_replay()


@pytest.mark.parametrize("spec", [TP, dist.uniform_interval("1/10", "9/10")])
def test_coupled_paths_fallback_bits_equal_compiled(monkeypatch, spec):
    if kernels._library() is None:
        pytest.skip("no C compiler or writable cache: compiled path absent")
    compiled = _coupled(spec, 0.0, 0.375, 3000, seed=7)
    monkeypatch.setattr(kernels, "_library", lambda: None)
    fallback = _coupled(spec, 0.0, 0.375, 3000, seed=7)
    for a, b in zip(compiled, fallback):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_width_one_fallback_survives_a_zero_denominator(monkeypatch):
    # 1 + e2*x = 0 at x = -4: the numpy loop divides by the zero as the
    # compiled one does, giving inf and then nan, and raises nothing
    monkeypatch.setattr(kernels, "_library", lambda: None)
    law = highdim.from_scalar(dist.uniform_interval("1/10", "9/10"))
    # the affine map (0, 1) passes these z through exactly
    z = np.array([[-2.0], [3.0], [1.0]])
    x = np.array([[-4.0]])
    xbuf, dbuf = np.empty((3, 1, 1)), np.empty((3, 1))
    with np.errstate(all="ignore"):
        kernels.block_chain_steps(law.ls, law.cs, law.ns, z,
                                  np.array([0.0, 1.0]), law.cpow, law.npow,
                                  x, dbuf, 0.25, xbuf)
    assert dbuf[0, 0] == 0.0 and xbuf[0, 0, 0] == math.inf
    assert np.isnan(xbuf[1:]).all() and np.isnan(x).all()


# -- perpetuity ----------------------------------------------------------------

def test_sample_x0_mean_matches_closed_form():
    xs = chain.sample_x0(TP, 200_000, seed=4)
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - 3.0) < 5 * se


def test_sample_x0_reproducible():
    assert np.array_equal(chain.sample_x0(TP, 1000, seed=8),
                          chain.sample_x0(TP, 1000, seed=8))


def test_sample_x0_diverges_cleanly_at_zero_drift():
    # E[log Z] = 0 for this law; the series cannot converge
    s = dist.two_point("1/2", "2", "1/2")
    with pytest.raises(TruncationOverflow):
        chain.sample_x0(s, 100, seed=0, max_terms=2_000)


def test_stationary_mean_below_perpetuity_mean():
    # E[X_eps] <= E[X_0] for every eps (dominance in expectation)
    st = chain.simulate_chain(TP, _cfg(0.0625, n=200_000), gammas=(1.0,))
    assert st.moments[0] < 3.0 + 3 * st.moment_stderrs[0]


# -- scan ----------------------------------------------------------------------

def test_moment_scan_shares_randomness():
    """Same-seed scan points see identical disorder: the eps = 0.25 run of
    a scan equals a standalone run with the same seed."""
    scan = [chain.simulate_chain(TP, _cfg(eps, n=64_000, seed=13),
                                 gammas=(1.0,)) for eps in (0.5, 0.25)]
    solo = chain.simulate_chain(TP, _cfg(0.25, n=64_000, seed=13),
                                gammas=(1.0,))
    assert scan[1] == solo
    assert scan[0].eps == 0.5
