"""Residual series, theoretical decay windows, and the log-log fit."""

import math

import numpy as np
import pytest

from lyapexp import analysis
from lyapexp import distributions as dist
from lyapexp import lyapunov
from lyapexp.errors import InsufficientSignal, InvalidParameter, KNotInA
from lyapexp.fitting import power_design, wls_fit


TP = dist.two_point("1/2", "3/2", "1/4")      # alpha in (3, 4)
CRIT = dist.two_point("1/2", "2", "1/5")      # alpha = 2 exactly
HEAVY = dist.two_point("1/4", "4", "1/3")     # alpha = 1/2 exactly
SUB = dist.uniform_interval("1/10", "9/10")   # Z < 1: alpha infinite


# -- fitting helpers ----------------------------------------------------------

def test_wls_recovers_exact_line():
    x = np.linspace(0.0, 5.0, 12)
    y = 2.5 - 1.25 * x
    fit = wls_fit(np.column_stack([np.ones_like(x), x]), y,
                  np.full(x.size, 0.1))
    assert fit.coefficients[0] == pytest.approx(2.5, abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(-1.25, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.weighted_rss == pytest.approx(0.0, abs=1e-18)


def test_wls_weights_matter():
    # two clusters of points disagree; weights decide who wins
    x = np.array([1.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tight_low = np.array([0.01, 0.01, 10.0, 10.0])
    fit = wls_fit(np.ones((4, 1)), y, tight_low)
    assert fit.coefficients[0] < 0.1


def test_wls_validation():
    with pytest.raises(ValueError):
        wls_fit(np.ones((3, 1)), np.zeros(2), np.ones(2))
    with pytest.raises(InsufficientSignal):
        wls_fit(np.ones((2, 1)), np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(InsufficientSignal, match="2 distinct grid points"):
        wls_fit(np.zeros((3, 2)), np.zeros(3), np.ones(3))


def test_wls_zero_error_bars():
    """A zero-error point with value 0 and an all-zero design row (eps = 0
    in a power fit) is dropped; any other zero error bar is refused, and
    so is a fit left with fewer points than coefficients."""
    design = power_design(np.array([0.0, 0.5, 0.25]), (2,))
    y = np.array([0.0, 1.0, 0.25])
    sigma = np.array([0.0, 0.1, 0.1])
    with np.errstate(all="raise"):
        fit = wls_fit(design, y, sigma)
        ref = wls_fit(design[1:], y[1:], sigma[1:])
    assert fit == ref
    for bad_y, bad_sigma in ((np.array([0.5, 1.0, 0.25]), sigma),
                             (y, np.array([0.0, 0.0, 0.1])),
                             (y, np.array([-0.1, 0.1, 0.1]))):
        with pytest.raises(InsufficientSignal):
            wls_fit(design, bad_y, bad_sigma)
    with pytest.raises(InsufficientSignal):
        wls_fit(design[:1], y[:1], sigma[:1])


def test_residual_series_of_a_negative_grid_is_that_of_the_positive():
    grid = (0.25, 0.125, 0.0625)
    pos, neg = (analysis.residual_series(TP, 1, g, n_steps=20_000, seed=2)
                for g in (grid, tuple(-e for e in grid)))
    assert repr(neg) == repr(pos)
    assert neg.eps == grid


def test_residual_series_checks_the_grid_first(monkeypatch):
    """A non-finite grid point is refused before any estimate runs."""
    def never(*args, **kwargs):
        raise AssertionError("an estimate ran before the grid was checked")
    monkeypatch.setattr(analysis, "lyapunov_invariant", never)
    with pytest.raises(InvalidParameter, match="eps must be finite"):
        analysis.residual_series(TP, 1, (0.25, math.nan))


def test_power_design_columns():
    d = power_design(np.array([2.0, 3.0, 0.5]), (0, 2, 3))
    assert np.array_equal(d, np.array([[1.0, 4.0, 8.0], [1.0, 9.0, 27.0],
                                       [1.0, 0.25, 0.125]]))
    # k columns need k distinct points, however many repeats the grid has
    with pytest.raises(InsufficientSignal, match="3 coefficients need at "
                       "least 3 distinct grid points; got 2"):
        power_design(np.array([2.0, 3.0, 3.0, 2.0]), (0, 2, 3))


# -- theory brackets -----------------------------------------------------------

def test_bracket_non_integer_alpha_below_one():
    b = analysis.theory_brackets(HEAVY, 0)
    assert b.kind == "singular"
    assert not b.integer_alpha and not b.log_correction
    assert b.lower_exp == pytest.approx(1.0, abs=1e-9)     # 2 alpha
    # theta = 1 - log E[Z] / log ||Z||_inf with E[Z] = 3/2, ||Z||_inf = 4
    eta = math.log(1.5) / math.log(4.0)
    assert b.eta == pytest.approx(eta, rel=1e-12)
    assert b.upper_exp == pytest.approx(2.0 * (1.0 - eta), rel=1e-12)


def test_bracket_integer_alpha_log_window():
    b = analysis.theory_brackets(CRIT, 1)
    assert b.kind == "singular"
    assert b.integer_alpha and b.log_correction
    assert b.lower_exp == b.upper_exp == 4.0   # 2 alpha with alpha = 2


def test_bracket_regular_when_next_order_admissible():
    # E[Z^2] = 3/4 < 1, so the K = 1 residual is just the ell_2 term
    b = analysis.theory_brackets(TP, 1)
    assert b.kind == "regular"
    assert b.lower_exp == b.upper_exp == 4.0
    assert not b.log_correction


def test_bracket_singular_at_last_admissible_order():
    # alpha in (3, 4): K = 3 is the last admissible order
    b = analysis.theory_brackets(TP, 3)
    assert b.kind == "singular"
    assert 6.0 < b.lower_exp < 8.0
    assert not b.integer_alpha
    eta = math.log(21.0 / 16.0) / math.log(1.5)
    assert b.eta == pytest.approx(eta, rel=1e-12)
    assert b.upper_exp == pytest.approx(2.0 * (4.0 - eta), rel=1e-12)
    assert b.lower_exp < b.upper_exp


def test_bracket_no_singularity_for_sub_unit_disorder():
    for k in (0, 1, 2):
        b = analysis.theory_brackets(SUB, k)
        assert b.kind == "no_singularity"
        assert b.lower_exp == b.upper_exp == 2.0 * (k + 1)
        assert math.isinf(b.alpha)


def test_bracket_rejects_inadmissible_order():
    with pytest.raises(KNotInA):
        analysis.theory_brackets(CRIT, 2)
    with pytest.raises(KNotInA):
        analysis.theory_brackets(dist.two_point("1/2", "2", "1/2"), 1)


# -- residual series -----------------------------------------------------------

def test_series_order_zero_is_the_exponent_itself():
    grid = (0.5, 0.25, 0.125)
    s = analysis.residual_series(TP, 0, grid, n_steps=64_000, seed=3)
    assert s.sign == 1
    assert s.regular == (0.0, 0.0, 0.0)
    assert s.residual == s.lam
    assert s.ell == ()


def test_series_matches_standalone_estimates():
    grid = (0.25, 0.125)
    s = analysis.residual_series(TP, 1, grid, n_steps=64_000, seed=5)
    for eps, lam in zip(grid, s.lam):
        est = lyapunov.lyapunov_invariant(TP, eps, n_steps=64_000, seed=5)
        assert lam == est.value


def test_series_bookkeeping_identity_exact():
    """lam = regular + sign * residual, exactly in floating point.

    residual is computed as sign * (lam - regular); with lam and regular
    within a factor of two of each other (true on this grid) Sterbenz's
    lemma makes the subtraction exact, and adding the difference back
    returns the original double.
    """
    s = analysis.residual_series(CRIT, 1, (0.125, 0.0625, 0.03125),
                                 n_steps=64_000, seed=1)
    for lam, reg, res in zip(s.lam, s.regular, s.residual):
        assert 0.5 <= lam / reg <= 2.0  # Sterbenz window, else skip claim
        assert reg + s.sign * res == lam


def test_series_sign_alternates_with_order():
    a = analysis.residual_series(TP, 0, (0.25,), n_steps=64_000)
    b = analysis.residual_series(TP, 1, (0.25,), n_steps=64_000)
    assert a.sign == 1 and b.sign == -1


def test_series_residual_positive_where_theory_says_so():
    # K = 1 for the integer-alpha law: R_1 > 0 at moderate eps
    s = analysis.residual_series(CRIT, 1, (0.25, 0.125), n_steps=256_000,
                                 seed=2)
    assert all(r > 0 for r in s.residual)


def test_series_rejects_inadmissible_order():
    with pytest.raises(KNotInA):
        analysis.residual_series(CRIT, 2, (0.25,), n_steps=64_000)


def test_series_budget_schedule_validation():
    with pytest.raises(ValueError):
        analysis.residual_series(TP, 1, (0.25, 0.125), n_steps=[64_000])
    with pytest.raises(ValueError):
        analysis.residual_series(TP, -1, (0.25,))


# -- exponent fit ----------------------------------------------------------------

def _synthetic_series(exponent, amp=1.0, sigma=1e-9, js=range(2, 10),
                      order=0):
    eps = tuple(2.0 ** -j for j in js)
    res = tuple(amp * e ** exponent for e in eps)
    return analysis.ResidualSeries(order=order, eps=eps, lam=res,
                                   lam_stderr=(sigma,) * len(eps),
                                   regular=(0.0,) * len(eps), residual=res,
                                   sign=1, ell=())


def test_fit_recovers_synthetic_slope():
    fit = analysis.fit_exponent(_synthetic_series(3.0), min_points=5)
    assert fit.exponent == pytest.approx(3.0, abs=1e-6)
    assert fit.r2 > 0.999999
    assert fit.n_used == 8


def test_fit_recovers_amplitude():
    fit = analysis.fit_exponent(_synthetic_series(2.0, amp=7.0),
                                min_points=5)
    assert math.exp(fit.log_amplitude) == pytest.approx(7.0, rel=1e-6)


def test_fit_drops_noise_floor_points():
    s = _synthetic_series(2.0, sigma=1e-9)
    # blow up the error on the two smallest eps: residual no longer clears
    # the 4 sigma floor there
    se = list(s.lam_stderr)
    se[-1] = se[-2] = 1.0
    s2 = analysis.ResidualSeries(order=0, eps=s.eps, lam=s.lam,
                                 lam_stderr=tuple(se), regular=s.regular,
                                 residual=s.residual, sign=1, ell=())
    fit = analysis.fit_exponent(s2, min_points=5)
    assert fit.n_used == 6
    assert min(fit.used_eps) == 2.0 ** -7


def test_fit_insufficient_signal():
    s = _synthetic_series(2.0, sigma=10.0)  # nothing clears the floor
    with pytest.raises(InsufficientSignal):
        analysis.fit_exponent(s, min_points=5)


def test_fit_attaches_bracket_and_log_model():
    """Synthetic eps^4 log(1/eps) data, analysed as the CRIT K=1 residual:
    the pinned-slope log model should beat the free power law."""
    eps = tuple(2.0 ** -j for j in range(2, 10))
    res = tuple(e ** 4 * math.log(1.0 / e) for e in eps)
    s = analysis.ResidualSeries(order=1, eps=eps, lam=res,
                                lam_stderr=(1e-10,) * len(eps),
                                regular=(0.0,) * len(eps), residual=res,
                                sign=-1, ell=(4.0,))
    bracket = analysis.theory_brackets(CRIT, 1)
    assert bracket.log_correction
    fit = analysis.fit_exponent(s, bracket=bracket, min_points=5)
    assert fit.with_log_model
    assert fit.log_model_rss < fit.power_rss
    # the log factor makes the decay shallower than eps^4: the free slope
    # is 4 - 1/log(1/eps) locally, i.e. between ~3.3 and ~3.8 on this grid
    assert 3.2 < fit.exponent < 3.9


@pytest.mark.parametrize("top", [1.0, 2.0])
def test_log_corrected_fit_refuses_a_grid_eps_of_one_or_more(top):
    """log log(1/eps) is -inf at eps = 1 and NaN above: the fit with the
    log model refuses such a grid point by name; the free power law
    alone, with no bracket, fits it."""
    eps = (top,) + tuple(2.0 ** -j for j in range(1, 6))
    res = tuple(e ** 4 for e in eps)
    s = analysis.ResidualSeries(order=1, eps=eps, lam=res,
                                lam_stderr=(1e-10,) * len(eps),
                                regular=(0.0,) * len(eps), residual=res,
                                sign=-1, ell=(4.0,))
    with pytest.raises(InvalidParameter, match=f"got eps = {top:g}$"):
        analysis.fit_exponent(s, bracket=analysis.theory_brackets(CRIT, 1))
    assert analysis.fit_exponent(s).exponent == pytest.approx(4.0)


def test_fit_measured_heavy_tail_slope():
    """End-to-end: measured K = 0 residual of the alpha = 1/2 law decays
    like eps^1 (up to the theta window)."""
    grid = tuple(2.0 ** -j for j in range(2, 8))
    s = analysis.residual_series(HEAVY, 0, grid, n_steps=200_000, seed=7)
    fit = analysis.fit_exponent(
        s, bracket=analysis.theory_brackets(HEAVY, 0), min_points=5)
    assert 0.85 <= fit.exponent <= 1.45
    assert fit.r2 > 0.99
