"""Residual of the truncated expansion and its singularity exponent.

Subtracting the order-K regular part from the measured exponent leaves

    R_K(eps) = (-1)^(K+2) * (Lambda(eps) - sum_{k<=K} (-1)^(k+1) ell_k eps^(2k)),

a positive quantity whose small-eps decay rate carries the critical
exponent alpha of the disorder law: with K chosen as the last admissible
order, R_K is of order eps^(2 alpha) up to a log(1/eps) factor when
alpha is an integer, and squeezed between eps^(2 theta) and eps^(2 alpha)
for non-integer alpha with bounded disorder, where
theta = ceil(alpha) - log E[Z^ceil(alpha)] / log ||Z||_inf.

This module measures R_K on an eps grid (common random numbers across
the grid), fits its log-log slope by weighted least squares, and
computes the theoretical exponent brackets to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coefficients as coeffs
from . import distributions as dist
from .chain import ChainConfig
from .errors import InsufficientSignal, InvalidParameter, KNotInA
from .fitting import power_design, wls_fit
from .lyapunov import lyapunov_invariant

INTEGER_ALPHA_TOL = 1e-6
# a fitted residual must exceed this many standard errors
NOISE_SIGMAS = 4.0


@dataclass(frozen=True)
class ResidualSeries:
    """Measured residuals R_K over an eps grid.

    ``sign`` is (-1)^(K+2), the factor that makes the residual positive;
    ``lam`` and ``regular`` are kept so that the bookkeeping identity
    lam = regular + sign * residual can be re-checked exactly.
    """

    order: int
    eps: tuple
    lam: tuple
    lam_stderr: tuple
    regular: tuple
    residual: tuple
    sign: int
    ell: tuple


def residual_series(spec: dist.DistributionSpec, order: int, eps_grid,
                    n_steps=10 ** 6, **size) -> ResidualSeries:
    """Estimate R_K on a grid, sharing disorder across grid points.

    ``order`` must satisfy E[Z^order] < 1 (raises KNotInA otherwise);
    order 0 is allowed and returns the exponent itself.  ``n_steps`` is
    one budget for every point, or a sequence of per-point budgets to
    spend more effort where the signal is smallest; ``size`` sizes the
    rest of each point's :class:`.chain.ChainConfig`.  Every point's
    config is built, which takes its eps to |eps| and refuses a
    non-finite one, one whose square overflows, or a bad budget, and
    every point's regular part formed, before any estimate runs.
    """
    _check_order(spec, order)
    ell = coeffs.ell_coefficients(spec, order) if order >= 1 else ()
    sign = 1 if order % 2 == 0 else -1
    eps_grid = tuple(eps_grid)
    budgets = tuple(n_steps) if np.ndim(n_steps) \
        else (n_steps,) * len(eps_grid)
    if len(budgets) != len(eps_grid):
        raise InvalidParameter(f"{len(budgets)} budgets for "
                               f"{len(eps_grid)} grid points")
    cfgs = [ChainConfig(eps=eps, n_steps=budget, **size)
            for eps, budget in zip(eps_grid, budgets)]

    reg = tuple(coeffs.regular_part(ell, cfg.eps) for cfg in cfgs)
    ests = [lyapunov_invariant(spec, cfg.eps, n_steps=cfg.n_steps, **size)
            for cfg in cfgs]
    return ResidualSeries(order=order, eps=tuple(cfg.eps for cfg in cfgs),
                          lam=tuple(e.value for e in ests),
                          lam_stderr=tuple(e.stderr for e in ests),
                          regular=reg,
                          residual=tuple(sign * (e.value - r)
                                         for e, r in zip(ests, reg)),
                          sign=sign, ell=tuple(float(e) for e in ell))


def _check_order(spec: dist.DistributionSpec, order: int) -> None:
    """Refuse an order below 0, or one with E[Z^order] >= 1."""
    if order < 0:
        raise InvalidParameter("order must be >= 0")
    if order >= 1 and dist.moment(spec, order) >= 1:
        raise KNotInA(f"E[Z^{order}] >= 1: order {order} is outside the "
                      "admissible moment interval")


@dataclass(frozen=True)
class TheoryBracket:
    """Predicted window for the decay exponent p in R_K ~ eps^p.

    kind is "singular" when K is the last admissible order (the window
    comes from the tail exponent), "regular" when K+1 is still admissible
    (the next series term dominates, p = 2K+2 on the nose) and
    "no_singularity" when every moment of Z is below 1 (alpha infinite).
    ``log_correction`` marks the integer-alpha case where the upper edge
    carries an extra log(1/eps) factor.
    """

    kind: str
    lower_exp: float
    upper_exp: float
    alpha: float
    integer_alpha: bool
    log_correction: bool
    theta: float | None = None
    eta: float | None = None


def theory_brackets(spec: dist.DistributionSpec, order: int) -> TheoryBracket:
    """Exponent window predicted for R_K at K = ``order``."""
    _check_order(spec, order)
    alpha_res = dist.solve_alpha(spec)
    if alpha_res.kind == "infinite":
        p = 2.0 * (order + 1)
        return TheoryBracket(kind="no_singularity", lower_exp=p, upper_exp=p,
                             alpha=math.inf, integer_alpha=False,
                             log_correction=False)
    if alpha_res.kind == "zero_boundary":
        raise KNotInA("E[log Z] >= 0: no admissible orders exist")
    alpha = alpha_res.alpha
    if dist.moment(spec, order + 1) < 1:
        # next coefficient exists: residual is dominated by the ell_{K+1} term
        p = 2.0 * (order + 1)
        return TheoryBracket(kind="regular", lower_exp=p, upper_exp=p,
                             alpha=alpha, integer_alpha=False,
                             log_correction=False)

    integer = abs(alpha - round(alpha)) < INTEGER_ALPHA_TOL
    if integer:
        a = float(round(alpha))
        return TheoryBracket(kind="singular", lower_exp=2 * a, upper_exp=2 * a,
                             alpha=alpha, integer_alpha=True,
                             log_correction=True, theta=a, eta=0.0)
    ceil_a = math.ceil(alpha)
    sup = float(spec.ess_sup())
    eta = math.log(float(dist.moment(spec, ceil_a))) / math.log(sup)
    theta = ceil_a - eta
    return TheoryBracket(kind="singular", lower_exp=2 * alpha,
                         upper_exp=2 * theta, alpha=alpha,
                         integer_alpha=False, log_correction=False,
                         theta=theta, eta=eta)


def check_fit_grid(bracket: TheoryBracket | None, eps_grid) -> None:
    """Refuse a grid the fit under ``bracket`` cannot take: a
    log-corrected fit needs every grid |eps| below 1, since its log
    model takes log log(1/eps), which is -inf at 1 and NaN above."""
    if bracket is not None and bracket.log_correction:
        for eps in eps_grid:
            if abs(eps) >= 1:
                raise InvalidParameter(
                    "a log-corrected fit needs every grid eps below 1 "
                    f"in size, got eps = {eps:g}")


@dataclass(frozen=True)
class FitResult:
    """Log-log fit of the residual decay.

    ``exponent`` is the fitted p in R ~ C eps^p (so p plays the role of
    2q); when the theory bracket has a log correction (an integer
    critical exponent), a second model
    log R = log C + 2 alpha log eps + log log(1/eps)  with pinned slope
    is also fitted, and ``with_log_model`` records whether its weighted
    residual sum ``log_model_rss`` beats the free power law's.
    """

    exponent: float
    exponent_stderr: float
    log_amplitude: float
    r2: float
    with_log_model: bool
    log_model_rss: float | None
    power_rss: float
    n_used: int
    used_eps: tuple


def fit_exponent(series: ResidualSeries, bracket: TheoryBracket | None = None,
                 min_points: int = 5) -> FitResult:
    """Weighted log-log fit of a residual series.

    Grid points whose residual is within NOISE_SIGMAS standard errors
    of zero are dropped; fewer than ``min_points`` survivors, or fewer
    than two distinct ones, raises InsufficientSignal.  ``bracket`` is
    the series' :func:`theory_brackets`, as the caller computed it; one
    with a log correction enables the pinned-slope log model, and needs
    a grid that :func:`check_fit_grid` accepts.
    """
    check_fit_grid(bracket, series.eps)
    r = np.asarray(series.residual)
    se = np.asarray(series.lam_stderr)
    eps = np.asarray(series.eps)
    keep = r > NOISE_SIGMAS * se
    if int(keep.sum()) < min_points:
        raise InsufficientSignal(
            f"only {int(keep.sum())} of {r.size} grid points clear the "
            f"{NOISE_SIGMAS:g}-sigma noise floor; need {min_points}")
    eps, r, se = eps[keep], r[keep], se[keep]

    x = np.log(eps)
    y = np.log(r)
    sig = se / r  # delta method for log-residual errors
    fit = wls_fit(power_design(x, (0, 1)), y, sig)

    log_rss = None
    if bracket is not None and bracket.log_correction:
        # pinned model: log R - 2 alpha log eps - log log(1/eps) = const
        y2 = y - bracket.lower_exp * x - np.log(np.log(1.0 / eps))
        log_rss = wls_fit(np.ones((y2.size, 1)), y2, sig).weighted_rss
    return FitResult(exponent=fit.coefficients[1],
                     exponent_stderr=fit.stderrs[1],
                     log_amplitude=fit.coefficients[0], r2=fit.r2,
                     with_log_model=(log_rss is not None
                                     and log_rss < fit.weighted_rss),
                     log_model_rss=log_rss, power_rss=fit.weighted_rss,
                     n_used=int(r.size), used_eps=tuple(float(e) for e in eps))
