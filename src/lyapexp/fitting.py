"""Small weighted-least-squares helper shared by the fitting front-ends.

Weights are 1/sigma^2 with caller-supplied standard errors; coefficient
standard errors come from (X^T W X)^{-1}, i.e. the supplied errors are
taken at face value rather than rescaled by the residual chi^2.  That is
the right convention here: the sigmas come from batch-means estimates
whose own noise is small, and rescaling would hide genuine lack of fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSignal, InvalidParameter, TruncationOverflow


@dataclass(frozen=True)
class FitSummary:
    coefficients: tuple
    stderrs: tuple
    r2: float
    weighted_rss: float


def wls_fit(design: np.ndarray, y: np.ndarray, sigma: np.ndarray) -> FitSummary:
    """Fit y = design @ coef by weighted least squares.

    ``sigma`` holds per-point standard errors; rows with larger errors
    count less.  Data or errors that are not finite (from a Monte Carlo
    run that overflowed) raise TruncationOverflow, and a design entry
    that is not finite (a grid point whose power overflows)
    InvalidParameter.  A point of zero error whose value is 0 and whose
    design row is all zero (eps = 0 in a power fit) carries no
    information and is dropped; any other error that is not positive,
    fewer points left than coefficients, or a design of lower rank than
    its column count (a safety net behind :func:`power_design`) raises
    InsufficientSignal.  The weighted R^2 is measured about the
    weighted mean of y (1.0 for a perfect fit, negative for a model worse
    than the constant, NaN for a fit with no more points than
    coefficients).
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if design.ndim != 2 or design.shape[0] != y.size:
        raise ValueError("design matrix and data length mismatch")
    if not (np.isfinite(y).all() and np.isfinite(sigma).all()):
        raise TruncationOverflow("cannot fit estimates that are not finite "
                                 "(the recursion overflowed)")
    if not np.isfinite(design).all():
        raise InvalidParameter("a grid point is too large to fit: one of "
                               "its powers is not finite")
    void = (sigma == 0) & (y == 0) & ~design.any(axis=1)
    design, y, sigma = design[~void], y[~void], sigma[~void]
    if np.any(sigma <= 0):
        raise InsufficientSignal("a fitted estimate has a zero error bar, "
                                 "so it cannot be weighted")
    if y.size < design.shape[1]:
        raise InsufficientSignal(
            f"{design.shape[1]} coefficients need at least "
            f"{design.shape[1]} informative points; got {y.size}")
    sw = 1.0 / sigma
    a = design * sw[:, None]
    b = y * sw
    coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < design.shape[1]:
        raise InsufficientSignal(
            f"{design.shape[1]} coefficients need {design.shape[1]} "
            f"distinct grid points; the design has rank {rank}")
    cov = np.linalg.inv(a.T @ a)
    resid = b - a @ coef
    rss = float(resid @ resid)
    w = sw * sw
    ybar = float((w * y).sum() / w.sum())
    tss = float((w * (y - ybar) ** 2).sum())
    if y.size <= design.shape[1]:
        r2 = np.nan
    else:
        r2 = 1.0 - rss / tss if tss > 0 else (1.0 if rss == 0 else -np.inf)
    return FitSummary(coefficients=tuple(float(c) for c in coef),
                      stderrs=tuple(float(s) for s in np.sqrt(np.diag(cov))),
                      r2=r2, weighted_rss=rss)


def power_design(x: np.ndarray, powers) -> np.ndarray:
    """Design matrix with columns x**p for p in powers.

    Every fit sizes its grid here: k columns need at least k distinct
    grid points, and a grid with fewer raises InsufficientSignal.
    """
    x = np.asarray(x, dtype=float)
    powers = tuple(powers)
    distinct = np.unique(x).size
    if distinct < len(powers):
        raise InsufficientSignal(
            f"{len(powers)} coefficients need at least {len(powers)} "
            f"distinct grid points; got {distinct}")
    return np.column_stack([x ** float(p) for p in powers])
